// ShardedAccumulator: the server's weighted-mean accumulator, streaming in
// the federated round loop and folding BN statistics in BN selection.
//
// The server never holds more than one uplink plus one packed sum buffer:
// each arriving client state (dense or sparse-compact) is folded into the
// sums the moment the trainer hands it over, in simulated-clock arrival
// order, and the buffers are reused round after round. The sums live in ONE
// flat float arena spanning the concatenated parameter space; folds and the
// final scale run parallel across contiguous *shards* of that arena on the
// process Executor. Because every operation is per-element
// (sum[j] += w * src[j]; out[j] = sum[j] * inv), shard boundaries and lane
// counts cannot change a single bit — any shard/worker count reproduces the
// serial batch oracle (StateAccumulator, tests/fl/state_accumulator.h)
// bitwise as long as clients fold in the same order, which the trainer
// guarantees (ascending client order in sync, pop order in async).
//
// average_into()/average_sparse_into() write the weighted mean straight into
// the caller's state tensors (the trainer's global model) instead of
// returning a fresh fleet-sized copy, and the sparse scatter reuses those
// same tensors as its scratch — zero per-round allocation once the layout is
// warm.
//
// Robust policies (set_policy): kFedAvg is the streaming weighted mean above
// and the default. kNormClip stays streaming — each uplink's delta against
// the reference arena (set_reference, the round broadcast) has its L2 norm
// computed over FIXED-size chunks whose partials sum serially in chunk
// order, so lane counts cannot change a bit; an uplink over the threshold
// folds as ref + (tau/norm) * delta, one at or under it folds verbatim
// (bitwise-fedavg for unclipped rounds). kTrimmedMean/kCoordMedian switch to
// a RETAINED mode: every accepted uplink's packed arena row is kept until
// finalize — O(cohort x model) server memory, the documented price of
// order-statistic aggregation — and the per-coordinate reduction shards the
// arena over the Executor in fixed coordinate chunks (coordinates are
// independent, ties sort by fold order), so any lane count is bitwise-equal.
// Every policy first rejects non-finite uplinks (NaN/Inf) with a counted
// drop; the weight renormalization over survivors is automatic because the
// final average divides by the summed *accepted* weights.
#pragma once

#include <cstddef>
#include <vector>

#include "fl/config.h"
#include "fl/payload.h"
#include "prune/mask.h"
#include "tensor/tensor.h"

namespace fedtiny::fl {

class ShardedAccumulator {
 public:
  /// Start a new accumulation. O(1): buffers are kept and lazily zeroed (or
  /// re-laid-out) by the first fold, so an empty round costs nothing.
  /// Resets the per-round counters and the reference; the policy and the
  /// adaptive clip threshold persist across rounds.
  void begin_round();

  /// Select the aggregation policy for subsequent folds (sticky across
  /// rounds; default kFedAvg). Call between begin_round() and the first
  /// fold.
  void set_policy(const AggregationConfig& policy) { policy_ = policy; }
  [[nodiscard]] const AggregationConfig& policy() const { return policy_; }

  /// Install the norm-clip reference (the round-start broadcast): lays out
  /// the arena for the matching fold path and packs the reference values.
  /// Without a reference kNormClip degrades to plain folding.
  void set_reference(const std::vector<Tensor>& state);
  void set_reference(const SparseUpdatePayload& update);

  /// Fold one dense uplink: sum[j] += weight * state[j], shard-parallel.
  /// Dense and sparse ingestion must not meet in one round (throws
  /// std::logic_error).
  void fold(const std::vector<Tensor>& state, double weight);

  /// Fold one sparse-exchange uplink compactly: O(nnz) per client, no
  /// densify. Payloads disagreeing with the round's first accepted layout
  /// are dropped.
  void fold_sparse(const SparseUpdatePayload& update, double weight);

  [[nodiscard]] bool empty() const { return total_weight_ == 0.0; }
  [[nodiscard]] double total_weight() const { return total_weight_; }
  [[nodiscard]] int folded() const { return folded_; }
  /// Uplinks rejected this round for carrying NaN/Inf values.
  [[nodiscard]] int dropped_nonfinite() const { return dropped_nonfinite_; }
  /// Uplinks whose delta norm was clipped this round (kNormClip only).
  [[nodiscard]] int clipped() const { return clipped_; }
  /// Adaptive clip threshold carried into the next round (median of this
  /// round's accepted delta norms once an average ran; 0 before the first).
  [[nodiscard]] double adaptive_clip_tau() const { return adaptive_tau_; }

  /// Scale the dense sums by 1/total_weight into `out`, reallocating its
  /// tensors only on shape change. Returns false (leaving `out` untouched)
  /// when nothing was folded — an empty round keeps the previous state.
  bool average_into(std::vector<Tensor>& out);

  /// Sparse-path average: scale the compact sums and scatter them through
  /// the round mask into `out` (Model::state() layout, prunable layer l at
  /// prunable_indices[l], dense remainder in order; pruned coordinates get
  /// exact zeros). Returns false on an empty round or a mask/layout
  /// mismatch, leaving `out` untouched.
  bool average_sparse_into(std::vector<Tensor>& out, const prune::MaskSet& mask,
                           const std::vector<int>& prunable_indices);

  /// Bytes resident in the accumulator's packed buffers — the server-side
  /// aggregation footprint. Independent of fleet size under the streaming
  /// policies; the retained policies add O(cohort x model) for the kept
  /// uplink rows.
  [[nodiscard]] size_t resident_bytes() const;

 private:
  enum class Mode { kIdle, kDense, kSparse };

  void init_dense_layout(const std::vector<Tensor>& state);
  void init_sparse_layout(const SparseUpdatePayload& update);
  /// sum_[offsets_[i] + a .. offsets_[i] + b) += w * srcs[i][a .. b),
  /// shard-parallel over the packed arena.
  void fold_spans(double weight);
  /// Norm-clipped fold: sum[j] += w * (ref[j] + factor * (src[j] - ref[j])).
  void fold_spans_clipped(double weight, float factor);
  /// Policy dispatch for one staged uplink (srcs_ set): non-finite guard,
  /// then stream, clip, or retain. Updates total_weight_/folded_ on accept.
  void ingest(double weight);
  /// All staged source values finite? Order-independent (a boolean), so the
  /// sharded scan is lane-count-safe.
  [[nodiscard]] bool staged_all_finite() const;
  /// L2 norm^2 of (staged uplink - reference) over the arena, accumulated in
  /// FIXED-size chunks summed serially in chunk order: bitwise-identical at
  /// any lane count.
  [[nodiscard]] double staged_delta_sq_norm() const;
  /// Copy the staged uplink's spans into one contiguous arena row.
  void copy_spans_to(float* dst) const;
  /// Per-coordinate trimmed-mean/median over the retained rows, written into
  /// sum_ (total_weight_ becomes 1 so the final scale is the identity).
  void reduce_retained();
  /// Round-end policy bookkeeping (adaptive tau, retained reduction); called
  /// by both average paths.
  void finalize_policy();

  Mode mode_ = Mode::kIdle;
  double total_weight_ = 0.0;
  int folded_ = 0;

  // ---- Robust-policy state. ----
  AggregationConfig policy_;
  bool has_reference_ = false;
  std::vector<float> ref_;  // packed round-start values (norm_clip)
  /// Retained mode: accepted uplink rows (row-major, arena-width) + weights.
  std::vector<float> retained_;
  std::vector<double> retained_weights_;
  std::vector<double> norms_;  // this round's accepted delta norms
  double adaptive_tau_ = 0.0;  // carried across rounds (clip_tau == 0)
  int dropped_nonfinite_ = 0;
  int clipped_ = 0;

  // Packed sum arena + per-tensor layout. Dense mode: one entry per state
  // tensor. Sparse mode: one entry per compact prunable layer, then one per
  // dense-remainder tensor.
  std::vector<float> sum_;
  std::vector<size_t> offsets_;  // tensor_count + 1 prefix offsets into sum_
  bool zeroed_ = false;          // sums cleared since begin_round()

  // Dense-mode shapes (layout identity + average_into allocation).
  std::vector<std::vector<int64_t>> dense_shapes_;
  // Sparse-mode layout: compact value counts + shapes per prunable layer,
  // then dense-remainder shapes.
  std::vector<size_t> sparse_counts_;
  std::vector<std::vector<int64_t>> sparse_shapes_;
  std::vector<std::vector<int64_t>> remainder_shapes_;

  // Per-fold source pointers (scratch, reused).
  std::vector<const float*> srcs_;
};

}  // namespace fedtiny::fl
