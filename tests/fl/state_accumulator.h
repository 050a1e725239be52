// StateAccumulator: the batch weighted-mean accumulator the round loop used
// before fl::ShardedAccumulator. It is kept here, beside the tests, as the
// serial bitwise oracle the sharded fold is checked against: same
// per-element arithmetic (sum += float(w) * x, then * float(1 / total)), one
// plain loop per tensor.
#pragma once

#include <vector>

#include "fl/payload.h"
#include "prune/mask.h"
#include "tensor/tensor.h"

namespace fedtiny::fl {

/// Accumulates weighted model states and produces their weighted mean.
/// Two mutually exclusive ingestion paths:
///   - add(): dense client states (all tensor shapes identical);
///   - add_sparse(): SparseUpdatePayload uplinks, accumulated compactly in
///     O(nnz) per client without densifying, averaged by average_sparse().
/// Mixing the two in one accumulation throws std::logic_error (release
/// builds included — silently averaging incompatible representations is
/// worse than aborting the round).
/// Per-coordinate arithmetic is identical across the two paths, so a sparse
/// round aggregates bitwise the same as its dense oracle.
/// Uplinks carrying non-finite values (NaN/Inf from a hostile or broken
/// client) are rejected with a counted drop — one poisoned coordinate would
/// otherwise NaN the whole averaged state — and the mean renormalizes over
/// the accepted weights automatically.
class StateAccumulator {
 public:
  void add(const std::vector<Tensor>& state, double weight);
  void add_sparse(const SparseUpdatePayload& update, double weight);

  [[nodiscard]] bool empty() const { return total_weight_ == 0.0; }
  [[nodiscard]] double total_weight() const { return total_weight_; }
  /// Uplinks rejected for carrying NaN/Inf values since the last reset().
  [[nodiscard]] int dropped_nonfinite() const { return dropped_nonfinite_; }

  /// Weighted average of dense add()s; empty vector when nothing was added
  /// (an empty round must not produce garbage in release builds).
  /// Consuming: the final scale folds into the sum buffers in place (no
  /// fleet-sized copy) and moves them out — the accumulator is spent until
  /// the next add() starts a fresh accumulation.
  [[nodiscard]] std::vector<Tensor> average();

  /// Weighted average of add_sparse() uplinks, scattered back to dense
  /// through the round mask. Empty vector when nothing was added.
  /// Consuming, like average().
  [[nodiscard]] std::vector<Tensor> average_sparse(const prune::MaskSet& mask,
                                                   const std::vector<int>& prunable_indices);

  void reset();

 private:
  // Dense path.
  std::vector<Tensor> sum_;
  // Sparse path: compact per-layer value sums + dense remainder sums.
  std::vector<UpdateLayerPayload> sparse_sum_;
  std::vector<Tensor> sparse_dense_sum_;
  double total_weight_ = 0.0;
  int dropped_nonfinite_ = 0;
};

}  // namespace fedtiny::fl
