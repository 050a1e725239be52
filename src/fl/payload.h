// Sparse exchange payloads: the wire representation the server and clients
// actually ship each round when FLConfig::sparse_exchange is on.
//
//   Downlink (server -> every sampled client): SparseStatePayload — each
//   prunable layer as {packed mask bitmap + kept values}, every other state
//   tensor (biases, BN params and running stats, input/output layers) dense.
//
//   Uplink (client -> server): SparseUpdatePayload — each prunable layer's
//   trained values at the round mask's kept coordinates only. The bitmap is
//   omitted: the server broadcast the mask this round, so the support is
//   shared knowledge. Masked SGD keeps pruned coordinates exactly zero, so
//   values-at-support carries the full update (byte-identical cost to a
//   delta restricted to the same support, without the float round-trip a
//   base+delta reconstruction would introduce).
//
// serialize() buffer sizes are the measured comm_bytes in RoundStats.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "prune/mask.h"
#include "prune/topk_buffer.h"
#include "tensor/tensor.h"

namespace fedtiny::fl {

/// One prunable tensor compacted against its mask.
struct SparseLayerPayload {
  std::vector<int64_t> shape;       // dense tensor shape
  std::vector<uint64_t> mask_bits;  // ceil(numel / 64) words, LSB-first
  std::vector<float> values;        // kept entries in ascending index order

  [[nodiscard]] int64_t numel() const { return Tensor::compute_numel(shape); }
};

/// Full model state in sparse-exchange form (downlink / checkpoint).
struct SparseStatePayload {
  std::vector<SparseLayerPayload> sparse_layers;  // Model prunable order
  std::vector<Tensor> dense_tensors;              // remaining state, in order

  [[nodiscard]] size_t state_tensor_count() const {
    return sparse_layers.size() + dense_tensors.size();
  }
};

/// One prunable tensor's uplink values at the agreed mask support.
struct UpdateLayerPayload {
  std::vector<int64_t> shape;
  std::vector<float> values;  // one per mask-kept coordinate, ascending
};

/// Client -> server trained state (uplink). Carries the sender's local
/// sample count so the server can renormalize FedAvg weights over the
/// round's (possibly subsampled) cohort from wire data alone.
struct SparseUpdatePayload {
  std::vector<UpdateLayerPayload> sparse_layers;  // Model prunable order
  std::vector<Tensor> dense_tensors;              // remaining state, in order
  int64_t num_samples = 0;                        // sender's local dataset size
};

// ---- Build / reconstruct ---------------------------------------------------

/// Compact a state (Model::state() layout) against a mask. prunable_indices
/// gives the state positions of the masked tensors (Model::prunable_indices()).
SparseStatePayload build_sparse_state(const std::vector<Tensor>& state,
                                      const prune::MaskSet& mask,
                                      const std::vector<int>& prunable_indices);

/// Inverse of build_sparse_state: fills `out` with the dense state, masked
/// coordinates zero. Returns false — leaving `out` empty — when the payload
/// does not fit prunable_indices (e.g. a checkpoint saved from a different
/// architecture), so failure is distinguishable from a legitimately empty
/// payload (zero tensors), which returns true.
bool reconstruct_state(const SparseStatePayload& payload,
                       const std::vector<int>& prunable_indices,
                       std::vector<Tensor>& out);

/// Recover the mask encoded in a state payload's bitmaps.
prune::MaskSet payload_mask(const SparseStatePayload& payload);

SparseUpdatePayload build_sparse_update(const std::vector<Tensor>& state,
                                        const prune::MaskSet& mask,
                                        const std::vector<int>& prunable_indices);

/// Dense state from an uplink payload; needs the round mask for the support.
/// Returns false — leaving `out` empty — when the payload does not fit
/// prunable_indices or a layer's value count disagrees with the mask's
/// support; a legitimately empty payload returns true.
bool reconstruct_update(const SparseUpdatePayload& payload,
                        const prune::MaskSet& mask,
                        const std::vector<int>& prunable_indices,
                        std::vector<Tensor>& out);

/// Interleave per-prunable-layer tensors with the dense remainder into the
/// Model::state() layout: sparse_tensors[l] lands at prunable_indices[l],
/// dense_tensors fill the remaining positions in order. Empty vector when
/// the counts/indices are inconsistent. Shared by the reconstruct functions.
std::vector<Tensor> place_state(std::vector<Tensor> sparse_tensors,
                                const std::vector<Tensor>& dense_tensors,
                                const std::vector<int>& prunable_indices);

// ---- Wire format -----------------------------------------------------------

// serialize() emits the v1 format (fp32 values + raw bitmap). deserialize()
// dispatches on the leading tag: v1 wires decode here, v2 codec wires
// (fl/codec.h) route through codec::decode_*, so checkpoints and callers
// are format-agnostic. Note a delta-coded v2 *update* wire needs the shared
// reference and only decodes via codec::decode_update.
std::vector<uint8_t> serialize(const SparseStatePayload& payload);
std::vector<uint8_t> serialize(const SparseUpdatePayload& payload);
bool deserialize(std::span<const uint8_t> bytes, SparseStatePayload& out);
bool deserialize(std::span<const uint8_t> bytes, SparseUpdatePayload& out);

/// Measured bytes of a top-K pruned-gradient upload ((index, value) pairs),
/// the uplink companion of FederatedTrainer::topk_pruned_grads.
std::vector<uint8_t> serialize_grad_upload(
    const std::vector<std::vector<prune::ScoredIndex>>& grads);

// ---- Checkpointing ---------------------------------------------------------

/// Round-trip a sparse state (mask implicit in the bitmaps) through a file:
/// magic "FTSPRS01" + the serialize() wire format. The span overload reuses
/// an already-serialized buffer instead of encoding the payload again.
bool save_sparse_checkpoint(const std::string& path, const SparseStatePayload& payload);
bool save_sparse_checkpoint(const std::string& path, std::span<const uint8_t> wire);
bool load_sparse_checkpoint(const std::string& path, SparseStatePayload& out);

}  // namespace fedtiny::fl
