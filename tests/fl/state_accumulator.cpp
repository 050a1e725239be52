#include "state_accumulator.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace fedtiny::fl {

namespace {

bool all_finite(const std::vector<Tensor>& tensors) {
  for (const auto& t : tensors) {
    for (const float v : t.flat()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

bool all_finite(const SparseUpdatePayload& update) {
  for (const auto& layer : update.sparse_layers) {
    for (const float v : layer.values) {
      if (!std::isfinite(v)) return false;
    }
  }
  return all_finite(update.dense_tensors);
}

}  // namespace

void StateAccumulator::add(const std::vector<Tensor>& state, double weight) {
  // The two ingestion paths are mutually exclusive per accumulation; mixing
  // them would silently average incompatible representations, so it is a
  // hard error in release builds too (not just an assert).
  if (!sparse_sum_.empty() || !sparse_dense_sum_.empty()) {
    throw std::logic_error(
        "StateAccumulator: add() after add_sparse() — the dense and sparse "
        "ingestion paths must not be mixed in one accumulation");
  }
  if (!all_finite(state)) {
    ++dropped_nonfinite_;
    return;
  }
  if (sum_.empty()) {
    sum_.reserve(state.size());
    for (const auto& t : state) sum_.emplace_back(t.shape());
  }
  assert(sum_.size() == state.size());
  for (size_t i = 0; i < state.size(); ++i) {
    auto dst = sum_[i].flat();
    const auto src = state[i].flat();
    assert(dst.size() == src.size());
    for (size_t j = 0; j < src.size(); ++j) {
      dst[j] += static_cast<float>(weight) * src[j];
    }
  }
  total_weight_ += weight;
}

void StateAccumulator::add_sparse(const SparseUpdatePayload& update, double weight) {
  if (!sum_.empty()) {
    throw std::logic_error(
        "StateAccumulator: add_sparse() after add() — the dense and sparse "
        "ingestion paths must not be mixed in one accumulation");
  }
  if (!all_finite(update)) {
    ++dropped_nonfinite_;
    return;
  }
  if (sparse_sum_.empty() && sparse_dense_sum_.empty()) {
    sparse_sum_.reserve(update.sparse_layers.size());
    for (const auto& layer : update.sparse_layers) {
      UpdateLayerPayload acc;
      acc.shape = layer.shape;
      acc.values.assign(layer.values.size(), 0.0f);
      sparse_sum_.push_back(std::move(acc));
    }
    sparse_dense_sum_.reserve(update.dense_tensors.size());
    for (const auto& t : update.dense_tensors) sparse_dense_sum_.emplace_back(t.shape());
  }
  // Uplinks must agree layer-for-layer with the first one accepted this
  // round; a foreign/truncated payload is dropped instead of read past.
  assert(sparse_sum_.size() == update.sparse_layers.size());
  assert(sparse_dense_sum_.size() == update.dense_tensors.size());
  if (sparse_sum_.size() != update.sparse_layers.size() ||
      sparse_dense_sum_.size() != update.dense_tensors.size()) {
    return;
  }
  for (size_t l = 0; l < update.sparse_layers.size(); ++l) {
    assert(sparse_sum_[l].values.size() == update.sparse_layers[l].values.size());
    if (sparse_sum_[l].values.size() != update.sparse_layers[l].values.size()) return;
  }
  const auto w = static_cast<float>(weight);
  for (size_t l = 0; l < update.sparse_layers.size(); ++l) {
    const auto& values = update.sparse_layers[l].values;
    auto& acc = sparse_sum_[l].values;
    for (size_t j = 0; j < values.size(); ++j) acc[j] += w * values[j];
  }
  for (size_t i = 0; i < update.dense_tensors.size(); ++i) {
    auto dst = sparse_dense_sum_[i].flat();
    const auto src = update.dense_tensors[i].flat();
    assert(dst.size() == src.size());
    for (size_t j = 0; j < src.size(); ++j) dst[j] += w * src[j];
  }
  total_weight_ += weight;
}

std::vector<Tensor> StateAccumulator::average() {
  if (total_weight_ <= 0.0) return {};
  // Fold the final scale into the sum buffers and move them out — no
  // fleet-sized copy. The accumulator is spent; the next add() re-seeds.
  std::vector<Tensor> out = std::move(sum_);
  sum_.clear();
  const auto inv = static_cast<float>(1.0 / total_weight_);
  for (auto& t : out) {
    for (auto& v : t.flat()) v *= inv;
  }
  return out;
}

std::vector<Tensor> StateAccumulator::average_sparse(const prune::MaskSet& mask,
                                                     const std::vector<int>& prunable_indices) {
  if (total_weight_ <= 0.0) return {};
  assert(sparse_sum_.size() == prunable_indices.size());
  assert(mask.num_layers() == prunable_indices.size());
  const auto inv = static_cast<float>(1.0 / total_weight_);
  // Scale the compact sums in place, hand them to a payload by move, then
  // reuse the uplink reconstruction to scatter through the mask and
  // interleave with the (likewise moved) dense remainder.
  SparseUpdatePayload averaged;
  averaged.sparse_layers = std::move(sparse_sum_);
  sparse_sum_.clear();
  for (auto& layer : averaged.sparse_layers) {
    for (auto& v : layer.values) v *= inv;
  }
  averaged.dense_tensors = std::move(sparse_dense_sum_);
  sparse_dense_sum_.clear();
  for (auto& t : averaged.dense_tensors) {
    for (auto& v : t.flat()) v *= inv;
  }
  std::vector<Tensor> out;
  // The payload was assembled from this accumulator's own sums, so the
  // reconstruction cannot legitimately fail; an empty result means the
  // caller mixed masks and is a programming error upstream.
  reconstruct_update(averaged, mask, prunable_indices, out);
  return out;
}

void StateAccumulator::reset() {
  sum_.clear();
  sparse_sum_.clear();
  sparse_dense_sum_.clear();
  total_weight_ = 0.0;
  dropped_nonfinite_ = 0;
}

}  // namespace fedtiny::fl
