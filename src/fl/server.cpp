#include "fl/server.h"

namespace fedtiny::fl {

void SparseGradAccumulator::add(const std::vector<prune::ScoredIndex>& entries, double weight) {
  for (const auto& e : entries) {
    sum_[e.index] += weight * static_cast<double>(e.value);
  }
  total_weight_ += weight;
}

std::vector<prune::ScoredIndex> SparseGradAccumulator::average() const {
  std::vector<prune::ScoredIndex> out;
  out.reserve(sum_.size());
  const double inv = total_weight_ > 0.0 ? 1.0 / total_weight_ : 0.0;
  for (const auto& [index, value] : sum_) {
    out.push_back({index, static_cast<float>(value * inv)});
  }
  return out;
}

void SparseGradAccumulator::reset() {
  sum_.clear();
  total_weight_ = 0.0;
}

}  // namespace fedtiny::fl
