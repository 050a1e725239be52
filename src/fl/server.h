// Server-side weighted sparse gradient accumulation (Eq. 7). Model states
// are averaged by fl::ShardedAccumulator.
#pragma once

#include <unordered_map>
#include <vector>

#include "prune/topk_buffer.h"

namespace fedtiny::fl {

/// Accumulates weighted sparse (index, value) gradient uploads for one
/// layer and produces the weighted average per index (Eq. 7; indices
/// missing from a device contribute zero, consistent with the paper's
/// weighted sum over devices).
class SparseGradAccumulator {
 public:
  void add(const std::vector<prune::ScoredIndex>& entries, double weight);
  [[nodiscard]] std::vector<prune::ScoredIndex> average() const;
  void reset();

 private:
  std::unordered_map<int64_t, double> sum_;
  double total_weight_ = 0.0;
};

}  // namespace fedtiny::fl
