#include "core/bn_selection.h"

#include <algorithm>
#include <cassert>

#include "data/partition.h"
#include "fl/evaluate.h"
#include "fl/sharded_accumulator.h"
#include "metrics/comms.h"
#include "metrics/flops.h"
#include "tensor/rng.h"

namespace fedtiny::core {

BNSelectionReport select_coarse_mask(nn::Model& model, const data::Dataset& train_data,
                                     const data::PartitionArena& partitions,
                                     const BNSelectionConfig& config) {
  BNSelectionReport report;
  const std::vector<Tensor> dense_state = model.state();

  Rng rng(config.seed, /*stream=*/0xb52);
  const auto pool = prune::generate_candidate_pool(model, config.pool, rng);
  const auto dev = data::development_split(partitions, config.dev_fraction);

  double total_dev = 0.0;
  for (const auto& d : dev) total_dev += static_cast<double>(d.size());

  std::vector<std::vector<Tensor>> winning_bn(pool.size());
  report.candidate_losses.assign(pool.size(), 0.0);
  // BN-stat arrays are far below the accumulator's shard threshold, so every
  // fold runs inline; the buffers are reused across candidates.
  fl::ShardedAccumulator bn_acc;

  for (size_t c = 0; c < pool.size(); ++c) {
    // Install candidate: dense weights + candidate mask.
    model.set_state(dense_state);
    pool[c].apply(model);

    if (config.adaptive) {
      // Device-side BN measurement + server-side weighted aggregation
      // (Alg. 1 lines 2-13).
      bn_acc.begin_round();
      for (size_t k = 0; k < dev.size(); ++k) {
        if (dev[k].empty()) continue;
        model.begin_stat_refresh();
        for (const auto& chunk : data::chunk_indices(dev[k], config.batch_size)) {
          auto batch = data::gather_batch(train_data, chunk);
          (void)model.forward(batch.x, nn::Mode::kStatRefresh);
        }
        model.finalize_stat_refresh();
        bn_acc.fold(model.bn_stats(), static_cast<double>(dev[k].size()) / total_dev);
      }
      if (bn_acc.average_into(winning_bn[c])) model.set_bn_stats(winning_bn[c]);
    }

    // Device-side evaluation with the (possibly refreshed) statistics
    // (Alg. 1 lines 14-26).
    double loss = 0.0;
    for (size_t k = 0; k < dev.size(); ++k) {
      if (dev[k].empty()) continue;
      loss += fl::evaluate_loss(model, train_data, dev[k], config.batch_size) *
              (static_cast<double>(dev[k].size()) / total_dev);
    }
    report.candidate_losses[static_cast<size_t>(c)] = loss;
  }

  const auto best = std::min_element(report.candidate_losses.begin(),
                                     report.candidate_losses.end());
  report.selected_candidate = static_cast<int>(best - report.candidate_losses.begin());
  report.mask = pool[static_cast<size_t>(report.selected_candidate)];

  // Restore: dense weights + winning mask (+ its BN statistics).
  model.set_state(dense_state);
  report.mask.apply(model);
  if (config.adaptive && !winning_bn[static_cast<size_t>(report.selected_candidate)].empty()) {
    model.set_bn_stats(winning_bn[static_cast<size_t>(report.selected_candidate)]);
  }

  // ---- Cost accounting (per device; §IV-D / Table II). ----
  auto cost = metrics::analyze_model(model);
  int64_t bn_channels = 0;
  for (const auto* bn : model.bn_layers()) bn_channels += bn->channels();
  report.comm_bytes_per_device = metrics::bn_selection_comm_bytes(
      cost, report.mask.nnz(), static_cast<int>(pool.size()), bn_channels);
  const double mean_dev =
      total_dev / static_cast<double>(std::max(1, partitions.num_clients()));
  const double passes = config.adaptive ? 2.0 : 1.0;  // refresh pass + eval pass
  report.extra_flops_per_device = passes * static_cast<double>(pool.size()) * mean_dev *
                                  cost.sparse_forward_flops(report.mask.layer_densities());
  return report;
}

}  // namespace fedtiny::core
