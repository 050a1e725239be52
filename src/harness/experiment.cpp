#include "harness/experiment.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "baselines/feddst.h"
#include "baselines/init_masks.h"
#include "baselines/lotteryfl.h"
#include "baselines/prunefl.h"
#include "core/pretrain.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/adversary.h"
#include "fl/aggregation.h"
#include "fl/codec.h"
#include "harness/knobs.h"
#include "metrics/memory.h"
#include "nn/models.h"
#include "tensor/kernels.h"

namespace fedtiny::harness {

int default_pool_size(double density, const ScaleConfig& scale) {
  const double c_star = 0.1 / std::max(density, 1e-6);
  return static_cast<int>(
      std::clamp(c_star, 4.0, 4.0 * static_cast<double>(scale.pool_size)));
}

namespace {

core::PruningSchedule default_schedule(const ScaleConfig& scale) {
  core::PruningSchedule s;
  s.granularity = core::Granularity::kBlock;
  s.backward_order = true;
  s.delta_r = scale.delta_r;
  s.r_stop = scale.r_stop;
  s.num_blocks = 5;
  return s;
}

}  // namespace

RunResult Experiment::run(const RunSpec& spec) const {
  // Explicit knob values are strict: a typo or out-of-range value throws
  // instead of silently running something else (harness/knobs.cpp holds the
  // bounds and defers names to the owning parsers).
  validate_knobs(spec);

  // Kernel engine selection is process-wide (see RunSpec::kernels); an
  // explicit spec knob overrides the FEDTINY_KERNELS-seeded default.
  if (!spec.kernels.empty()) {
    kernels::set_mode(kernels::parse_mode(spec.kernels.c_str()));
  }

  // ---- Data: synthetic dataset, Dirichlet partition, public split. ----
  auto data_spec = data::spec_by_name(spec.dataset, scale_.image_size, scale_.train_size,
                                      scale_.test_size);
  auto data = data::make_synthetic(data_spec, spec.seed);

  // Out-of-core fleet: client shards are generated on demand from
  // (seed, client, sample) counters — no train-split partitioning, and no
  // per-client state proportional to K beyond the scheduler's size cache.
  std::shared_ptr<const data::ClientDataSource> fleet;
  std::vector<std::vector<int64_t>> partitions;
  if (spec.on_demand_samples_per_client > 0) {
    fleet = std::make_shared<data::SyntheticFleetSource>(
        data_spec, spec.seed, spec.num_clients, spec.on_demand_samples_per_client);
  } else {
    Rng part_rng(spec.seed, /*stream=*/0xd1d1);
    partitions = data::dirichlet_partition(data.train.labels, spec.num_clients,
                                           spec.dirichlet_alpha, part_rng);
  }

  // Public one-shot dataset D_s: an iid random sample of the train split
  // (stands in for the paper's server-held public data).
  Rng pub_rng(spec.seed, /*stream=*/0x9b1c);
  auto pub_perm = pub_rng.permutation(data.train.size());
  pub_perm.resize(static_cast<size_t>(std::min(scale_.public_size, data.train.size())));
  auto public_data = data.train.subset(pub_perm);

  // ---- Model. ----
  nn::ModelConfig model_config;
  model_config.num_classes = data_spec.num_classes;
  model_config.image_size = scale_.image_size;
  model_config.width_mult = scale_.width_mult;
  model_config.seed = spec.seed;

  std::unique_ptr<nn::Model> model;
  if (spec.model == "resnet18") {
    model = nn::make_resnet18(model_config);
  } else if (spec.model == "vgg11") {
    model = nn::make_vgg11(model_config);
  } else {
    throw std::invalid_argument("unknown model: " + spec.model);
  }

  // Dense references (shared by every method for ratio reporting).
  auto dense_cost = metrics::analyze_model(*model);
  const double mean_client =
      fleet ? static_cast<double>(spec.on_demand_samples_per_client)
            : static_cast<double>(data.train.size()) / static_cast<double>(partitions.size());
  const double dense_round = static_cast<double>(scale_.local_epochs) * mean_client *
                             dense_cost.dense_training_flops();
  const double dense_memory =
      metrics::device_memory(dense_cost, 0, true, metrics::ScoreStorage::kNone).total_bytes();

  // ---- small_model short-circuits to a dense SmallCNN run. ----
  RunResult result;
  result.method = spec.method;
  result.dense_round_flops = dense_round;
  result.dense_memory_bytes = dense_memory;

  fl::FLConfig fl_config;
  fl_config.num_clients = spec.num_clients;
  fl_config.rounds = scale_.rounds;
  fl_config.local_epochs = scale_.local_epochs;
  fl_config.batch_size = scale_.batch_size;
  fl_config.lr = scale_.lr;
  fl_config.seed = spec.seed;
  fl_config.eval_every = spec.eval_every;
  fl_config.sparse_exchange = spec.sparse_exchange;
  fl_config.sparse_exec_max_density = spec.sparse_exec_max_density;
  fl_config.sparse_training = spec.sparse_training;
  fl_config.parallel_clients = spec.parallel_clients;
  fl_config.clients_per_round = spec.clients_per_round;
  fl_config.sim = spec.sim;
  // Payload codec. Without sparse_exchange there is no serialized wire, so
  // the codec stays disabled and the run is bitwise-identical to "none".
  if (!spec.codec.empty()) {
    fl_config.codec = fl::codec::config_from_name(spec.codec);
    if (spec.quant_bits != 0) fl_config.codec.quant_bits = spec.quant_bits;
    if (spec.topk_frac != 0.0) fl_config.codec.topk_frac = spec.topk_frac;
    if (!spec.sparse_exchange) fl_config.codec = fl::CodecConfig{};
  }
  // Robust aggregation policy + adversary model.
  if (!spec.aggregation.empty()) {
    fl_config.aggregation = fl::aggregation_config_from_name(spec.aggregation);
    if (spec.trim_frac != 0.0) fl_config.aggregation.trim_frac = spec.trim_frac;
    if (spec.clip_tau != 0.0) fl_config.aggregation.clip_tau = spec.clip_tau;
  }
  if (spec.adversary_frac != 0.0 || !spec.adversary_mode.empty()) {
    fl_config.adversary.fraction = spec.adversary_frac;
    fl_config.adversary.mode = fl::adversary_mode_from_name(spec.adversary_mode);
    if (spec.adversary_scale != 0.0) fl_config.adversary.scale = spec.adversary_scale;
  }

  // Plain-trainer construction, honoring the out-of-core fleet when set.
  auto make_plain = [&](nn::Model& m) {
    return fleet ? std::make_unique<fl::FederatedTrainer>(m, fleet, data.test, fl_config)
                 : std::make_unique<fl::FederatedTrainer>(m, data.train, data.test, partitions,
                                                          fl_config);
  };
  const bool plain_method = spec.method == "fedavg" || spec.method == "snip" ||
                            spec.method == "synflow" || spec.method == "flpqsu" ||
                            spec.method == "small_model";
  if (fleet && !plain_method) {
    throw std::invalid_argument("method '" + spec.method +
                                "' needs materialized client data (on_demand_samples_per_client "
                                "supports fedavg/snip/synflow/flpqsu/small_model)");
  }

  if (spec.method == "small_model") {
    int64_t target = spec.small_model_params;
    if (target <= 0) {
      target = static_cast<int64_t>(spec.density * static_cast<double>(model->num_prunable())) +
               (model->num_params() - model->num_prunable());
    }
    const int64_t width = nn::small_cnn_width_for_params(model_config, target);
    auto small = nn::make_small_cnn(model_config, width);
    core::server_pretrain(*small, public_data,
                          {scale_.pretrain_epochs, scale_.batch_size, scale_.lr, 0.9f, 5e-4f,
                           spec.seed});
    auto trainer = make_plain(*small);
    trainer->set_model_factory(
        [model_config, width] { return nn::make_small_cnn(model_config, width); });
    trainer->set_dense_storage(true);
    trainer->capture_global_from_model();
    result.accuracy = trainer->run();
    result.final_density = 1.0;
    auto small_cost = metrics::analyze_model(*small);
    result.max_round_flops = trainer->max_round_flops();
    result.memory_bytes =
        metrics::device_memory(small_cost, 0, true, metrics::ScoreStorage::kNone).total_bytes();
    result.total_comm_bytes = trainer->total_comm_bytes();
    result.sim_time_s = trainer->sim_time_s();
    result.history = trainer->history();
    return result;
  }

  // ---- Server pretraining on D_s (all methods). ----
  core::server_pretrain(
      *model, public_data,
      {scale_.pretrain_epochs, scale_.batch_size, scale_.lr, 0.9f, 5e-4f, spec.seed});

  const auto schedule = spec.schedule_overridden ? spec.schedule : default_schedule(scale_);
  const double d = spec.density;

  // Replica factory for the parallel client pool (same architecture; the
  // trainer overwrites replica weights with the broadcast state).
  nn::ModelFactory factory = [model_config, model_name = spec.model] {
    return model_name == "vgg11" ? nn::make_vgg11(model_config)
                                 : nn::make_resnet18(model_config);
  };

  auto finish = [&](fl::FederatedTrainer& trainer, metrics::ScoreStorage storage,
                    bool dense_stored, int64_t topk_capacity) {
    trainer.set_model_factory(factory);
    result.accuracy = trainer.run();
    result.final_density = trainer.mask().density();
    result.max_round_flops = trainer.max_round_flops();
    result.total_comm_bytes = trainer.total_comm_bytes();
    result.sim_time_s = trainer.sim_time_s();
    result.memory_bytes = metrics::device_memory(dense_cost, trainer.mask().nnz(), dense_stored,
                                                 storage, topk_capacity)
                              .total_bytes();
    result.sparse_round_flops =
        static_cast<double>(scale_.local_epochs) * mean_client *
        dense_cost.sparse_training_flops(trainer.mask().layer_densities());
    result.history = trainer.history();
    if (spec.capture_final) {
      result.final_state = trainer.global_state();
      result.final_mask = trainer.mask();
    }
  };

  if (spec.method == "fedavg") {
    auto trainer = make_plain(*model);
    trainer->set_dense_storage(true);
    finish(*trainer, metrics::ScoreStorage::kNone, true, 0);
  } else if (spec.method == "snip" || spec.method == "synflow" || spec.method == "flpqsu") {
    prune::MaskSet mask;
    if (spec.method == "snip") {
      mask = baselines::snip_initial_mask(*model, public_data, d, 10, scale_.batch_size,
                                          spec.seed);
    } else if (spec.method == "synflow") {
      mask = baselines::synflow_initial_mask(*model, d, 10);
    } else {
      mask = baselines::flpqsu_initial_mask(*model, d);
    }
    auto trainer = make_plain(*model);
    trainer->set_mask(mask);
    finish(*trainer, metrics::ScoreStorage::kNone, false, 0);
  } else if (spec.method == "prunefl") {
    auto mask = baselines::prunefl_initial_mask(*model, d);
    baselines::PruneFLTrainer trainer(*model, data.train, data.test, partitions, fl_config,
                                      schedule);
    trainer.set_mask(mask);
    finish(trainer, metrics::ScoreStorage::kFullDense, false, 0);
  } else if (spec.method == "feddst") {
    auto mask = baselines::random_initial_mask(*model, d, spec.seed);
    baselines::FedDSTTrainer trainer(*model, data.train, data.test, partitions, fl_config,
                                     schedule);
    trainer.set_mask(mask);
    finish(trainer, metrics::ScoreStorage::kTopK, false, 0);
    result.memory_bytes = metrics::device_memory(dense_cost, trainer.mask().nnz(), false,
                                                 metrics::ScoreStorage::kTopK,
                                                 trainer.max_topk_capacity())
                              .total_bytes();
  } else if (spec.method == "lotteryfl") {
    baselines::LotteryFLTrainer trainer(*model, data.train, data.test, partitions, fl_config,
                                        schedule, d);
    finish(trainer, metrics::ScoreStorage::kNone, true, 0);
  } else if (spec.method == "fedtiny" || spec.method == "fedtiny_vanilla" ||
             spec.method == "adaptive_bn" || spec.method == "vanilla") {
    core::FedTinyConfig config;
    config.selection.pool.pool_size =
        spec.pool_size > 0 ? spec.pool_size : default_pool_size(d, scale_);
    config.selection.pool.target_density = d;
    config.selection.batch_size = scale_.batch_size;
    config.selection.seed = spec.seed;
    config.selection.adaptive =
        (spec.method == "fedtiny" || spec.method == "adaptive_bn");
    config.progressive_pruning =
        (spec.method == "fedtiny" || spec.method == "fedtiny_vanilla");
    config.schedule = schedule;
    core::FedTinyTrainer trainer(*model, data.train, data.test, partitions, fl_config, config);
    const auto& report = trainer.initialize();
    result.selection_comm_bytes = report.comm_bytes_per_device;
    result.selection_flops = report.extra_flops_per_device;
    result.selected_candidate = report.selected_candidate;
    finish(trainer, metrics::ScoreStorage::kTopK, false, trainer.max_topk_capacity());
  } else {
    throw std::invalid_argument("unknown method: " + spec.method);
  }
  return result;
}

}  // namespace fedtiny::harness
