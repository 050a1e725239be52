#include "training.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fedtiny.h"
#include "core/pretrain.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/codec.h"
#include "fl/payload.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/sequential.h"
#include "nn/sgd.h"
#include "prune/sparse_exec.h"
#include "stats.h"
#include "tensor/kernels.h"

namespace perfbench {

using namespace fedtiny;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

// Experiment::run's default progressive-pruning schedule.
core::PruningSchedule default_schedule(const harness::ScaleConfig& scale) {
  core::PruningSchedule s;
  s.granularity = core::Granularity::kBlock;
  s.backward_order = true;
  s.delta_r = scale.delta_r;
  s.r_stop = scale.r_stop;
  s.num_blocks = 5;
  return s;
}

data::SyntheticSpec data_spec(const harness::ScaleConfig& scale, const harness::RunSpec& spec) {
  return data::spec_by_name(spec.dataset, scale.image_size, scale.train_size, scale.test_size);
}

fl::FLConfig fl_config(const harness::ScaleConfig& scale, const harness::RunSpec& spec) {
  fl::FLConfig c;
  c.num_clients = spec.num_clients;
  c.rounds = scale.rounds;
  c.local_epochs = scale.local_epochs;
  c.batch_size = scale.batch_size;
  c.lr = scale.lr;
  c.seed = spec.seed;
  c.eval_every = spec.eval_every;
  c.sparse_exchange = spec.sparse_exchange;
  c.sparse_exec_max_density = spec.sparse_exec_max_density;
  c.sparse_training = spec.sparse_training;
  c.parallel_clients = spec.parallel_clients;
  c.clients_per_round = spec.clients_per_round;
  c.sim = spec.sim;
  // As in Experiment::run: without sparse exchange there is no wire to encode.
  if (!spec.codec.empty() && spec.sparse_exchange) {
    c.codec = fl::codec::config_from_name(spec.codec);
  }
  return c;
}

// Model configuration Experiment::run uses for `spec` at `scale`.
nn::ModelConfig model_config(const harness::ScaleConfig& scale, const harness::RunSpec& spec) {
  nn::ModelConfig mc;
  mc.num_classes = data_spec(scale, spec).num_classes;
  mc.image_size = scale.image_size;
  mc.width_mult = scale.width_mult;
  mc.seed = spec.seed;
  return mc;
}

std::unique_ptr<nn::Model> make_model(const harness::RunSpec& spec, const nn::ModelConfig& mc) {
  if (spec.model == "resnet18") return nn::make_resnet18(mc);
  if (spec.model == "vgg11") return nn::make_vgg11(mc);
  throw std::invalid_argument("unknown model: " + spec.model);
}

void check_supported(const harness::RunSpec& spec) {
  if (spec.method != "fedtiny") {
    throw std::invalid_argument("the stage runner runs method fedtiny only, not " + spec.method);
  }
  if (spec.on_demand_samples_per_client > 0 || !spec.aggregation.empty() ||
      spec.adversary_frac != 0.0 || !spec.adversary_mode.empty() || spec.quant_bits != 0 ||
      spec.topk_frac != 0.0) {
    throw std::invalid_argument(
        "the stage runner does not reproduce on-demand fleets, robust aggregation, adversaries "
        "or codec overrides");
  }
}

// The leaf kinds the replay times, with their span prefix and fields.
struct TimedKind {
  const char* kind;
  const char* span;
  double LayerTimes::*fwd;
  double LayerTimes::*bwd;
};

constexpr TimedKind kTimedKinds[] = {
    {"Conv2d", "nn.conv2d", &LayerTimes::conv2d_fwd_ms, &LayerTimes::conv2d_bwd_ms},
    {"BatchNorm2d", "nn.batchnorm", &LayerTimes::batchnorm_fwd_ms,
     &LayerTimes::batchnorm_bwd_ms},
    {"Linear", "nn.linear", &LayerTimes::linear_fwd_ms, &LayerTimes::linear_bwd_ms},
};

void relu_inplace(Tensor& t) {
  for (float& v : t.flat()) v = v > 0.0f ? v : 0.0f;
}

// Replays each leaf of a model graph with its own forward(kTrain) and
// backward, adding per-kind times for one batch into `times`.
class LeafReplay {
 public:
  LeafReplay(Rng& rng, Tracer* tracer, LayerTimes& times)
      : rng_(rng), tracer_(tracer), times_(times) {}

  Tensor run(nn::Layer* layer, const Tensor& x) {
    if (auto* seq = dynamic_cast<nn::Sequential*>(layer)) {
      Tensor h = x;
      for (size_t i = 0; i < seq->size(); ++i) h = run(seq->at(i), h);
      return h;
    }
    if (auto* block = dynamic_cast<nn::BasicBlock*>(layer)) {
      // BasicBlock::forward, leaf by leaf (collect_leaves order: conv1, bn1,
      // conv2, bn2, then the projection conv and bn when present).
      std::vector<nn::Layer*> leaves;
      block->collect_leaves(leaves);
      Tensor h = leaf(leaves[0], x);
      h = leaf(leaves[1], h);
      relu_inplace(h);
      h = leaf(leaves[2], h);
      h = leaf(leaves[3], h);
      const Tensor shortcut = leaves.size() == 6 ? leaf(leaves[5], leaf(leaves[4], x)) : x;
      auto hs = h.flat();
      const auto ss = shortcut.flat();
      for (size_t i = 0; i < hs.size(); ++i) hs[i] += ss[i];
      relu_inplace(h);
      return h;
    }
    return leaf(layer, x);
  }

 private:
  Tensor leaf(nn::Layer* layer, const Tensor& x) {
    const std::string kind = layer->kind();
    const TimedKind* timed = nullptr;
    for (const auto& k : kTimedKinds) {
      if (kind == k.kind) timed = &k;
    }
    if (timed == nullptr) return layer->forward(x, nn::Mode::kTrain);
    Tensor out;
    {
      Tracer::Scope span(tracer_, std::string(timed->span) + ".fwd");
      const auto t0 = Clock::now();
      out = layer->forward(x, nn::Mode::kTrain);
      times_.*timed->fwd += ms_since(t0);
    }
    Tensor grad(out.shape());
    for (float& g : grad.flat()) g = rng_.normal(0.0f, 1e-2f);
    {
      Tracer::Scope span(tracer_, std::string(timed->span) + ".bwd");
      const auto t0 = Clock::now();
      (void)layer->backward(grad);
      times_.*timed->bwd += ms_since(t0);
    }
    return out;
  }

  Rng& rng_;
  Tracer* tracer_;
  LayerTimes& times_;
};

}  // namespace

harness::RunSpec fedtiny_workload_spec(bool sparse, uint64_t seed) {
  harness::RunSpec spec;
  spec.method = "fedtiny";
  spec.dataset = "cifar10s";
  spec.model = "resnet18";
  spec.density = 0.01;
  spec.dirichlet_alpha = 0.5;
  spec.seed = seed;
  spec.num_clients = 10;
  spec.kernels = "fast";
  if (sparse) {
    spec.sparse_training = true;
    spec.sparse_exec_max_density = 0.5f;
    spec.sparse_exchange = true;
    spec.codec = "int8";
    spec.parallel_clients = 3;
  } else {
    spec.codec = "none";
    spec.parallel_clients = 1;
  }
  return spec;
}


Setup build_setup(const harness::ScaleConfig& scale, const harness::RunSpec& spec,
                  Tracer* tracer, TrainingTimes& times) {
  Setup s;
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "data.build");
    s.data = data::make_synthetic(data_spec(scale, spec), spec.seed);
    Rng part_rng(spec.seed, /*stream=*/0xd1d1);
    s.partitions = data::dirichlet_partition(s.data.train.labels, spec.num_clients,
                                             spec.dirichlet_alpha, part_rng);
    Rng pub_rng(spec.seed, /*stream=*/0x9b1c);
    auto pub_perm = pub_rng.permutation(s.data.train.size());
    pub_perm.resize(static_cast<size_t>(std::min(scale.public_size, s.data.train.size())));
    s.public_data = s.data.train.subset(pub_perm);
  }
  times.data_s = seconds_since(t0);
  {
    Tracer::Scope span(tracer, "nn.build_model");
    s.model = make_model(spec, model_config(scale, spec));
  }
  times.setup_s = seconds_since(t0);
  return s;
}

TrainingRun run_fedtiny(const harness::ScaleConfig& scale, const harness::RunSpec& spec,
                        Tracer* tracer) {
  check_supported(spec);
  if (!spec.kernels.empty()) kernels::set_mode(kernels::parse_mode(spec.kernels.c_str()));
  TrainingRun run;
  TrainingTimes& t = run.times;
  Setup setup = build_setup(scale, spec, tracer, t);
  nn::Model& model = *setup.model;
  const nn::ModelConfig mc = model_config(scale, spec);

  // ---- Pretraining, BN selection, rounds, evaluation. ----
  const auto model_t0 = Clock::now();
  Tracer::Scope total_span(tracer, "core.time_to_model");
  {
    Tracer::Scope span(tracer, "core.pretrain");
    const auto t0 = Clock::now();
    core::server_pretrain(model, setup.public_data,
                          {scale.pretrain_epochs, scale.batch_size, scale.lr, 0.9f, 5e-4f,
                           spec.seed});
    t.pretrain_s = seconds_since(t0);
  }

  core::FedTinyConfig config;
  config.selection.pool.pool_size =
      spec.pool_size > 0 ? spec.pool_size : harness::default_pool_size(spec.density, scale);
  config.selection.pool.target_density = spec.density;
  config.selection.batch_size = scale.batch_size;
  config.selection.seed = spec.seed;
  config.selection.adaptive = true;
  config.progressive_pruning = true;
  config.schedule = spec.schedule_overridden ? spec.schedule : default_schedule(scale);

  std::unique_ptr<core::FedTinyTrainer> trainer;
  {
    Tracer::Scope span(tracer, "core.bn_selection");
    const auto t0 = Clock::now();
    trainer = std::make_unique<core::FedTinyTrainer>(model, setup.data.train, setup.data.test,
                                                     setup.partitions,
                                                     fl_config(scale, spec), config);
    const auto& report = trainer->initialize();
    t.bn_selection_s = seconds_since(t0);
    run.result.selected_candidate = report.selected_candidate;
  }

  // Replicas the trainer builds, one per granted client lane beyond the
  // first; the factory is called from the round loop's own thread.
  std::atomic<int> replicas{0};
  trainer->set_model_factory([mc, spec, &replicas] {
    replicas.fetch_add(1, std::memory_order_relaxed);
    return make_model(spec, mc);
  });
  {
    Tracer::Scope span(tracer, "fl.rounds");
    const auto t0 = Clock::now();
    run.result.accuracy = trainer->run();
    t.rounds_s = seconds_since(t0);
  }
  {
    Tracer::Scope span(tracer, "fl.eval");
    const auto t0 = Clock::now();
    run.eval_accuracy = trainer->evaluate();
    t.eval_s = seconds_since(t0);
  }
  t.time_to_model_s = seconds_since(model_t0);

  run.result.final_density = trainer->mask().density();
  run.result.total_comm_bytes = trainer->total_comm_bytes();
  run.result.history = trainer->history();
  run.result.final_state = trainer->global_state();
  run.result.final_mask = trainer->mask();
  run.client_lanes = 1 + replicas.load();
  return run;
}

LayerTimes replay_layers(const harness::ScaleConfig& scale, const harness::RunSpec& spec,
                         const TrainingRun& run, int reps, Tracer* tracer) {
  const nn::ModelConfig mc = model_config(scale, spec);
  auto model = make_model(spec, mc);
  model->set_state(run.result.final_state);
  const prune::MaskSet& mask = run.result.final_mask;
  const bool sparse_train = spec.sparse_training && spec.sparse_exec_max_density > 0.0f;

  // The first training batch of the workload's data, at its batch size.
  auto data = data::make_synthetic(data_spec(scale, spec), spec.seed);
  std::vector<int64_t> head(static_cast<size_t>(std::min(scale.batch_size, data.train.size())));
  for (size_t i = 0; i < head.size(); ++i) head[i] = static_cast<int64_t>(i);
  const data::Batch batch = data::gather_batch(data.train, head);

  const fl::FLConfig flc = fl_config(scale, spec);
  nn::SGD sgd({scale.lr, flc.momentum, flc.weight_decay});
  const auto param_masks = mask.for_params(*model);
  Rng grad_rng(spec.seed, /*stream=*/0x1a7e);

  std::vector<LayerTimes> samples;
  for (int r = 0; r < reps; ++r) {
    LayerTimes lt;
    if (sparse_train) {
      // The trainer installs the CSR training path on every client model
      // every round; time a fresh install, then keep it for the replay.
      prune::clear_sparse_execution(*model);
      Tracer::Scope span(tracer, "prune.install_sparse");
      const auto t0 = Clock::now();
      prune::install_sparse_execution(*model, mask, spec.sparse_exec_max_density,
                                      /*train=*/true);
      lt.install_sparse_ms = ms_since(t0);
    }
    LeafReplay(grad_rng, tracer, lt).run(model->root(), batch.x);
    {
      // One step of FederatedTrainer::local_train.
      Tracer::Scope span(tracer, "nn.train_step");
      const auto t0 = Clock::now();
      model->zero_grad();
      Tensor logits = model->forward(batch.x, nn::Mode::kTrain);
      auto loss = nn::softmax_cross_entropy(logits, batch.y);
      model->backward(loss.grad_logits);
      sgd.step_masked(model->params(), param_masks);
      if (sparse_train) prune::refresh_sparse_values(*model);
      lt.train_step_ms = ms_since(t0);
    }
    samples.push_back(lt);
  }

  LayerTimes out;
  for (const auto field :
       {&LayerTimes::conv2d_fwd_ms, &LayerTimes::conv2d_bwd_ms, &LayerTimes::batchnorm_fwd_ms,
        &LayerTimes::batchnorm_bwd_ms, &LayerTimes::linear_fwd_ms, &LayerTimes::linear_bwd_ms,
        &LayerTimes::train_step_ms, &LayerTimes::install_sparse_ms}) {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.*field);
    out.*field = median(std::move(v));
  }
  return out;
}

CodecTimes replay_codec(const harness::ScaleConfig& scale, const harness::RunSpec& spec,
                        const TrainingRun& run, int reps, Tracer* tracer) {
  CodecTimes out;
  const fl::CodecConfig cfg = fl_config(scale, spec).codec;
  if (!cfg.enabled()) return out;
  const auto model = make_model(spec, model_config(scale, spec));
  const auto& prunable = model->prunable_indices();
  const auto& state = run.result.final_state;
  const auto& mask = run.result.final_mask;
  const fl::SparseStatePayload state_payload = fl::build_sparse_state(state, mask, prunable);
  fl::SparseUpdatePayload update_payload = fl::build_sparse_update(state, mask, prunable);
  update_payload.num_samples = 1;

  std::vector<double> enc_s, dec_s, enc_u, dec_u;
  for (int r = 0; r < reps; ++r) {
    std::vector<uint8_t> state_wire;
    {
      Tracer::Scope span(tracer, "fl.codec.encode_state");
      const auto t0 = Clock::now();
      state_wire = fl::codec::encode_state(state_payload, cfg, spec.seed, r);
      enc_s.push_back(ms_since(t0));
    }
    fl::SparseStatePayload decoded_state;
    {
      Tracer::Scope span(tracer, "fl.codec.decode_state");
      const auto t0 = Clock::now();
      out.round_trip_ok &= fl::codec::decode_state(state_wire, decoded_state);
      dec_s.push_back(ms_since(t0));
    }
    // The uplink's delta reference, as FederatedTrainer::round_reference
    // builds it: the decoded broadcast's values at the mask's support, then
    // the dense remainder.
    std::vector<Tensor> broadcast;
    out.round_trip_ok &= fl::reconstruct_state(decoded_state, prunable, broadcast);
    if (!out.round_trip_ok) break;
    auto ref_update = fl::build_sparse_update(broadcast, mask, prunable);
    fl::codec::SupportValues reference;
    for (auto& layer : ref_update.sparse_layers) reference.push_back(std::move(layer.values));
    for (const auto& d : ref_update.dense_tensors) {
      reference.emplace_back(d.flat().begin(), d.flat().end());
    }
    std::vector<uint8_t> update_wire;
    {
      Tracer::Scope span(tracer, "fl.codec.encode_update");
      const auto t0 = Clock::now();
      update_wire = fl::codec::encode_update(update_payload, cfg, spec.seed, r, /*client=*/0,
                                             &reference, /*ef=*/nullptr);
      enc_u.push_back(ms_since(t0));
    }
    fl::SparseUpdatePayload decoded_update;
    {
      Tracer::Scope span(tracer, "fl.codec.decode_update");
      const auto t0 = Clock::now();
      out.round_trip_ok &= fl::codec::decode_update(update_wire, decoded_update, &reference);
      dec_u.push_back(ms_since(t0));
    }
    out.update_bytes = static_cast<double>(update_wire.size());
  }
  out.encode_state_ms = median(enc_s);
  out.decode_state_ms = median(dec_s);
  out.encode_update_ms = median(enc_u);
  out.decode_update_ms = median(dec_u);
  return out;
}

}  // namespace perfbench
