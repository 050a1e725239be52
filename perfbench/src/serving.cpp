#include "serving.h"

#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "data/synthetic.h"
#include "fl/payload.h"
#include "nn/models.h"
#include "prune/magnitude.h"
#include "prune/sparse_exec.h"
#include "serve/server.h"
#include "serve/servable.h"
#include "stats.h"

namespace perfbench {

using namespace fedtiny;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

constexpr double kDensity = 0.01;
constexpr int kOutstanding = 16;     // closed-loop requests in flight
constexpr int kSetupReps = 9;        // set-ups per run (median reported)
constexpr int kPoolSize = 256;       // distinct request inputs
constexpr double kWarmupS = 1.0;     // closed loop before the measured window
constexpr uint32_t kOracleOneIn = 256;  // share of responses checked against the oracle
constexpr double kJobRequests = 4096;   // requests per job (job_s)
const char* const kTier = "d01";

nn::ModelConfig serve_model_config(uint64_t seed) {
  nn::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = 8;
  mc.width_mult = 0.125f;
  mc.seed = seed;
  return mc;
}

serve::ServerConfig server_config(uint64_t seed) {
  serve::ServerConfig sc;
  sc.factory = nn::resnet18_factory(serve_model_config(seed));
  sc.tiers = {kTier};
  sc.workers = 1;
  // Dispatch only full closed-loop batches. With greedy dispatch (min_fill
  // 1) the single worker and the generator race after each batch: the
  // worker either takes the first resubmitted request alone and the other
  // 15 next (mean batch 8), or all 16 at once, and a run stays in whichever
  // mode it falls into, so throughput differed by about 30% between runs.
  sc.batcher.max_batch = 32;
  sc.batcher.min_fill = kOutstanding;
  sc.batcher.max_delay_us = 1000;
  sc.sparse_max_density = 0.5f;
  sc.fuse_conv_relu = true;
  sc.warm_batch = kOutstanding;
  return sc;
}

// The oracle builds the snapshot exactly as the server's publish does, with
// one replica and no warm-up batch.
serve::ServableConfig oracle_config(const serve::ServerConfig& sc) {
  serve::ServableConfig c;
  c.factory = sc.factory;
  c.replicas = 1;
  c.sparse_max_density = sc.sparse_max_density;
  c.fuse_conv_relu = sc.fuse_conv_relu;
  return c;
}

struct Tier {
  std::vector<Tensor> inputs;  // [1, C, H, W] each
  std::string checkpoint;
  std::unique_ptr<serve::InferenceServer> server;
};

// Set-up: request inputs, the magnitude-pruned checkpoint file, a server,
// and the publish of the checkpoint on its tier.
Tier build_tier(uint64_t seed, const std::string& work_dir, Tracer* tracer, double& publish_ms) {
  Tier tier;
  {
    Tracer::Scope span(tracer, "data.build");
    const auto data =
        data::make_synthetic(data::cifar10s_spec(8, kPoolSize, kPoolSize), seed);
    for (int64_t i = 0; i < kPoolSize; ++i) {
      const std::vector<int64_t> idx = {i};
      tier.inputs.push_back(data::gather_batch(data.test, idx).x);
    }
  }
  {
    Tracer::Scope span(tracer, "prune.magnitude_checkpoint");
    auto model = nn::make_resnet18(serve_model_config(seed));
    const auto mask = prune::magnitude_prune_global(*model, kDensity);
    mask.apply(*model);
    const auto payload = fl::build_sparse_state(model->state(), mask, model->prunable_indices());
    tier.checkpoint = work_dir + "/serve_tiny.sparse.bin";
    if (!fl::save_sparse_checkpoint(tier.checkpoint, payload)) {
      throw std::runtime_error("cannot write checkpoint " + tier.checkpoint);
    }
  }
  tier.server = std::make_unique<serve::InferenceServer>(server_config(seed));
  {
    Tracer::Scope span(tracer, "serve.publish");
    const auto t0 = Clock::now();
    if (tier.server->publish_checkpoint(kTier, tier.checkpoint) == 0) {
      throw std::runtime_error("publish_checkpoint rejected " + tier.checkpoint);
    }
    publish_ms = ms_between(t0, Clock::now());
  }
  return tier;
}

struct Pending {
  std::future<serve::InferResult> result;
  Clock::time_point submitted;
  int input = 0;
  bool measured = false;  // submitted inside the measured window
};

struct Checked {
  int input = 0;
  Tensor logits;
};

double median_forward_ms(const serve::ServableModel& model, const Tensor& x, int reps,
                         Tracer* tracer, const char* span_name) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope span(tracer, span_name);
    const auto t0 = Clock::now();
    (void)model.forward(x);
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(ms));
}

}  // namespace

ServeOutcome run_serve_tiny(uint64_t seed, double seconds, const std::string& work_dir,
                            Tracer* tracer) {
  ServeOutcome out;
  std::vector<double> setup_s;
  std::vector<double> publish_ms;
  Tier tier;
  for (int r = 0; r < kSetupReps; ++r) {
    tier = Tier{};  // shut the previous server down outside the timed region
    const auto t0 = Clock::now();
    double pub = 0.0;
    tier = build_tier(seed, work_dir, tracer, pub);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    publish_ms.push_back(pub);
  }
  out.setup_s = median(setup_s);
  out.publish_ms = median(publish_ms);
  serve::InferenceServer& server = *tier.server;
  out.density = server.tier_density(0);

  // ---- Closed loop: one generator keeps kOutstanding requests in flight,
  // replacing each as it completes (oldest first). ----
  Rng pick(seed, /*stream=*/0x5e7e);   // request inputs
  Rng audit(seed, /*stream=*/0xa0d1);  // responses checked against the oracle
  std::deque<Pending> inflight;
  std::vector<double> latency_ms, queue_ms, service_ms;
  double inverse_batch_sum = 0.0;  // sum of 1/batch_size = batches dispatched
  std::vector<Checked> checked;
  const auto start = Clock::now();
  const auto window_start = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(kWarmupS));
  const auto window_end = window_start + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
  auto submit = [&](Clock::time_point now) {
    Pending p;
    p.input = static_cast<int>(pick.uniform_int(kPoolSize));
    p.submitted = Clock::now();
    p.measured = now >= window_start;
    p.result = server.submit_to(kTier, tier.inputs[static_cast<size_t>(p.input)]);
    if (p.measured) ++out.attempted;
    inflight.push_back(std::move(p));
  };
  {
    Tracer::Scope span(tracer, "serve.closed_loop");
    for (int i = 0; i < kOutstanding; ++i) submit(Clock::now());
    while (!inflight.empty()) {
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      serve::InferResult r = p.result.get();
      const auto done = Clock::now();
      if (p.measured) {
        if (!r.ok) {
          ++out.failed;
        } else {
          latency_ms.push_back(ms_between(p.submitted, done));
          queue_ms.push_back(r.queue_ms);
          service_ms.push_back(r.total_ms - r.queue_ms);
          inverse_batch_sum += 1.0 / static_cast<double>(r.batch_size);
          if (audit.next_u32() % kOracleOneIn == 0) checked.push_back({p.input, r.logits});
        }
      }
      if (done < window_end) submit(done);
    }
  }
  const double window_s =
      std::chrono::duration<double>(std::max(Clock::now(), window_end) - window_start).count();
  server.shutdown();

  out.samples = latency_ms.size();
  out.checkpoint_bytes = static_cast<double>(std::filesystem::file_size(tier.checkpoint));
  out.qps = static_cast<double>(out.samples) / window_s;
  out.job_s = kJobRequests / out.qps;
  out.mean_ms = mean(latency_ms);
  out.p50_ms = percentile(latency_ms, 50.0);
  out.p99_ms = percentile(latency_ms, 99.0);
  out.tail_percentile = highest_supported_percentile(latency_ms.size());
  out.tail_ms = percentile(latency_ms, out.tail_percentile);
  out.queue_p50_ms = percentile(queue_ms, 50.0);
  out.queue_p99_ms = percentile(queue_ms, 99.0);
  out.service_p50_ms = percentile(service_ms, 50.0);
  out.mean_batch = inverse_batch_sum > 0.0 ? static_cast<double>(out.samples) / inverse_batch_sum
                                           : 0.0;

  // ---- Oracle: single-threaded batch-1 forwards of the same checkpoint.
  // Batch invariance makes a served row bitwise equal to this. ----
  const auto oracle =
      serve::ServableModel::load(tier.checkpoint, oracle_config(server_config(seed)), 0);
  if (oracle == nullptr) throw std::runtime_error("oracle cannot load " + tier.checkpoint);
  for (const auto& c : checked) {
    const Tensor expect = oracle->forward(tier.inputs[static_cast<size_t>(c.input)]);
    ++out.oracle_checked;
    if (expect.numel() != c.logits.numel() ||
        std::memcmp(expect.data(), c.logits.data(),
                    sizeof(float) * static_cast<size_t>(expect.numel())) != 0) {
      ++out.oracle_mismatches;
    }
  }
  out.failed += out.oracle_mismatches;

  if (tracer != nullptr) {
    // Single forwards at the two batch sizes the loop serves between.
    std::vector<int64_t> idx(kOutstanding);
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int64_t>(i);
    const auto data = data::make_synthetic(data::cifar10s_spec(8, kPoolSize, kPoolSize), seed);
    const Tensor b16 = data::gather_batch(data.test, idx).x;
    (void)oracle->forward(b16);  // size the workspaces
    out.eval_forward_b1_ms = median_forward_ms(*oracle, tier.inputs[0], 200, tracer,
                                               "nn.eval_forward.b1");
    out.eval_forward_b16_ms =
        median_forward_ms(*oracle, b16, 50, tracer, "nn.eval_forward.b16");

    // The CSR install that publish performs, on the checkpoint's state.
    fl::SparseStatePayload payload;
    if (!fl::load_sparse_checkpoint(tier.checkpoint, payload)) {
      throw std::runtime_error("cannot reload " + tier.checkpoint);
    }
    auto model = nn::make_resnet18(serve_model_config(seed));
    std::vector<Tensor> state;
    if (!fl::reconstruct_state(payload, model->prunable_indices(), state) ||
        !model->try_set_state(state)) {
      throw std::runtime_error("checkpoint does not fit the model");
    }
    const auto mask = fl::payload_mask(payload);
    std::vector<double> ms;
    for (int r = 0; r < 20; ++r) {
      prune::clear_sparse_execution(*model);
      Tracer::Scope span(tracer, "prune.install_sparse");
      const auto t0 = Clock::now();
      prune::install_sparse_execution(*model, mask, server_config(seed).sparse_max_density);
      ms.push_back(ms_between(t0, Clock::now()));
    }
    out.install_sparse_ms = median(std::move(ms));
  }
  return out;
}

}  // namespace perfbench
