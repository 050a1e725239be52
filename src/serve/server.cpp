#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "tensor/parallel.h"

namespace fedtiny::serve {

namespace {

double ms_between(ServeClock::time_point from, ServeClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

int argmax_row(const float* row, int64_t n) {
  int best = 0;
  for (int64_t j = 1; j < n; ++j) {
    if (row[j] > row[best]) best = static_cast<int>(j);
  }
  return best;
}

}  // namespace

int route_by_budget(std::span<const double> est_ms, double budget_ms) {
  if (est_ms.empty()) return -1;
  if (budget_ms <= 0.0) return 0;
  int cheapest = 0;
  for (size_t i = 0; i < est_ms.size(); ++i) {
    if (est_ms[i] <= 0.0 || est_ms[i] <= budget_ms) return static_cast<int>(i);
    if (est_ms[i] < est_ms[static_cast<size_t>(cheapest)]) cheapest = static_cast<int>(i);
  }
  return cheapest;
}

InferenceServer::InferenceServer(ServerConfig config)
    : config_(std::move(config)), batcher_(config_.batcher) {
  if (config_.tiers.empty()) config_.tiers.push_back("default");
  tiers_.reserve(config_.tiers.size());
  for (const auto& name : config_.tiers) {
    tiers_.push_back(std::make_unique<Tier>());
    tiers_.back()->name = name;
  }
  // One worker stands in for the submitters' lane; extras come out of the
  // process-wide Executor budget and go back at shutdown, so serving composes
  // with kernel lanes instead of oversubscribing the machine.
  const int want = std::max(1, config_.workers);
  granted_ = Executor::instance().acquire(want - 1);
  const int workers = 1 + granted_;
  threads_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::shutdown() {
  if (down_) return;
  down_ = true;
  batcher_.close();
  for (auto& t : threads_) t.join();
  Executor::instance().release(granted_);
  granted_ = 0;
}

uint64_t InferenceServer::publish(const std::string& tier, const fl::SparseStatePayload& payload) {
  const int idx = tier_index(tier);
  if (idx < 0) return 0;
  // Version numbers are allocated before the build, so concurrent publishes
  // to different tiers stay monotone; a rejected payload burns its number
  // (gaps are fine — versions order snapshots, they do not count them).
  const uint64_t version = next_version_.fetch_add(1) + 1;
  ServableConfig sc;
  sc.factory = config_.factory;
  sc.replicas = workers();
  sc.sparse_max_density = config_.sparse_max_density;
  sc.fuse_conv_relu = config_.fuse_conv_relu;
  sc.retain_workspaces = true;
  sc.warm_batch = config_.warm_batch;
  auto snap = ServableModel::from_payload(payload, sc, version);
  if (snap == nullptr) return 0;
  auto& t = *tiers_[static_cast<size_t>(idx)];
  t.density.store(snap->density(), std::memory_order_relaxed);
  t.registry.publish(std::move(snap));
  stats_.record_swap();
  return version;
}

uint64_t InferenceServer::publish_checkpoint(const std::string& tier, const std::string& path) {
  fl::SparseStatePayload payload;
  if (!fl::load_sparse_checkpoint(path, payload)) return 0;
  return publish(tier, payload);
}

std::future<InferResult> InferenceServer::failed_future() {
  std::promise<InferResult> p;
  p.set_value(InferResult{});
  return p.get_future();
}

std::future<InferResult> InferenceServer::submit(Tensor input, double budget_ms) {
  // Candidates: published tiers, kept in config (quality) order.
  std::vector<int> cand;
  std::vector<double> est;
  cand.reserve(tiers_.size());
  est.reserve(tiers_.size());
  for (size_t i = 0; i < tiers_.size(); ++i) {
    if (tiers_[i]->density.load(std::memory_order_relaxed) >= 0.0) {
      cand.push_back(static_cast<int>(i));
      est.push_back(tiers_[i]->ewma_ms.load(std::memory_order_relaxed));
    }
  }
  const int pick = route_by_budget(est, budget_ms);
  if (pick < 0) {
    stats_.record_failed();
    return failed_future();
  }
  return submit_tier(cand[static_cast<size_t>(pick)], std::move(input));
}

std::future<InferResult> InferenceServer::submit_to(const std::string& tier, Tensor input) {
  const int idx = tier_index(tier);
  if (idx < 0) {
    stats_.record_failed();
    return failed_future();
  }
  return submit_tier(idx, std::move(input));
}

std::future<InferResult> InferenceServer::submit_tier(int tier, Tensor input) {
  InferRequest req;
  req.input = std::move(input);
  req.tier = tier;
  req.enqueued = ServeClock::now();
  auto future = req.done.get_future();
  if (!batcher_.enqueue(std::move(req))) {
    // Shut down: the batcher refused without consuming, so the promise is
    // still ours — fail the request instead of dropping it silently.
    InferResult r;
    r.tier = tier;
    stats_.record_failed();
    req.done.set_value(std::move(r));
  }
  return future;
}

int InferenceServer::tier_index(const std::string& name) const {
  for (size_t i = 0; i < tiers_.size(); ++i) {
    if (tiers_[i]->name == name) return static_cast<int>(i);
  }
  return -1;
}

double InferenceServer::tier_latency_estimate_ms(int tier) const {
  if (tier < 0 || tier >= num_tiers()) return 0.0;
  return tiers_[static_cast<size_t>(tier)]->ewma_ms.load(std::memory_order_relaxed);
}

double InferenceServer::tier_density(int tier) const {
  if (tier < 0 || tier >= num_tiers()) return -1.0;
  return tiers_[static_cast<size_t>(tier)]->density.load(std::memory_order_relaxed);
}

uint64_t InferenceServer::tier_served(int tier) const {
  if (tier < 0 || tier >= num_tiers()) return 0;
  return tiers_[static_cast<size_t>(tier)]->served.load(std::memory_order_relaxed);
}

void InferenceServer::worker_main() {
  for (;;) {
    auto batch = batcher_.take_batch();
    if (batch.empty()) return;  // closed and drained
    serve_batch(std::move(batch));
  }
}

void InferenceServer::serve_batch(std::vector<InferRequest> batch) {
  const auto dispatched = ServeClock::now();
  auto& tier = *tiers_[static_cast<size_t>(batch.front().tier)];
  const auto snap = tier.registry.current();

  // Split usable requests from rejects (no snapshot on the tier yet, or an
  // input that does not match the snapshot's geometry).
  std::vector<size_t> good;
  good.reserve(batch.size());
  int64_t sample_numel = 0;
  if (snap != nullptr) {
    const auto& in = snap->input_shape();
    sample_numel = in[0] * in[1] * in[2];
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tensor& x = batch[i].input;
      const bool shape_ok = (x.rank() == 3 && x.numel() == sample_numel) ||
                            (x.rank() == 4 && x.dim(0) == 1 && x.numel() == sample_numel);
      if (shape_ok) good.push_back(i);
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (std::find(good.begin(), good.end(), i) != good.end()) continue;
    InferResult r;
    r.tier = batch[i].tier;
    r.total_ms = ms_between(batch[i].enqueued, ServeClock::now());
    stats_.record_failed();
    batch[i].done.set_value(std::move(r));
  }
  if (good.empty()) return;

  // One batched forward for the whole micro-batch; the per-request rows are
  // bitwise-equal to batch-1 forwards (the batched conv pipeline's row
  // invariant), so micro-batching is invisible to correctness.
  const auto& in = snap->input_shape();
  const auto n = static_cast<int64_t>(good.size());
  Tensor x({n, in[0], in[1], in[2]});
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(x.data() + i * sample_numel, batch[good[static_cast<size_t>(i)]].input.data(),
                sizeof(float) * static_cast<size_t>(sample_numel));
  }
  Tensor logits = snap->forward(x);
  const auto finished = ServeClock::now();
  const int64_t classes = logits.dim(1);

  // Counters are updated before each response is published, so a caller
  // that has its result also sees it counted.
  tier.served.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  double sum_ms = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    auto& req = batch[good[static_cast<size_t>(i)]];
    InferResult r;
    r.logits = Tensor({classes});
    std::memcpy(r.logits.data(), logits.data() + i * classes,
                sizeof(float) * static_cast<size_t>(classes));
    r.predicted = argmax_row(r.logits.data(), classes);
    r.version = snap->version();
    r.tier = req.tier;
    r.batch_size = n;
    r.queue_ms = ms_between(req.enqueued, dispatched);
    r.total_ms = ms_between(req.enqueued, finished);
    r.ok = true;
    sum_ms += r.total_ms;
    stats_.record_served(r.total_ms);
    req.done.set_value(std::move(r));
  }
  stats_.record_batch(n);

  // Served-latency EWMA feeds route_by_budget. Benignly racy between
  // workers (both observed real latencies; last store wins).
  const double mean = sum_ms / static_cast<double>(n);
  const double old = tier.ewma_ms.load(std::memory_order_relaxed);
  tier.ewma_ms.store(old <= 0.0 ? mean : 0.8 * old + 0.2 * mean, std::memory_order_relaxed);
}

}  // namespace fedtiny::serve
