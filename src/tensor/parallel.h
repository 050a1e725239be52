// Process-wide execution resources: one thread budget for the whole process.
//
// The Executor holds the single global budget of extra worker threads.
// Coarse-grained pools (independent experiment runs in harness::run_all,
// sampled clients in the federated round loop) take LaneSets from it, and
// fast kernels (GEMM panels, conv data movers) take KernelLanes from it and
// run on the persistent KernelPool. Nested regions (runs x clients x kernel
// bands) acquire lanes from the same budget and degrade to inline execution
// instead of oversubscribing. Every other loop in the engine is serial.
#pragma once

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace fedtiny {

/// Kernel threads outside the Executor budget: always 1. Kept only because
/// the benchmark package (perfbench/src/main.cpp) pins and reports it; goes
/// when that call does.
inline int parallelism() { return 1; }
inline void set_parallelism(int /*ignored*/) {}

/// Strict thread-count parse: the whole text is a base-10 integer >= 0.
/// Returns std::nullopt for empty, malformed ("two", "4x", " 4") or negative
/// text; callers treat empty as unset and warn about the rest.
inline std::optional<int> parse_thread_count(std::string_view text) {
  int n = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), n);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size() || n < 0) {
    return std::nullopt;
  }
  return n;
}

/// Default worker-lane count for coarse-grained pools (experiment runs,
/// client training): hardware threads minus two, at least one.
inline int default_pool_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 2 ? static_cast<int>(hc - 2) : 1;
}

/// The process-wide coarse-grained executor. It does not own threads; it
/// owns the *budget*: the maximum number of extra worker threads that may be
/// alive at once across every LaneSet in the process. A parallel region asks
/// for lanes and receives the caller's thread plus however many extra
/// threads the remaining budget allows — a region nested inside an already
/// saturated pool simply runs inline. Results never depend on how many
/// lanes were granted (work items must be independent and reductions
/// ordered), so the budget is purely a throughput knob.
class Executor {
 public:
  static Executor& instance() {
    static Executor executor;
    return executor;
  }

  /// Maximum extra worker threads alive at once (the caller's thread rides
  /// for free). Defaults to default_pool_workers(); FEDTINY_THREAD_BUDGET (a
  /// non-negative integer) overrides, and a malformed value warns and keeps
  /// the default.
  [[nodiscard]] int thread_budget() const { return budget_.load(std::memory_order_relaxed); }
  void set_thread_budget(int n) { budget_.store(n >= 0 ? n : 0, std::memory_order_relaxed); }
  [[nodiscard]] int threads_in_use() const { return in_use_.load(std::memory_order_relaxed); }

  /// Take up to `want` extra threads from the budget; returns the number
  /// actually granted (possibly 0). Pair with release().
  int acquire(int want) {
    if (want <= 0) return 0;
    int current = in_use_.load(std::memory_order_relaxed);
    while (true) {
      const int available = thread_budget() - current;
      const int take = available < want ? (available > 0 ? available : 0) : want;
      if (take == 0) return 0;
      if (in_use_.compare_exchange_weak(current, current + take, std::memory_order_relaxed)) {
        return take;
      }
    }
  }

  void release(int count) {
    if (count > 0) in_use_.fetch_sub(count, std::memory_order_relaxed);
  }

 private:
  // The Executor owns FEDTINY_THREAD_BUDGET's diagnostic (tensor/ sits below
  // the harness's warn_ambient); the constructor runs once per process.
  Executor() {
    int n = default_pool_workers();
    const char* env = std::getenv("FEDTINY_THREAD_BUDGET");
    if (env != nullptr && *env != '\0') {
      if (const auto parsed = parse_thread_count(env)) {
        n = *parsed;
      } else {
        std::fprintf(stderr,
                     "FEDTINY_THREAD_BUDGET=%s ignored: expected a non-negative integer; "
                     "using %d\n",
                     env, n);
      }
    }
    budget_.store(n, std::memory_order_relaxed);
  }

  std::atomic<int> budget_{0};
  std::atomic<int> in_use_{0};
};

/// RAII share of the executor's budget. Construction acquires up to
/// `max_lanes - 1` extra threads (the caller is always lane 0); destruction
/// returns them. lanes() is known before any work runs, so callers can size
/// per-lane state (e.g. model replicas) to what was actually granted.
class LaneSet {
 public:
  explicit LaneSet(int max_lanes) : extra_(Executor::instance().acquire(max_lanes - 1)) {}
  ~LaneSet() { Executor::instance().release(extra_); }
  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  /// Total lanes including the caller (>= 1).
  [[nodiscard]] int lanes() const { return extra_ + 1; }

  /// Invoke fn(lane, index) for index in [0, n), work-stealing across the
  /// granted lanes (atomic next-index counter); the caller drains as lane 0.
  /// Items must be independent; per-lane state is keyed by the lane argument.
  template <typename Fn>
  void for_each(size_t n, Fn&& fn) {
    if (extra_ == 0 || n <= 1) {
      for (size_t i = 0; i < n; ++i) fn(0, i);
      return;
    }
    std::atomic<size_t> next{0};
    auto drain = [&](int lane) {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        fn(lane, i);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(extra_));
    for (int w = 1; w <= extra_; ++w) threads.emplace_back(drain, w);
    drain(0);
    for (auto& t : threads) t.join();
  }

 private:
  int extra_;
};

/// Convenience wrapper: fn(lane, index) for index in [0, n) on up to
/// `workers` lanes drawn from the executor budget. workers <= 1 runs inline
/// as lane 0.
template <typename Fn>
void worker_pool_for(size_t n, int workers, Fn&& fn) {
  if (workers <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  LaneSet lanes(workers);
  lanes.for_each(n, fn);
}

// ---- Grain-aligned band splitting ------------------------------------------
// The old band split rounded n/threads up, which left the last lane a short
// or empty band on non-divisible sizes (8 items on 3 lanes: 3+3+2 is fine,
// but ceil(n/threads) gave 3+3+2 only by luck — 9 on 4 lanes gave 3+3+3+0).
// These helpers distribute ceil(n/grain) grain-sized units as evenly as
// possible: unit counts per band differ by at most one and no band is empty,
// so every lane gets work whenever there is enough to go around. Band
// boundaries always fall on grain multiples (the last band absorbs the
// sub-grain tail), which the kernels rely on: a grain of kMr keeps GEMM row
// bands identical to the serial band walk for any band count.

struct Band {
  int64_t begin;
  int64_t end;
};

/// Number of grain-aligned bands [0, n) actually splits into when up to
/// `want` are requested: min(want, ceil(n/grain)), at least 1 for n > 0.
inline int64_t band_count(int64_t n, int64_t grain, int64_t want) {
  if (n <= 0) return 0;
  if (grain < 1) grain = 1;
  if (want < 1) want = 1;
  const int64_t units = (n + grain - 1) / grain;
  return want < units ? want : units;
}

/// The b-th of `bands` grain-aligned bands over [0, n) (`bands` must come
/// from band_count for the same n/grain). Bands partition [0, n); sizes
/// differ by at most one grain unit; none is empty.
inline Band band_range(int64_t n, int64_t grain, int64_t bands, int64_t b) {
  if (grain < 1) grain = 1;
  const int64_t units = (n + grain - 1) / grain;
  const int64_t q = units / bands;
  const int64_t r = units % bands;
  const int64_t u0 = b * q + (b < r ? b : r);
  const int64_t u1 = u0 + q + (b < r ? 1 : 0);
  const int64_t hi = u1 * grain;
  return {u0 * grain, hi < n ? hi : n};
}

// ---- Kernel lane pool ------------------------------------------------------

/// Persistent worker pool for kernel-level lanes (the panel-parallel GEMM
/// and the threaded conv data movers). LaneSet spawns a std::thread per
/// region — fine for client-sized coarse work, but a GEMM panel region lasts
/// tens of microseconds, where spawn/join overhead eats the win. The pool
/// parks its workers on a condition variable between jobs, so dispatch is
/// one lock + notify.
///
/// Contract: chunks must be independent; every chunk runs exactly once (on
/// the caller or a worker, work-stealing order) and run() returns only after
/// all chunks completed, with worker writes visible to the caller (the
/// completion handshake goes through the pool mutex). One job at a time: a
/// run() issued while another thread's job is in flight executes inline
/// instead of queueing — kernel results never depend on being granted lanes,
/// mirroring the Executor's nested-region rule.
class KernelPool {
 public:
  static KernelPool& instance() {
    static KernelPool pool;
    return pool;
  }

  using ChunkFn = void (*)(void*, int64_t);

  /// Execute fn(ctx, chunk) for chunk in [0, chunks), the caller draining
  /// alongside up to `extra` pool workers. extra <= 0 runs inline.
  void run(int64_t chunks, int extra, ChunkFn fn, void* ctx) {
    if (chunks <= 0) return;
    if (extra <= 0 || chunks < 2) {
      for (int64_t c = 0; c < chunks; ++c) fn(ctx, c);
      return;
    }
    std::unique_lock<std::mutex> busy(run_mu_, std::try_to_lock);
    if (!busy.owns_lock()) {
      for (int64_t c = 0; c < chunks; ++c) fn(ctx, c);
      return;
    }
    ensure_workers(extra);
    Job job{fn, ctx, chunks, {0}};
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = &job;
      slots_ = extra;
      ++seq_;
    }
    cv_.notify_all();
    drain(job);
    std::unique_lock<std::mutex> lk(mu_);
    slots_ = 0;  // the job is drained; a worker that wakes late must not join
    done_cv_.wait(lk, [&] { return active_ == 0; });
    job_ = nullptr;
  }

  KernelPool(const KernelPool&) = delete;
  KernelPool& operator=(const KernelPool&) = delete;

 private:
  struct Job {
    ChunkFn fn;
    void* ctx;
    int64_t chunks;
    std::atomic<int64_t> next;
  };

  KernelPool() = default;
  ~KernelPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  static void drain(Job& job) {
    while (true) {
      const int64_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.chunks) return;
      job.fn(job.ctx, c);
    }
  }

  void ensure_workers(int want) {
    constexpr int kMaxWorkers = 64;  // backstop; the Executor budget is the real cap
    if (want > kMaxWorkers) want = kMaxWorkers;
    std::lock_guard<std::mutex> lk(mu_);
    while (static_cast<int>(workers_.size()) < want) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void worker_main() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      cv_.wait(lk, [&] { return stop_ || seq_ != seen; });
      if (stop_) return;
      seen = seq_;
      if (slots_ == 0 || job_ == nullptr) continue;  // job full or already done
      --slots_;
      Job* job = job_;
      ++active_;
      lk.unlock();
      drain(*job);
      lk.lock();
      if (--active_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex run_mu_;  // serializes dispatchers; busy => inline fallback
  std::mutex mu_;
  std::condition_variable cv_;       // workers park here between jobs
  std::condition_variable done_cv_;  // the caller waits out joined workers
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  int slots_ = 0;   // workers still allowed to join the current job
  int active_ = 0;  // workers currently inside the current job
  uint64_t seq_ = 0;
  bool stop_ = false;
};

/// RAII extra-lane grant for one fast-kernel call: up to `want` extra lanes
/// from the Executor budget, returned on destruction. Kernels issued from an
/// already saturated pool (nested in client training lanes) get 0 and run
/// inline — the budget never oversubscribes.
class KernelLanes {
 public:
  explicit KernelLanes(int want) : extra_(want > 0 ? Executor::instance().acquire(want) : 0) {}
  ~KernelLanes() { Executor::instance().release(extra_); }
  KernelLanes(const KernelLanes&) = delete;
  KernelLanes& operator=(const KernelLanes&) = delete;

  [[nodiscard]] int extra() const { return extra_; }

 private:
  int extra_;
};

/// Run fn(begin, end) over grain-aligned bands of [0, n) on the caller plus
/// up to `extra` kernel-pool workers. Bands are oversplit ~4x the lane count
/// so work-stealing balances uneven bands; boundaries always fall on grain
/// multiples, so a grain-blocked kernel computes identical per-block results
/// for any lane count (the bitwise-determinism contract).
template <typename Fn>
void pool_for_bands(int64_t n, int64_t grain, int extra, Fn&& fn) {
  if (n <= 0) return;
  const int64_t bands = band_count(n, grain, (static_cast<int64_t>(extra) + 1) * 4);
  if (extra <= 0 || bands <= 1) {
    fn(static_cast<int64_t>(0), n);
    return;
  }
  struct Ctx {
    std::remove_reference_t<Fn>* fn;
    int64_t n, grain, bands;
  } ctx{&fn, n, grain, bands};
  KernelPool::instance().run(
      bands, extra,
      [](void* c, int64_t b) {
        auto* x = static_cast<Ctx*>(c);
        const Band r = band_range(x->n, x->grain, x->bands, b);
        (*x->fn)(r.begin, r.end);
      },
      &ctx);
}

}  // namespace fedtiny
