#include "tensor/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

namespace fedtiny {
namespace {

// ---- FEDTINY_THREAD_BUDGET / FEDTINY_WORKERS parsing -------------------------

TEST(ThreadCount, ParsesWholeNonNegativeIntegers) {
  EXPECT_EQ(parse_thread_count("0"), 0);
  EXPECT_EQ(parse_thread_count("3"), 3);
  EXPECT_EQ(parse_thread_count("64"), 64);
  EXPECT_EQ(parse_thread_count("007"), 7);
}

TEST(ThreadCount, RejectsMalformedNegativeAndEmptyText) {
  // "two" must not read as 0 (a serial process), nor "4x" as 4.
  for (const char* text : {"two", "4x", " 4", "4 ", "+4", "1.5", "0x4", "99999999999", "-1", "-12",
                           ""}) {
    EXPECT_EQ(parse_thread_count(text), std::nullopt) << "'" << text << "'";
  }
}

TEST(Executor, BudgetAccountingRoundTrips) {
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  ex.set_thread_budget(3);
  EXPECT_EQ(ex.thread_budget(), 3);
  const int got = ex.acquire(5);
  EXPECT_EQ(got, 3);  // clamped to the budget
  EXPECT_EQ(ex.threads_in_use(), 3);
  EXPECT_EQ(ex.acquire(1), 0);  // exhausted
  ex.release(got);
  EXPECT_EQ(ex.threads_in_use(), 0);
  ex.set_thread_budget(before);
}

TEST(Executor, LaneSetCoversAllIndicesExactlyOnce) {
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  ex.set_thread_budget(3);
  {
    LaneSet lanes(4);
    EXPECT_EQ(lanes.lanes(), 4);  // caller + 3 granted
    std::vector<std::atomic<int>> hits(200);
    std::vector<std::atomic<int>> lane_hits(8);
    lanes.for_each(200, [&](int lane, size_t i) {
      hits[i].fetch_add(1);
      lane_hits[static_cast<size_t>(lane)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    for (size_t lane = 4; lane < lane_hits.size(); ++lane) {
      EXPECT_EQ(lane_hits[lane].load(), 0);  // only granted lanes run
    }
  }
  EXPECT_EQ(ex.threads_in_use(), 0);  // RAII released
  ex.set_thread_budget(before);
}

TEST(Executor, NestedLaneSetsDegradeToInlineInsteadOfOversubscribing) {
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  ex.set_thread_budget(2);
  LaneSet outer(3);
  EXPECT_EQ(outer.lanes(), 3);
  {
    LaneSet inner(4);  // budget exhausted: caller lane only
    EXPECT_EQ(inner.lanes(), 1);
    std::vector<int> lanes_seen;
    inner.for_each(5, [&](int lane, size_t) { lanes_seen.push_back(lane); });
    EXPECT_EQ(lanes_seen, (std::vector<int>{0, 0, 0, 0, 0}));  // inline, ordered
  }
  ex.set_thread_budget(before);
}

TEST(Executor, ZeroBudgetStillRunsInline) {
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  ex.set_thread_budget(0);
  bool ran = false;
  worker_pool_for(3, 8, [&](int lane, size_t) {
    EXPECT_EQ(lane, 0);
    ran = true;
  });
  EXPECT_TRUE(ran);
  ex.set_thread_budget(before);
}

TEST(Parallel, WorkerPoolCoversAllIndices) {
  std::vector<std::atomic<int>> hits(64);
  worker_pool_for(64, 4, [&](int /*lane*/, size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---- Grain-aligned band splitter (kernel lanes) -----------------------------

TEST(Bands, SplitterCoversExactlyOnceOnAwkwardShapes) {
  // Exhaustive sweep over shapes that historically break even splitters:
  // n < grain, n barely over a band boundary, prime n, n == grain * want.
  for (int64_t n : {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 61, 64, 65, 100, 257}) {
    for (int64_t grain : {1, 3, 4, 16}) {
      for (int64_t want : {1, 2, 3, 5, 8, 16}) {
        const int64_t bands = band_count(n, grain, want);
        ASSERT_GE(bands, 1) << n << "/" << grain << "/" << want;
        ASSERT_LE(bands, want);
        ASSERT_LE(bands, (n + grain - 1) / grain);  // no empty band possible
        int64_t expect_begin = 0;
        for (int64_t b = 0; b < bands; ++b) {
          const Band r = band_range(n, grain, bands, b);
          ASSERT_EQ(r.begin, expect_begin) << "gap/overlap at band " << b;
          ASSERT_LT(r.begin, r.end) << "empty band " << b << " of " << bands
                                    << " (n " << n << " grain " << grain << ")";
          ASSERT_EQ(r.begin % grain, 0) << "band start off grain";
          if (b + 1 < bands) {
            ASSERT_EQ(r.end % grain, 0) << "interior boundary off grain";
          }
          expect_begin = r.end;
        }
        ASSERT_EQ(expect_begin, n) << "bands do not cover [0, n)";
      }
    }
  }
}

TEST(Bands, ZeroAndNegativeWorkProduceNoBands) {
  EXPECT_EQ(band_count(0, 4, 8), 0);
  EXPECT_EQ(band_count(-5, 4, 8), 0);
}

TEST(Bands, SizesDifferByAtMostOneGrainUnit) {
  const int64_t n = 103, grain = 4;
  const int64_t bands = band_count(n, grain, 8);
  int64_t min_units = INT64_MAX, max_units = 0;
  for (int64_t b = 0; b < bands; ++b) {
    const Band r = band_range(n, grain, bands, b);
    const int64_t units = (r.end - r.begin + grain - 1) / grain;
    min_units = std::min(min_units, units);
    max_units = std::max(max_units, units);
  }
  EXPECT_LE(max_units - min_units, 1);
}

// ---- KernelPool / pool_for_bands --------------------------------------------

TEST(KernelPool, RunCoversEveryChunkExactlyOnce) {
  std::vector<std::atomic<int>> hits(37);
  struct Ctx {
    std::vector<std::atomic<int>>* hits;
  } ctx{&hits};
  KernelPool::instance().run(
      37, 3, [](void* c, int64_t i) { (*static_cast<Ctx*>(c)->hits)[static_cast<size_t>(i)]++; },
      &ctx);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(KernelPool, InlineWhenNoExtraLanes) {
  struct Ctx {
    std::vector<int64_t> order;
  } ctx;
  KernelPool::instance().run(
      5, 0, [](void* c, int64_t i) { static_cast<Ctx*>(c)->order.push_back(i); }, &ctx);
  EXPECT_EQ(ctx.order, (std::vector<int64_t>{0, 1, 2, 3, 4}));  // caller, in order
}

TEST(KernelPool, ReusableAcrossManyRuns) {
  // The pool parks workers between regions; hammer it to catch handshake
  // bugs (a lost wakeup or a stale job pointer hangs or crashes this loop).
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    struct Ctx {
      std::atomic<int64_t>* sum;
    } ctx{&sum};
    KernelPool::instance().run(
        16, 2, [](void* c, int64_t i) { static_cast<Ctx*>(c)->sum->fetch_add(i); }, &ctx);
    ASSERT_EQ(sum.load(), 16 * 15 / 2);
  }
}

TEST(PoolForBands, CoversAllIndicesAtAnyLaneCount) {
  for (int extra : {0, 1, 3, 7}) {
    for (int64_t n : {1, 5, 64, 101}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      pool_for_bands(n, 4, extra, [&](int64_t b0, int64_t b1) {
        ASSERT_EQ(b0 % 4, 0);  // grain-aligned starts, per the contract
        for (int64_t i = b0; i < b1; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
      });
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "extra " << extra << " n " << n << " idx " << i;
      }
    }
  }
}

TEST(PoolForBands, ZeroWorkNeverInvokes) {
  bool touched = false;
  pool_for_bands(0, 4, 3, [&](int64_t, int64_t) { touched = true; });
  EXPECT_FALSE(touched);
}

}  // namespace
}  // namespace fedtiny
