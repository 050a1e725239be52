// Tests of the benchmark itself: its stage runner against the harness, its
// percentile helper, and its span self-time computation.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness/experiment.h"
#include "stats.h"
#include "tensor/parallel.h"
#include "trace.h"
#include "training.h"

namespace perfbench {
namespace {

// The tiny preset with fewer pretraining epochs and rounds, so one FedTiny
// run takes a second or two; the pruning schedule still runs (r_stop <
// rounds) and the final rounds still train at the target density.
harness::ScaleConfig short_scale() {
  harness::ScaleConfig s = harness::ScaleConfig::tiny();
  s.pretrain_epochs = 2;
  s.rounds = 4;
  s.r_stop = 3;
  return s;
}

void expect_stages_match_harness(bool sparse) {
  const harness::ScaleConfig scale = short_scale();
  const harness::RunSpec spec = fedtiny_workload_spec(sparse, 3);
  const harness::RunResult want = harness::Experiment(scale).run(spec);
  const TrainingRun got = run_fedtiny(scale, spec, nullptr);
  EXPECT_EQ(got.result.accuracy, want.accuracy);
  EXPECT_EQ(got.result.final_density, want.final_density);
  EXPECT_EQ(got.result.total_comm_bytes, want.total_comm_bytes);
  EXPECT_EQ(got.result.selected_candidate, want.selected_candidate);
  EXPECT_EQ(got.eval_accuracy, got.result.accuracy);
  ASSERT_EQ(got.result.history.size(), want.history.size());
}

TEST(PerfbenchStages, SerialReproducesExperimentRun) {
  fedtiny::Executor::instance().set_thread_budget(0);
  expect_stages_match_harness(/*sparse=*/false);
}

TEST(PerfbenchStages, SparseInt8ReproducesExperimentRun) {
  fedtiny::Executor::instance().set_thread_budget(2);
  expect_stages_match_harness(/*sparse=*/true);
}

TEST(PerfbenchStages, RejectsMethodsItDoesNotReproduce) {
  harness::RunSpec spec = fedtiny_workload_spec(false, 1);
  spec.method = "snip";
  EXPECT_THROW(run_fedtiny(short_scale(), spec, nullptr), std::invalid_argument);
}

TEST(PerfbenchStats, HighestSupportedPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(9), 0.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(100000), 99.99);
  for (const size_t n : {20u, 100u, 1000u, 4321u, 10000u}) {
    EXPECT_GE(samples_beyond(n, highest_supported_percentile(n)), 10u) << n;
  }
}

TEST(PerfbenchStats, NearestRankPercentileAndMedian) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(median(v), 50.5);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(mean(v), 50.5);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(PerfbenchTrace, SelfTimeSubtractsTheUnionOfClippedChildren) {
  // Root [0, 100] with children [10, 30] and [20, 40] (overlapping) and
  // [90, 120] (overrunning the parent); a grandchild [12, 14] under the
  // first child.
  const std::vector<Span> spans = {
      {"root", 0, 100, -1}, {"a", 10, 30, 0}, {"b", 20, 40, 0},
      {"c", 90, 120, 0},    {"a.x", 12, 14, 1},
  };
  const auto self = self_times_us(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 30.0 - 10.0);  // covered: [10, 40] and [90, 100]
  EXPECT_DOUBLE_EQ(self[1], 20.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[2], 20.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 2.0);
}

TEST(PerfbenchTrace, TracerNestsSpansByOpenOrder) {
  Tracer tracer;
  {
    Tracer::Scope outer(&tracer, "outer");
    { Tracer::Scope inner(&tracer, "inner"); }
    { Tracer::Scope second(&tracer, "second"); }
  }
  { Tracer::Scope after(&tracer, "after"); }
  const auto& s = tracer.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, -1);
  for (const auto& span : s) EXPECT_GE(span.end_us, span.start_us);
  const auto self = self_times_us(s);
  EXPECT_LE(self[0], s[0].duration_us());
  EXPECT_GE(self[0], 0.0);
  // A null tracer records nothing and does not crash.
  { Tracer::Scope none(nullptr, "ignored"); }
}

}  // namespace
}  // namespace perfbench
