// The RunSpec knob table: surface preservation (every environment variable
// and CLI flag maps to the same RunSpec member it always did), the
// explicit-wins rule, strict parsing, and the ambient-warning policy.
#include "harness/knobs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/scale.h"
#include "tensor/kernels.h"

namespace fedtiny::harness {
namespace {

using MemberOf = const void* (*)(RunSpec&);
struct Expected {
  const char* member;
  MemberOf address;
};
#define MEMBER(m) Expected{#m, [](RunSpec& s) -> const void* { return &s.m; }}

// The 28 variables with_env_knobs read before the table existed.
const std::map<std::string, Expected> kEnvSurface = {
    {"FEDTINY_SPARSE_EXCHANGE", MEMBER(sparse_exchange)},
    {"FEDTINY_SPARSE_EXEC", MEMBER(sparse_exec_max_density)},
    {"FEDTINY_SPARSE_TRAINING", MEMBER(sparse_training)},
    {"FEDTINY_PARALLEL_CLIENTS", MEMBER(parallel_clients)},
    {"FEDTINY_KERNELS", MEMBER(kernels)},
    {"FEDTINY_CODEC", MEMBER(codec)},
    {"FEDTINY_QUANT_BITS", MEMBER(quant_bits)},
    {"FEDTINY_TOPK_FRAC", MEMBER(topk_frac)},
    {"FEDTINY_AGGREGATION", MEMBER(aggregation)},
    {"FEDTINY_TRIM_FRAC", MEMBER(trim_frac)},
    {"FEDTINY_CLIP_TAU", MEMBER(clip_tau)},
    {"FEDTINY_ADVERSARY_FRAC", MEMBER(adversary_frac)},
    {"FEDTINY_ADVERSARY_MODE", MEMBER(adversary_mode)},
    {"FEDTINY_ADVERSARY_SCALE", MEMBER(adversary_scale)},
    {"FEDTINY_CLIENTS_PER_ROUND", MEMBER(clients_per_round)},
    {"FEDTINY_ON_DEMAND_SAMPLES", MEMBER(on_demand_samples_per_client)},
    {"FEDTINY_SIM_DEVICE_FLOPS", MEMBER(sim.device_flops_per_s)},
    {"FEDTINY_SIM_BANDWIDTH", MEMBER(sim.bandwidth_bps)},
    {"FEDTINY_SIM_LATENCY", MEMBER(sim.latency_s)},
    {"FEDTINY_SIM_HET", MEMBER(sim.het_spread)},
    {"FEDTINY_SIM_STRAGGLERS", MEMBER(sim.straggler_fraction)},
    {"FEDTINY_SIM_SLOWDOWN", MEMBER(sim.straggler_slowdown)},
    {"FEDTINY_SIM_AVAILABILITY", MEMBER(sim.availability)},
    {"FEDTINY_SIM_DROPOUT", MEMBER(sim.dropout)},
    {"FEDTINY_SIM_DEADLINE", MEMBER(sim.deadline_s)},
    {"FEDTINY_ASYNC", MEMBER(sim.async_rounds)},
    {"FEDTINY_ASYNC_M", MEMBER(sim.async_aggregate_m)},
    {"FEDTINY_STALENESS_ALPHA", MEMBER(sim.staleness_alpha)},
};

// The 35 knob flags fedtiny_cli accepted before the table existed
// (--save-prefix and --help are not knobs).
const std::map<std::string, Expected> kFlagSurface = {
    {"--method", MEMBER(method)},
    {"--dataset", MEMBER(dataset)},
    {"--model", MEMBER(model)},
    {"--density", MEMBER(density)},
    {"--alpha", MEMBER(dirichlet_alpha)},
    {"--seed", MEMBER(seed)},
    {"--pool", MEMBER(pool_size)},
    {"--num-clients", MEMBER(num_clients)},
    {"--clients-per-round", MEMBER(clients_per_round)},
    {"--workers", MEMBER(parallel_clients)},
    {"--sparse-exchange", MEMBER(sparse_exchange)},
    {"--sparse-exec", MEMBER(sparse_exec_max_density)},
    {"--sparse-train", MEMBER(sparse_training)},
    {"--kernels", MEMBER(kernels)},
    {"--codec", MEMBER(codec)},
    {"--quant-bits", MEMBER(quant_bits)},
    {"--topk-frac", MEMBER(topk_frac)},
    {"--aggregation", MEMBER(aggregation)},
    {"--trim-frac", MEMBER(trim_frac)},
    {"--clip-tau", MEMBER(clip_tau)},
    {"--adversary-frac", MEMBER(adversary_frac)},
    {"--adversary-mode", MEMBER(adversary_mode)},
    {"--adversary-scale", MEMBER(adversary_scale)},
    {"--sim-device-flops", MEMBER(sim.device_flops_per_s)},
    {"--sim-bandwidth", MEMBER(sim.bandwidth_bps)},
    {"--sim-latency", MEMBER(sim.latency_s)},
    {"--sim-het", MEMBER(sim.het_spread)},
    {"--sim-stragglers", MEMBER(sim.straggler_fraction)},
    {"--sim-slowdown", MEMBER(sim.straggler_slowdown)},
    {"--availability", MEMBER(sim.availability)},
    {"--dropout", MEMBER(sim.dropout)},
    {"--deadline", MEMBER(sim.deadline_s)},
    {"--async", MEMBER(sim.async_rounds)},
    {"--async-m", MEMBER(sim.async_aggregate_m)},
    {"--staleness-alpha", MEMBER(sim.staleness_alpha)},
};

#undef MEMBER

const void* address_of(const Knob& knob, RunSpec& spec) {
  return std::visit([](auto* p) -> const void* { return p; }, knob.field(spec));
}

void expect_surface(const std::map<std::string, Expected>& want, const char* Knob::*name) {
  RunSpec spec;
  std::map<std::string, const Knob*> got;
  for (const Knob& knob : knobs()) {
    if (knob.*name != nullptr) EXPECT_TRUE(got.emplace(knob.*name, &knob).second) << knob.*name;
  }
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [key, expected] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << key << " is missing from the knob table";
    EXPECT_STREQ(it->second->member, expected.member) << key;
    EXPECT_EQ(address_of(*it->second, spec), expected.address(spec)) << key;
  }
  for (const auto& [key, knob] : got) EXPECT_EQ(want.count(key), 1u) << key << " is new";
}

TEST(Knobs, EnvSurfaceIsUnchanged) { expect_surface(kEnvSurface, &Knob::env); }

TEST(Knobs, FlagSurfaceIsUnchanged) { expect_surface(kFlagSurface, &Knob::flag); }

TEST(Knobs, EveryMemberHasOneKnob) {
  RunSpec spec;
  std::map<const void*, std::string> seen;
  for (const Knob& knob : knobs()) {
    EXPECT_TRUE(seen.emplace(address_of(knob, spec), knob.member).second) << knob.member;
    EXPECT_TRUE(knob.env != nullptr || knob.flag != nullptr) << knob.member;
  }
}

/// Clears every knob variable for the test's duration (CI jobs export some
/// for whole ctest runs) and restores them afterwards.
class KnobEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const Knob& knob : knobs()) {
      if (knob.env == nullptr) continue;
      const char* v = std::getenv(knob.env);
      saved_.emplace_back(knob.env, v != nullptr ? std::optional<std::string>(v) : std::nullopt);
      unsetenv(knob.env);
    }
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value) {
        setenv(name.c_str(), value->c_str(), 1);
      } else {
        unsetenv(name.c_str());
      }
    }
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST_F(KnobEnv, ExplicitValuesSurviveConflictingEnv) {
  setenv("FEDTINY_SPARSE_EXCHANGE", "0", 1);
  setenv("FEDTINY_PARALLEL_CLIENTS", "1", 1);
  setenv("FEDTINY_SIM_BANDWIDTH", "5000", 1);
  RunSpec spec;
  spec.sparse_exchange = true;
  spec.parallel_clients = 2;
  spec.sim.bandwidth_bps = 1e6;
  const RunSpec out = with_env_knobs(spec);
  EXPECT_TRUE(out.sparse_exchange);
  EXPECT_EQ(out.parallel_clients, 2);
  EXPECT_EQ(out.sim.bandwidth_bps, 1e6);
  // The same variables still fill a spec that leaves the knobs unpinned.
  setenv("FEDTINY_SPARSE_EXCHANGE", "1", 1);
  setenv("FEDTINY_PARALLEL_CLIENTS", "3", 1);
  const RunSpec filled = with_env_knobs(RunSpec{});
  EXPECT_TRUE(filled.sparse_exchange);
  EXPECT_EQ(filled.parallel_clients, 3);
  EXPECT_EQ(filled.sim.bandwidth_bps, 5000.0);
}

TEST_F(KnobEnv, MalformedAmbientValuesWarnOnceAndAreIgnored) {
  setenv("FEDTINY_ASYNC", "yes", 1);
  setenv("FEDTINY_SIM_BANDWIDTH", "fast", 1);
  testing::internal::CaptureStderr();
  const RunSpec first = with_env_knobs(RunSpec{});
  const RunSpec second = with_env_knobs(RunSpec{});
  const std::string err = testing::internal::GetCapturedStderr();
  for (const RunSpec& out : {first, second}) {
    EXPECT_EQ(describe_knobs(out), "");
  }
  const auto count = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t at = err.find(needle); at != std::string::npos; at = err.find(needle, at + 1)) ++n;
    return n;
  };
  EXPECT_EQ(count("FEDTINY_ASYNC=yes ignored"), 1u) << err;
  EXPECT_EQ(count("FEDTINY_SIM_BANDWIDTH=fast ignored"), 1u) << err;
}

TEST_F(KnobEnv, CodecTypoWarnsAndIsIgnored) {
  setenv("FEDTINY_CODEC", "int9", 1);
  testing::internal::CaptureStderr();
  const RunSpec out = with_env_knobs(RunSpec{});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.codec, "");
  EXPECT_NE(err.find("FEDTINY_CODEC=int9 ignored"), std::string::npos) << err;
  // A well-formed codec still fills an unpinned spec, and never a pinned one.
  setenv("FEDTINY_CODEC", "int8", 1);
  EXPECT_EQ(with_env_knobs(RunSpec{}).codec, "int8");
  RunSpec pinned;
  pinned.codec = "q4";
  EXPECT_EQ(with_env_knobs(pinned).codec, "q4");
}

// One typo, one line: the kernel engine owns the FEDTINY_KERNELS diagnostic
// (it warns when it seeds the process mode), so the knob table ignores a
// malformed value without a word of its own.
TEST_F(KnobEnv, KernelsTypoWarnsExactlyOnce) {
  setenv("FEDTINY_KERNELS", "refrence", 1);
  testing::internal::CaptureStderr();
  const RunSpec out = with_env_knobs(RunSpec{});
  // What the engine runs on its first use in a process.
  const kernels::Mode seeded = kernels::detail::mode_from_env();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.kernels, "");
  EXPECT_EQ(seeded, kernels::Mode::kFast);
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_EQ(err.rfind("FEDTINY_KERNELS=refrence ignored", 0), 0u) << err;
  // A well-formed value still fills an unpinned spec.
  setenv("FEDTINY_KERNELS", "reference", 1);
  EXPECT_EQ(with_env_knobs(RunSpec{}).kernels, "reference");
}

TEST(Scale, UnknownValueWarnsAndFallsBackToTiny) {
  const char* saved = std::getenv("FEDTINY_SCALE");
  const std::optional<std::string> restore =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  setenv("FEDTINY_SCALE", "smal", 1);
  testing::internal::CaptureStderr();
  const ScaleConfig scale = ScaleConfig::from_env();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(scale.name, "tiny");
  EXPECT_NE(err.find("FEDTINY_SCALE=smal ignored"), std::string::npos) << err;
  setenv("FEDTINY_SCALE", "small", 1);
  EXPECT_EQ(ScaleConfig::from_env().name, "small");
  if (restore) {
    setenv("FEDTINY_SCALE", restore->c_str(), 1);
  } else {
    unsetenv("FEDTINY_SCALE");
  }
}

/// Runs consume_flag over one flag (and its value, if given).
bool apply(RunSpec& spec, std::vector<const char*> args, int* consumed = nullptr) {
  args.insert(args.begin(), "fedtiny_cli");
  int i = 1;
  const bool hit = consume_flag(spec, static_cast<int>(args.size()), args.data(), i);
  if (consumed != nullptr) *consumed = i;
  return hit;
}

TEST(Knobs, CliRejectsMalformedValues) {
  RunSpec spec;
  EXPECT_THROW(apply(spec, {"--workers", "two"}), std::invalid_argument);
  EXPECT_THROW(apply(spec, {"--density", "1e-2x"}), std::invalid_argument);
  EXPECT_THROW(apply(spec, {"--density", "nan"}), std::invalid_argument);
  EXPECT_THROW(apply(spec, {"--workers"}), std::invalid_argument);  // missing value
  EXPECT_THROW(apply(spec, {"--trim-frac", "0.7"}), std::invalid_argument);
  EXPECT_THROW(apply(spec, {"--codec", "int9"}), std::invalid_argument);
  EXPECT_EQ(describe_knobs(spec), "") << "a rejected value must leave the spec untouched";

  int consumed = 0;
  EXPECT_TRUE(apply(spec, {"--workers", "2"}, &consumed));
  EXPECT_EQ(consumed, 2);
  EXPECT_EQ(spec.parallel_clients, 2);
  EXPECT_TRUE(apply(spec, {"--density", "1e-2"}));
  EXPECT_EQ(spec.density, 0.01);
  EXPECT_TRUE(apply(spec, {"--async"}, &consumed));
  EXPECT_EQ(consumed, 1);
  EXPECT_TRUE(spec.sim.async_rounds);
  EXPECT_FALSE(apply(spec, {"--save-prefix", "/x"}));
}

TEST(Knobs, ExplicitOutOfRangeValuesThrow) {
  EXPECT_NO_THROW(validate_knobs(RunSpec{}));
  RunSpec spec;
  spec.sim.dropout = 1.5;
  EXPECT_THROW(validate_knobs(spec), std::invalid_argument);
  spec = RunSpec{};
  spec.quant_bits = 5;
  EXPECT_THROW(validate_knobs(spec), std::invalid_argument);
  spec = RunSpec{};
  spec.adversary_mode = "scael";
  EXPECT_THROW(validate_knobs(spec), std::invalid_argument);
  // Experiment::run shares the bounds.
  spec = RunSpec{};
  spec.trim_frac = 0.7;
  EXPECT_THROW(Experiment(ScaleConfig::tiny()).run(spec), std::invalid_argument);
}

TEST(Knobs, DescribeListsEveryNonDefaultKnob) {
  EXPECT_EQ(describe_knobs(RunSpec{}), "");
  RunSpec spec;
  spec.method = "snip";
  spec.quant_bits = 4;
  spec.sim.bandwidth_bps = 1e6;
  spec.sim.async_rounds = true;
  EXPECT_EQ(describe_knobs(spec),
            "method=snip quant_bits=4 sim.bandwidth_bps=1e+06 sim.async_rounds=1");
}

TEST(Knobs, HelpListsEveryFlagAndVariable) {
  testing::internal::CaptureStdout();
  print_knob_help(stdout);
  const std::string help = testing::internal::GetCapturedStdout();
  for (const Knob& knob : knobs()) {
    if (knob.flag != nullptr) EXPECT_NE(help.find(knob.flag), std::string::npos) << knob.flag;
    if (knob.env != nullptr) EXPECT_NE(help.find(knob.env), std::string::npos) << knob.env;
  }
}

}  // namespace
}  // namespace fedtiny::harness
