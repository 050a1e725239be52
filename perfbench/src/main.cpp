// FedTiny benchmark: builds each workload from the seed, drives the
// program's stages through their public functions, times them, checks the
// outputs, and prints one JSON result line. See perfbench/README.md.
//
//   fedtiny_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, from traced repetitions interleaved with untraced ones, and
// writes a Chrome trace and a per-layer table under --out-dir.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serving.h"
#include "stats.h"
#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "trace.h"
#include "training.h"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace kernels = fedtiny::kernels;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything a run prints: its pinned configuration, the ambient variables
/// it ignored, the checks that failed, and the metrics.
struct Report {
  std::map<std::string, std::string> config;  // values already JSON-encoded
  std::map<std::string, std::string> ambient_env;
  std::map<std::string, double> detail;
  std::vector<std::string> failures;          // wrong outputs: the run is not correct
  std::vector<std::string> attempt_failures;  // attempts that failed, counted in `failed`
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string short_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---- Pinned configuration. ----

constexpr const char* kKernels = "fast";

struct Workload {
  const char* name;
  int thread_budget;
  bool training;
  bool sparse;  // sparse training + CSR execution + sparse exchange + int8
};

constexpr Workload kWorkloads[] = {
    {"fedtiny_serial", 0, true, false},
    {"fedtiny_sparse_int8", 2, true, true},
    {"serve_tiny", 0, false, false},
};

/// Pin the process-wide knobs the program would otherwise read from the
/// environment, and record every ambient FEDTINY_* variable: none of them
/// reaches the workload.
void pin_process(const Workload& w, Report& report) {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("FEDTINY_", 0) != 0) continue;
    const auto eq = kv.find('=');
    report.ambient_env[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
    std::fprintf(stderr, "perfbench: warning: ignoring ambient %s; the workload pins its own "
                         "configuration\n", kv.c_str());
  }
  fedtiny::Executor::instance().set_thread_budget(w.thread_budget);
  fedtiny::set_parallelism(1);
  kernels::set_mode(kernels::parse_mode(kKernels));
  report.config["thread_budget"] = std::to_string(fedtiny::Executor::instance().thread_budget());
  report.config["kernel_threads"] = std::to_string(fedtiny::parallelism());
  report.config["kernels"] = json_string(kernels::mode_name(kernels::mode()));
}

void stamp_training_config(const harness::ScaleConfig& scale, const harness::RunSpec& spec,
                           Report& report) {
  report.config["scale"] = json_string(scale.name);
  report.config["method"] = json_string(spec.method);
  report.config["model"] = json_string(spec.model);
  report.config["dataset"] = json_string(spec.dataset);
  report.config["clients"] = std::to_string(spec.num_clients);
  report.config["rounds"] = std::to_string(scale.rounds);
  report.config["density"] = json_number(spec.density);
  report.config["dirichlet_alpha"] = json_number(spec.dirichlet_alpha);
  report.config["client_lanes_requested"] = std::to_string(spec.parallel_clients);
  report.config["codec"] = json_string(spec.codec);
  report.config["sparse_training"] = spec.sparse_training ? "true" : "false";
  report.config["sparse_exec_max_density"] = json_number(spec.sparse_exec_max_density);
  report.config["sparse_exchange"] = spec.sparse_exchange ? "true" : "false";
}

uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
  }
  return 0;
}

// ---- Training workloads. ----

constexpr int kExtraSetups = 9;       // set-ups per run besides each repetition's own
constexpr double kDensityTol = 0.05;  // relative tolerance on the final density
constexpr double kChance = 1.0 / 10;  // top-1 accuracy of a constant 10-class guess

/// Output checks on one training run; `first` is the run's first
/// repetition, which every later one must reproduce bit for bit.
void check_training(const harness::RunSpec& spec, const TrainingRun& run, const TrainingRun& first,
                    Report& report) {
  const auto& r = run.result;
  report.check(std::abs(r.final_density - spec.density) <= kDensityTol * spec.density,
               "final density " + short_number(r.final_density) + " is not within 5% of " +
                   short_number(spec.density));
  report.check(run.eval_accuracy == r.accuracy, "evaluate() after run() disagrees with run()");
  int rejected = 0;
  int nonfinite = 0;
  double comm = 0.0;
  double comm_split = 0.0;
  for (const auto& h : r.history) {
    rejected += h.rejected_uplinks;
    nonfinite += h.nonfinite_dropped;
    comm += h.comm_bytes;
    comm_split += h.comm_up_bytes + h.comm_down_bytes;
  }
  report.check(rejected == 0, std::to_string(rejected) + " rejected uplinks");
  report.check(nonfinite == 0, std::to_string(nonfinite) + " non-finite uplinks dropped");
  report.check(comm == r.total_comm_bytes, "RoundStats comm_bytes do not sum to total_comm_bytes");
  report.check(std::abs(comm_split - r.total_comm_bytes) <= 1e-9 * r.total_comm_bytes,
               "RoundStats up+down bytes do not sum to total_comm_bytes");
  report.check(r.accuracy == first.result.accuracy &&
                   r.final_density == first.result.final_density &&
                   r.total_comm_bytes == first.result.total_comm_bytes,
               "repetitions of the same seed disagree");
}

// The per-layer metrics of every workload, in print order. A traced run
// prints all of them; a layer a workload does not run reports 0.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"data.build_s", "s"},
    {"core.pretrain_s", "s"},
    {"core.bn_selection_s", "s"},
    {"core.selected_candidate", "count"},
    {"fl.rounds_s", "s"},
    {"fl.client_train_s", "s"},
    {"fl.aggregate_s", "s"},
    {"fl.round_other_s", "s"},
    {"fl.eval_s", "s"},
    {"fl.client_lanes", "count"},
    {"fl.uplinks", "count"},
    {"fl.rejected_uplinks", "count"},
    {"fl.nonfinite_dropped", "count"},
    {"fl.comm_up_mb", "MB"},
    {"fl.comm_down_mb", "MB"},
    {"fl.codec.encode_state_ms", "ms"},
    {"fl.codec.decode_state_ms", "ms"},
    {"fl.codec.encode_update_ms", "ms"},
    {"fl.codec.decode_update_ms", "ms"},
    {"fl.codec.update_bytes", "bytes"},
    {"prune.final_density", "ratio"},
    {"prune.install_sparse_ms", "ms"},
    {"nn.conv2d.fwd_ms", "ms"},
    {"nn.conv2d.bwd_ms", "ms"},
    {"nn.batchnorm.fwd_ms", "ms"},
    {"nn.batchnorm.bwd_ms", "ms"},
    {"nn.linear.fwd_ms", "ms"},
    {"nn.linear.bwd_ms", "ms"},
    {"nn.train_step_ms", "ms"},
    {"nn.eval_forward_ms.b1", "ms"},
    {"nn.eval_forward_ms.b16", "ms"},
    {"serve.publish_ms", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.service_ms.p50", "ms"},
    {"serve.batch_size.mean", "count"},
    {"serve.failed", "count"},
    {"trace.overhead_pct", "%"},
};

/// Fill report.metrics with every per-layer metric, taking values from
/// `values` and 0 for the layers this workload does not run.
void set_per_layer(const std::map<std::string, double>& values, Report& report) {
  report.metrics.clear();
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = values.find(name);
    report.metrics.push_back({name, it != values.end() ? it->second : 0.0, unit});
  }
  for (const auto& [name, value] : values) {
    report.check(std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                             [&](const auto& m) { return name == m.first; }),
                 "per-layer metric " + name + " is not in the table");
  }
}

/// Median duration in seconds of the spans called `name`.
double span_median_s(const Tracer& tracer, const std::string& name) {
  std::vector<double> d;
  for (const auto& s : tracer.spans()) {
    if (s.name == name) d.push_back(s.duration_us() / 1e6);
  }
  return median(std::move(d));
}

void run_training_workload(const Args& args, const Workload& w, Report& report, Tracer* tracer) {
  const harness::ScaleConfig scale = harness::ScaleConfig::tiny();
  const harness::RunSpec spec = fedtiny_workload_spec(w.sparse, args.seed);
  stamp_training_config(scale, spec, report);

  std::vector<double> setup_s;
  for (int i = 0; i < kExtraSetups; ++i) {
    TrainingTimes t;
    (void)build_setup(scale, spec, nullptr, t);
    setup_s.push_back(t.setup_s);
  }

  // Repetitions start until --seconds have passed; a repetition is never
  // cut short. A traced run alternates untraced and traced repetitions and
  // needs one of each.
  std::vector<TrainingRun> plain;
  std::vector<TrainingRun> traced;
  uint64_t rss_bytes = 0;  // peak through set-up and the first repetition
  const auto t0 = Clock::now();
  while (plain.empty() || (args.trace && traced.empty()) || seconds_since(t0) < args.seconds) {
    const bool trace_this = args.trace && plain.size() > traced.size();
    TrainingRun run = run_fedtiny(scale, spec, trace_this ? tracer : nullptr);
    check_training(spec, run, plain.empty() ? run : plain.front(), report);
    setup_s.push_back(run.times.setup_s);
    (trace_this ? traced : plain).push_back(std::move(run));
    // Later repetitions redo the same work; the allocator's growth across
    // them is not part of one run's footprint.
    if (rss_bytes == 0) rss_bytes = peak_rss_bytes();
  }

  auto med = [](const std::vector<TrainingRun>& runs, double TrainingTimes::*field) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.times.*field);
    return median(std::move(v));
  };
  // The run attempts one job, the seed's federation; the repetitions only
  // time it again and check_training holds them to its result bit for bit.
  // Counting the job rather than the repetitions keeps `attempted` and
  // `failed` independent of host speed. A model no better than chance is a
  // failed attempt, not a wrong computation: it repeats bit for bit and
  // matches the harness.
  const auto& first = plain.front().result;
  report.attempted = 1;
  if (!(first.accuracy > kChance)) {
    report.failed = 1;
    report.attempt_failures.push_back("accuracy " + short_number(first.accuracy) +
                                      " is not above chance (" + short_number(kChance) + ")");
  }
  const double rounds = static_cast<double>(scale.rounds);
  const double time_to_model_s = med(plain, &TrainingTimes::time_to_model_s);
  const double round_s = med(plain, &TrainingTimes::rounds_s) / rounds;
  report.detail["time_to_model_s"] = time_to_model_s;
  report.detail["round_s"] = round_s;
  report.detail["accuracy"] = first.accuracy;
  report.detail["repetitions"] = static_cast<double>(plain.size());

  if (!args.trace) {
    report.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"job_s", time_to_model_s, "s"},
        {"latency_ms", 1e3 * round_s, "ms"},
        {"comm_mb", first.total_comm_bytes / 1e6, "MB"},
        {"peak_rss_mb", static_cast<double>(rss_bytes) / 1e6, "MB"},
    };
    return;
  }

  // ---- Per-layer metrics from the traced repetitions. ----
  const TrainingRun& run = traced.front();
  double train_s = 0.0, agg_s = 0.0, up = 0.0, down = 0.0;
  int uplinks = 0, rejected = 0, nonfinite = 0;
  for (const auto& h : run.result.history) {
    train_s += h.wall_train_s;
    agg_s += h.wall_agg_s;
    up += h.comm_up_bytes;
    down += h.comm_down_bytes;
    uplinks += h.aggregated + h.rejected_uplinks;
    rejected += h.rejected_uplinks;
    nonfinite += h.nonfinite_dropped;
  }
  const LayerTimes layers = replay_layers(scale, spec, run, 10, tracer);
  const CodecTimes codec = replay_codec(scale, spec, run, 20, tracer);
  report.check(codec.round_trip_ok, "codec replay failed to decode its own wire");
  const double traced_ttm = med(traced, &TrainingTimes::time_to_model_s);
  set_per_layer(
      {
          {"data.build_s", med(traced, &TrainingTimes::data_s)},
          {"core.pretrain_s", med(traced, &TrainingTimes::pretrain_s)},
          {"core.bn_selection_s", med(traced, &TrainingTimes::bn_selection_s)},
          {"core.selected_candidate", static_cast<double>(run.result.selected_candidate)},
          {"fl.rounds_s", run.times.rounds_s},
          {"fl.client_train_s", train_s},
          {"fl.aggregate_s", agg_s},
          {"fl.round_other_s", run.times.rounds_s - train_s - agg_s},
          {"fl.eval_s", run.times.eval_s},
          {"fl.client_lanes", static_cast<double>(run.client_lanes)},
          {"fl.uplinks", static_cast<double>(uplinks)},
          {"fl.rejected_uplinks", static_cast<double>(rejected)},
          {"fl.nonfinite_dropped", static_cast<double>(nonfinite)},
          {"fl.comm_up_mb", up / 1e6},
          {"fl.comm_down_mb", down / 1e6},
          {"fl.codec.encode_state_ms", codec.encode_state_ms},
          {"fl.codec.decode_state_ms", codec.decode_state_ms},
          {"fl.codec.encode_update_ms", codec.encode_update_ms},
          {"fl.codec.decode_update_ms", codec.decode_update_ms},
          {"fl.codec.update_bytes", codec.update_bytes},
          {"prune.final_density", run.result.final_density},
          {"prune.install_sparse_ms", layers.install_sparse_ms},
          {"nn.conv2d.fwd_ms", layers.conv2d_fwd_ms},
          {"nn.conv2d.bwd_ms", layers.conv2d_bwd_ms},
          {"nn.batchnorm.fwd_ms", layers.batchnorm_fwd_ms},
          {"nn.batchnorm.bwd_ms", layers.batchnorm_bwd_ms},
          {"nn.linear.fwd_ms", layers.linear_fwd_ms},
          {"nn.linear.bwd_ms", layers.linear_bwd_ms},
          {"nn.train_step_ms", layers.train_step_ms},
          {"trace.overhead_pct", 100.0 * (traced_ttm - time_to_model_s) / time_to_model_s},
      },
      report);
}

// ---- serve_tiny. ----

void run_serve_workload(const Args& args, Report& report, Tracer* tracer) {
  report.config["tier_density"] = json_number(0.01);
  report.config["model"] = json_string("resnet18 x0.125, 8x8 inputs");
  report.config["workers"] = "1";
  report.config["outstanding"] = "16";
  report.config["generator_threads"] = "1";

  // A traced run splits --seconds between an untraced and a traced loop.
  const double loop_s = args.trace ? args.seconds / 2 : args.seconds;
  auto serve = [&](Tracer* t) {
    const ServeOutcome o = run_serve_tiny(args.seed, loop_s, args.out_dir, t);
    report.attempted += o.attempted;
    report.failed += o.failed;
    report.check(o.failed == 0, std::to_string(o.failed) + " failed requests (" +
                                    std::to_string(o.oracle_mismatches) + " oracle mismatches)");
    report.check(o.oracle_checked > 0, "no response was checked against the oracle");
    return o;
  };
  const ServeOutcome plain = serve(nullptr);
  report.detail["serve_qps"] = plain.qps;
  report.detail["serve_mean_ms"] = plain.mean_ms;
  report.detail["serve_p50_ms"] = plain.p50_ms;
  report.detail["serve_p99_ms"] = plain.p99_ms;
  report.detail["latency_samples"] = static_cast<double>(plain.samples);
  report.detail["tail_percentile"] = plain.tail_percentile;
  report.detail["tail_ms"] = plain.tail_ms;
  report.detail["oracle_checked"] = static_cast<double>(plain.oracle_checked);
  report.detail["mean_batch"] = plain.mean_batch;

  if (!args.trace) {
    report.metrics = {
        {"setup_s", plain.setup_s, "s"},
        {"job_s", plain.job_s, "s"},
        {"latency_ms", plain.mean_ms, "ms"},
        {"comm_mb", plain.checkpoint_bytes / 1e6, "MB"},
        {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB"},
    };
    return;
  }
  const ServeOutcome traced = serve(tracer);
  set_per_layer(
      {
          {"data.build_s", span_median_s(*tracer, "data.build")},
          {"prune.final_density", traced.density},
          {"prune.install_sparse_ms", traced.install_sparse_ms},
          {"nn.eval_forward_ms.b1", traced.eval_forward_b1_ms},
          {"nn.eval_forward_ms.b16", traced.eval_forward_b16_ms},
          {"serve.publish_ms", traced.publish_ms},
          {"serve.queue_ms.p50", traced.queue_p50_ms},
          {"serve.queue_ms.p99", traced.queue_p99_ms},
          {"serve.service_ms.p50", traced.service_p50_ms},
          {"serve.batch_size.mean", traced.mean_batch},
          {"serve.failed", static_cast<double>(traced.failed)},
          {"trace.overhead_pct", 100.0 * (plain.qps - traced.qps) / plain.qps},
      },
      report);
}

// "{k:v,...}" or "[v,...]" from already-encoded entries.
std::string json_join(const std::vector<std::string>& entries, char open, char close) {
  std::string out(1, open);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ',';
    out += entries[i];
  }
  return out + close;
}

template <typename Map, typename Encode>
std::string json_object(const Map& map, Encode encode) {
  std::vector<std::string> entries;
  for (const auto& [k, v] : map) entries.push_back(json_string(k) + ":" + encode(v));
  return json_join(entries, '{', '}');
}

std::string json_array(const std::vector<std::string>& items) {
  std::vector<std::string> entries;
  for (const auto& item : items) entries.push_back(json_string(item));
  return json_join(entries, '[', ']');
}

/// Two stdout lines: the run's effective configuration, ignored ambient
/// variables, detail figures and failures; then the result object.
void print_report(const Args& args, const Report& report) {
  const std::vector<std::string> info = {
      "\"workload\":" + json_string(args.workload),
      "\"seed\":" + std::to_string(args.seed),
      "\"seconds\":" + json_number(args.seconds),
      std::string("\"trace\":") + (args.trace ? "1" : "0"),
      "\"config\":" + json_object(report.config, [](const std::string& v) { return v; }),
      "\"ambient_env\":" + json_object(report.ambient_env, json_string),
      "\"detail\":" + json_object(report.detail, json_number),
      "\"failures\":" + json_array(report.failures),
      "\"failed_attempts\":" + json_array(report.attempt_failures),
  };
  std::printf("{\"perfbench\":%s}\n", json_join(info, '{', '}').c_str());

  std::vector<std::string> metrics;
  for (const auto& m : report.metrics) {
    metrics.push_back(json_string(m.name) + ":{\"value\":" + json_number(m.value) +
                      ",\"unit\":" + json_string(m.unit) + "}");
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              report.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              json_join(metrics, '{', '}').c_str());
  std::fflush(stdout);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && args.seconds > 0.0;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: fedtiny_perfbench --workload <fedtiny_serial|fedtiny_sparse_int8|"
                 "serve_tiny> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  Report report;
  pin_process(*workload, report);
  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  if (workload->training) {
    run_training_workload(args, *workload, report, t);
  } else {
    run_serve_workload(args, report, t);
  }

  if (args.trace) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    report.check(write_chrome_trace(stem + ".trace.json", tracer.spans()),
                 "cannot write " + stem + ".trace.json");
    report.check(write_layer_table(stem + ".layers.txt", tracer.spans()),
                 "cannot write " + stem + ".layers.txt");
    std::fprintf(stderr, "perfbench: %zu spans written to %s.trace.json\n",
                 tracer.spans().size(), stem.c_str());
  }
  for (const auto& m : report.metrics) {
    report.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  for (const auto& f : report.failures) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  for (const auto& f : report.attempt_failures) {
    std::fprintf(stderr, "perfbench: ATTEMPT FAILED: %s\n", f.c_str());
  }
  print_report(args, report);
  return report.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
