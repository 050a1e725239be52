// Command-line experiment runner: run any method/dataset/model/density
// combination and optionally checkpoint the resulting sparse model + mask.
//
//   ./build/fedtiny_cli --method fedtiny --dataset svhns \
//       --model resnet18 --density 0.01 --alpha 0.5 --seed 1 \
//       --save-prefix /tmp/svhns_sparse
//
// Flags default to the quickstart configuration; --help lists them with
// their environment variables (harness/knobs.cpp holds the table).
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "harness/experiment.h"
#include "harness/knobs.h"
#include "harness/runner.h"
#include "io/checkpoint.h"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out, "fedtiny_cli — run one federated pruning experiment\n");
  fedtiny::harness::print_knob_help(out);
  std::fprintf(out,
               "  --save-prefix P        write P.state.bin and P.mask.bin on success\n"
               "  --help\n"
               "Environment variables fill the knobs the flags leave at their defaults;\n"
               "malformed ones warn and are ignored. Scale via FEDTINY_SCALE=tiny|small|paper.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedtiny;
  harness::RunSpec spec;
  std::string save_prefix;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (harness::consume_flag(spec, argc, argv, i)) continue;
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", arg, e.what());
      return 2;
    }
    if (std::strcmp(arg, "--save-prefix") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value\n", arg);
        return 2;
      }
      save_prefix = argv[++i];
      spec.capture_final = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      usage(stderr);
      return 2;
    }
  }

  spec = harness::with_env_knobs(std::move(spec));
  harness::Experiment experiment(harness::ScaleConfig::from_env());
  const std::string knobs = harness::describe_knobs(spec);
  std::printf("running at scale %s: %s\n", experiment.scale().name.c_str(),
              knobs.empty() ? "all RunSpec defaults" : knobs.c_str());
  try {
    auto result = experiment.run(spec);
    std::printf("top1_accuracy   %.4f\n", result.accuracy);
    std::printf("final_density   %.5f\n", result.final_density);
    std::printf("flops_ratio     %.4f (max round vs dense FedAvg)\n", result.flops_ratio());
    std::printf("memory_MB       %.4f (dense: %.4f)\n", result.memory_mb(),
                result.dense_memory_mb());
    std::printf("comm_total_MB   %.3f\n", result.total_comm_bytes / (1024.0 * 1024.0));
    if (result.sim_time_s > 0.0) {
      std::printf("sim_time_s      %.2f (simulated wall-clock of the whole run)\n",
                  result.sim_time_s);
    }
    if (result.selected_candidate >= 0) {
      std::printf("selected coarse candidate: %d\n", result.selected_candidate);
    }
    if (!save_prefix.empty() && !result.final_state.empty()) {
      const std::string state_path = save_prefix + ".state.bin";
      const std::string mask_path = save_prefix + ".mask.bin";
      const bool ok = io::save_state(state_path, result.final_state) &&
                      io::save_mask(mask_path, result.final_mask);
      std::printf("checkpoint: %s (%s, %s)\n", ok ? "written" : "FAILED", state_path.c_str(),
                  mask_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
