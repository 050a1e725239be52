#include "harness/runner.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "harness/knobs.h"
#include "tensor/kernels.h"
#include "tensor/parallel.h"

namespace fedtiny::harness {

RunSpec with_env_knobs(RunSpec spec) {
  for (const Knob& knob : knobs()) {
    const char* text = knob.env != nullptr ? std::getenv(knob.env) : nullptr;
    if (text == nullptr || *text == '\0' || !knob.is_default(spec)) continue;
    try {
      knob.set(spec, text);
    } catch (const std::invalid_argument& e) {
      // The kernel engine diagnoses its own variable when it seeds the
      // process mode (kernels::detail::mode_from_env); a second warning
      // here would report one typo twice.
      if (std::strcmp(knob.env, kernels::kModeEnv) != 0) warn_ambient(knob.env, text, e.what());
    }
  }
  return spec;
}

std::vector<RunResult> run_all(const Experiment& experiment, const std::vector<RunSpec>& specs,
                               int workers) {
  // Fill the env knobs once per spec (the workers run these verbatim).
  std::vector<RunSpec> knobbed;
  knobbed.reserve(specs.size());
  for (const RunSpec& raw : specs) knobbed.push_back(with_env_knobs(raw));

  // The kernel mode is process-wide, so concurrently running specs that pin
  // different modes would flip each other's kernels mid-run. Reject
  // conflicting batches, and apply an agreed pin once, up front: unpinned
  // specs in the same batch then deterministically run under it too,
  // instead of racing against whichever worker sets it first.
  std::string pinned;
  for (const RunSpec& spec : knobbed) {
    if (spec.kernels.empty()) continue;
    if (pinned.empty()) {
      pinned = spec.kernels;
    } else if (pinned != spec.kernels) {
      throw std::invalid_argument("run_all: specs pin conflicting kernels modes (\"" + pinned +
                                  "\" vs \"" + spec.kernels + "\"); the mode is process-wide");
    }
  }
  if (!pinned.empty()) kernels::set_mode(kernels::parse_mode(pinned.c_str()));
  if (workers <= 0) {
    const char* env = std::getenv("FEDTINY_WORKERS");
    if (env != nullptr) {
      workers = std::atoi(env);
    }
    if (workers <= 0) workers = default_pool_workers();
  }
  workers = std::min<int>(workers, static_cast<int>(specs.size()));
  std::vector<RunResult> results(specs.size());
  worker_pool_for(specs.size(), workers, [&](int /*worker*/, size_t i) {
    results[i] = experiment.run(knobbed[i]);
  });
  return results;
}

}  // namespace fedtiny::harness
