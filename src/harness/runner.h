// Parallel execution of independent experiment runs on the process-wide
// executor (tensor/parallel.h). Bench throughput comes from running many
// RunSpecs concurrently on executor lanes, which share one thread budget with
// the per-round client pools and kernel lanes so nested parallelism cannot
// oversubscribe the machine.
#pragma once

#include <vector>

#include "harness/experiment.h"

namespace fedtiny::harness {

/// Fill the knobs `spec` leaves at their RunSpec{} defaults from the
/// environment, so every bench binary picks them up without per-binary flags.
/// harness/knobs.cpp lists the variables; explicit values win, and a
/// malformed ambient value warns once and is ignored.
RunSpec with_env_knobs(RunSpec spec);

/// Run every spec (order-preserving results) after filling its unpinned
/// knobs from the environment (with_env_knobs). workers <= 0 selects min(#specs,
/// hardware_concurrency - 2). Honors FEDTINY_WORKERS (a non-negative integer;
/// 0 or a malformed value, which warns once, selects the default).
std::vector<RunResult> run_all(const Experiment& experiment, const std::vector<RunSpec>& specs,
                               int workers = 0);

}  // namespace fedtiny::harness
