// serve_tiny: an InferenceServer with one 1%-density tier, loaded from a
// FTSPRS01 checkpoint and driven by a closed loop of in-process requests.
#pragma once

#include <cstdint>
#include <string>

#include "trace.h"

namespace perfbench {

struct ServeOutcome {
  // Set-up: data, model, checkpoint file, server and publish; medians.
  double setup_s = 0.0;
  double publish_ms = 0.0;         // InferenceServer::publish_checkpoint
  double install_sparse_ms = 0.0;  // prune::install_sparse_execution on the checkpoint
  // Closed loop, measured window only.
  uint64_t attempted = 0;  // requests submitted in the window
  uint64_t failed = 0;     // not ok, plus oracle mismatches
  uint64_t samples = 0;    // latency samples (completed ok in the window)
  double qps = 0.0;
  double job_s = 0.0;  // time per 4096 requests: 4096 / qps
  double checkpoint_bytes = 0.0;  // FTSPRS01 file the server loads
  double density = 0.0;           // kept share of prunable weights in the tier
  double mean_ms = 0.0, p50_ms = 0.0, p99_ms = 0.0;  // client-side submit -> result
  double tail_percentile = 0.0;       // highest percentile the sample count supports
  double tail_ms = 0.0;
  double queue_p50_ms = 0.0, queue_p99_ms = 0.0;  // InferResult::queue_ms
  double service_p50_ms = 0.0;                    // total_ms - queue_ms
  double mean_batch = 0.0;                        // requests per dispatched batch
  uint64_t oracle_checked = 0;
  uint64_t oracle_mismatches = 0;
  // Traced runs only: ServableModel::forward at batch 1 and 16, medians.
  double eval_forward_b1_ms = 0.0, eval_forward_b16_ms = 0.0;
};

/// Build the tier from `seed` (writing its checkpoint under `work_dir`),
/// warm up, run the closed loop for `seconds`, and check a seeded sample of
/// responses against a single-threaded batch-1 oracle of the checkpoint.
/// With a tracer, also time the single forwards and the CSR install.
ServeOutcome run_serve_tiny(uint64_t seed, double seconds, const std::string& work_dir,
                            Tracer* tracer);

}  // namespace perfbench
