// Stage-by-stage FedTiny runner for the training workloads.
//
// It performs the same calls, in the same order and with the same seeds, as
// harness::Experiment::run does for method "fedtiny" (the test suite checks
// that both give equal accuracy, final density and communication), but it
// calls each stage through its public function so that each can be timed:
//
//   data   data::make_synthetic, data::dirichlet_partition, public subset
//   core   core::server_pretrain, core::FedTinyTrainer::initialize
//   fl     fl::FederatedTrainer::run, fl::FederatedTrainer::evaluate
//
// The replays below run only in traced runs: they time single layers of the
// finished model, outside the timed training.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "harness/experiment.h"
#include "nn/model.h"
#include "trace.h"

namespace perfbench {

namespace data = fedtiny::data;
namespace harness = fedtiny::harness;
namespace nn = fedtiny::nn;

struct TrainingTimes {
  double data_s = 0.0;          // synthetic data, partition, public subset
  double setup_s = 0.0;         // data_s plus model construction
  double pretrain_s = 0.0;      // core::server_pretrain
  double bn_selection_s = 0.0;  // FedTinyTrainer::initialize
  double rounds_s = 0.0;        // FederatedTrainer::run (every round, last eval included)
  double eval_s = 0.0;          // FederatedTrainer::evaluate after run
  double time_to_model_s = 0.0;  // pretraining through evaluation, one clock
};

/// Set-up of one run: the data Experiment::run builds, and the model.
struct Setup {
  data::TrainTest data;
  std::vector<std::vector<int64_t>> partitions;
  data::Dataset public_data;
  std::unique_ptr<nn::Model> model;
};

/// Build the data and the model of `spec`; fills times.data_s and
/// times.setup_s.
Setup build_setup(const harness::ScaleConfig& scale, const harness::RunSpec& spec,
                  Tracer* tracer, TrainingTimes& times);

struct TrainingRun {
  /// The fields Experiment::run fills for method "fedtiny" that the
  /// benchmark reads: accuracy, final density, total bytes, selected
  /// candidate, history, and the final state and mask.
  harness::RunResult result;
  /// FederatedTrainer::evaluate() after run(); equals result.accuracy.
  double eval_accuracy = 0.0;
  /// Client lanes the executor granted: 1 + replicas the trainer built.
  int client_lanes = 1;
  TrainingTimes times;
};

/// The training workloads' RunSpec: FedTiny on ResNet18 over cifar10s, 10
/// non-iid clients (alpha 0.5), 1% target density, fast kernels. Serial:
/// dense exchange, one client lane, no codec. Sparse: CSR training and
/// execution (max density 0.5), sparse exchange, the int8 codec, 3 client
/// lanes.
harness::RunSpec fedtiny_workload_spec(bool sparse, uint64_t seed);

/// One FedTiny run of `spec` at `scale`. Supports the spec fields the
/// benchmark's workloads set; throws std::invalid_argument for a method
/// other than "fedtiny", an on-demand fleet, robust aggregation,
/// adversaries or codec overrides, which it does not reproduce.
TrainingRun run_fedtiny(const harness::ScaleConfig& scale, const harness::RunSpec& spec,
                        Tracer* tracer);

/// Per-batch times (ms) of each layer kind on the finished model.
struct LayerTimes {
  double conv2d_fwd_ms = 0.0, conv2d_bwd_ms = 0.0;
  double batchnorm_fwd_ms = 0.0, batchnorm_bwd_ms = 0.0;
  double linear_fwd_ms = 0.0, linear_bwd_ms = 0.0;
  double train_step_ms = 0.0;  // forward, loss, backward and masked SGD step
  double install_sparse_ms = 0.0;  // 0 when the workload runs no CSR path
};

/// Replay one batch of `batch_size` training samples through every leaf of
/// the final model, each with its public forward(kTrain)/backward, on the
/// workload's mask and execution path (CSR training when spec.sparse_training
/// is set), `reps` times. Each field is the median over reps of the summed
/// per-leaf times. Spans named nn.<kind>.fwd/bwd go to `tracer`.
LayerTimes replay_layers(const harness::ScaleConfig& scale, const harness::RunSpec& spec,
                         const TrainingRun& run, int reps, Tracer* tracer);

/// Codec cost on the final state and mask (all 0 when the workload's spec
/// has no codec): median encode/decode times over `reps` and the update
/// wire size.
struct CodecTimes {
  double encode_state_ms = 0.0, decode_state_ms = 0.0;
  double encode_update_ms = 0.0, decode_update_ms = 0.0;
  double update_bytes = 0.0;
  bool round_trip_ok = true;  // every decode succeeded
};

CodecTimes replay_codec(const harness::ScaleConfig& scale, const harness::RunSpec& spec,
                        const TrainingRun& run, int reps, Tracer* tracer);

}  // namespace perfbench
