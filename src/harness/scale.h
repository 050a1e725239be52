// Workload scale presets. The paper trains ResNet18/VGG11 on 32x32 images
// for 200-300 rounds on GPUs; the reproduction runs on CPU, so benches
// default to the "tiny" preset and label it in their output. Set
// FEDTINY_SCALE=small or FEDTINY_SCALE=paper to run larger.
#pragma once

#include <cstdint>
#include <string>

namespace fedtiny::harness {

struct ScaleConfig {
  std::string name = "tiny";
  int64_t image_size = 8;
  int64_t train_size = 600;
  int64_t test_size = 400;
  int64_t public_size = 200;  // server one-shot dataset D_s
  float width_mult = 0.125f;
  int rounds = 16;
  int local_epochs = 1;
  int pretrain_epochs = 14;
  int64_t batch_size = 32;
  int delta_r = 1;   // paper: 10 (scaled with the compressed round budget)
  int r_stop = 10;   // paper: 100 (scaled)
  int pool_size = 12;  // paper default: 50
  float lr = 0.06f;

  static ScaleConfig tiny();
  static ScaleConfig small();
  static ScaleConfig paper();
  /// Read FEDTINY_SCALE (default "tiny"; an unknown value warns once and
  /// falls back to "tiny").
  static ScaleConfig from_env();
};

}  // namespace fedtiny::harness
