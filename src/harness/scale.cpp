#include "harness/scale.h"

#include <cstdlib>

#include "harness/knobs.h"

namespace fedtiny::harness {

ScaleConfig ScaleConfig::tiny() { return ScaleConfig{}; }

ScaleConfig ScaleConfig::small() {
  ScaleConfig s;
  s.name = "small";
  s.image_size = 16;
  s.train_size = 2000;
  s.test_size = 500;
  s.public_size = 400;
  s.width_mult = 0.25f;
  s.rounds = 40;
  s.local_epochs = 2;
  s.pretrain_epochs = 2;
  s.delta_r = 5;
  s.r_stop = 25;
  s.pool_size = 30;
  return s;
}

ScaleConfig ScaleConfig::paper() {
  ScaleConfig s;
  s.name = "paper";
  s.image_size = 32;
  s.train_size = 50000;
  s.test_size = 10000;
  s.public_size = 2000;
  s.width_mult = 1.0f;
  s.rounds = 300;
  s.local_epochs = 5;
  s.pretrain_epochs = 5;
  s.batch_size = 64;
  s.delta_r = 10;
  s.r_stop = 100;
  s.pool_size = 50;
  return s;
}

ScaleConfig ScaleConfig::from_env() {
  const char* env = std::getenv("FEDTINY_SCALE");
  const std::string scale = env != nullptr ? env : "";
  if (scale == "paper") return paper();
  if (scale == "small") return small();
  if (!scale.empty() && scale != "tiny") {
    warn_ambient("FEDTINY_SCALE", env, "expected tiny|small|paper; using tiny");
  }
  return tiny();
}

}  // namespace fedtiny::harness
