#include "fl/server.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "state_accumulator.h"

namespace fedtiny::fl {
namespace {

TEST(StateAccumulator, WeightedAverage) {
  StateAccumulator acc;
  acc.add({Tensor::from_vector({1.0f, 2.0f})}, 1.0);
  acc.add({Tensor::from_vector({3.0f, 4.0f})}, 3.0);
  auto avg = acc.average();
  ASSERT_EQ(avg.size(), 1u);
  EXPECT_NEAR(avg[0][0], (1.0f + 9.0f) / 4.0f, 1e-6f);
  EXPECT_NEAR(avg[0][1], (2.0f + 12.0f) / 4.0f, 1e-6f);
}

TEST(StateAccumulator, NormalizedWeightsEquivalent) {
  StateAccumulator a, b;
  a.add({Tensor::from_vector({2.0f})}, 10.0);
  a.add({Tensor::from_vector({4.0f})}, 30.0);
  b.add({Tensor::from_vector({2.0f})}, 0.25);
  b.add({Tensor::from_vector({4.0f})}, 0.75);
  EXPECT_NEAR(a.average()[0][0], b.average()[0][0], 1e-6f);
}

TEST(StateAccumulator, MultiTensorStates) {
  StateAccumulator acc;
  acc.add({Tensor::from_vector({1.0f}), Tensor::from_vector({10.0f, 20.0f})}, 1.0);
  acc.add({Tensor::from_vector({3.0f}), Tensor::from_vector({30.0f, 40.0f})}, 1.0);
  auto avg = acc.average();
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_NEAR(avg[0][0], 2.0f, 1e-6f);
  EXPECT_NEAR(avg[1][1], 30.0f, 1e-6f);
}

TEST(StateAccumulator, EmptyAndReset) {
  StateAccumulator acc;
  EXPECT_TRUE(acc.empty());
  acc.add({Tensor::from_vector({1.0f})}, 1.0);
  EXPECT_FALSE(acc.empty());
  acc.reset();
  EXPECT_TRUE(acc.empty());
}

TEST(StateAccumulator, EmptyRoundAveragesToEmptyVector) {
  // An empty round (no sampled clients contributed) must not be UB in
  // release builds: the average is an empty vector, not garbage.
  StateAccumulator acc;
  EXPECT_TRUE(acc.average().empty());
  EXPECT_TRUE(acc.average_sparse(prune::MaskSet(), {}).empty());
}

TEST(StateAccumulator, MixingDenseAndSparseIngestionThrows) {
  // The two paths are mutually exclusive per accumulation; mixing them
  // would silently average incompatible representations, so both orders
  // must throw (in release builds too, not just under asserts).
  SparseUpdatePayload update;
  UpdateLayerPayload layer;
  layer.shape = {2};
  layer.values = {1.0f};
  update.sparse_layers.push_back(layer);

  StateAccumulator dense_first;
  dense_first.add({Tensor::from_vector({1.0f, 2.0f})}, 1.0);
  EXPECT_THROW(dense_first.add_sparse(update, 1.0), std::logic_error);

  StateAccumulator sparse_first;
  sparse_first.add_sparse(update, 1.0);
  EXPECT_THROW(sparse_first.add({Tensor::from_vector({1.0f, 2.0f})}, 1.0), std::logic_error);

  // reset() clears the mode: the other path is legal again afterwards.
  sparse_first.reset();
  sparse_first.add({Tensor::from_vector({1.0f, 2.0f})}, 1.0);
  EXPECT_FALSE(sparse_first.empty());
}

TEST(StateAccumulator, SparseAddMatchesDenseAdd) {
  // Two clients, one prunable tensor (state position 0) + one dense tensor.
  prune::MaskSet mask;
  mask.append_layer({1, 0, 1, 0});
  const std::vector<int> prunable_indices = {0};

  auto make_update = [&](std::vector<float> prunable_vals, float dense_val) {
    SparseUpdatePayload update;
    UpdateLayerPayload layer;
    layer.shape = {4};
    layer.values = std::move(prunable_vals);  // values at kept coords 0 and 2
    update.sparse_layers.push_back(std::move(layer));
    update.dense_tensors.push_back(Tensor::from_vector({dense_val}));
    return update;
  };

  StateAccumulator dense_acc;
  dense_acc.add({Tensor::from_vector({1.0f, 0.0f, 2.0f, 0.0f}), Tensor::from_vector({5.0f})},
                0.25);
  dense_acc.add({Tensor::from_vector({3.0f, 0.0f, 6.0f, 0.0f}), Tensor::from_vector({9.0f})},
                0.75);
  StateAccumulator sparse_acc;
  sparse_acc.add_sparse(make_update({1.0f, 2.0f}, 5.0f), 0.25);
  sparse_acc.add_sparse(make_update({3.0f, 6.0f}, 9.0f), 0.75);

  const auto dense_avg = dense_acc.average();
  const auto sparse_avg = sparse_acc.average_sparse(mask, prunable_indices);
  ASSERT_EQ(dense_avg.size(), sparse_avg.size());
  for (size_t i = 0; i < dense_avg.size(); ++i) {
    for (int64_t j = 0; j < dense_avg[i].numel(); ++j) {
      EXPECT_EQ(sparse_avg[i][j], dense_avg[i][j]) << "tensor " << i << " idx " << j;
    }
  }
}

TEST(SparseGradAccumulator, AveragesByTotalWeight) {
  // Eq. 7: indices missing from a device contribute zero.
  SparseGradAccumulator acc;
  acc.add({{5, 2.0f}}, 0.5);
  acc.add({{5, 4.0f}, {7, 8.0f}}, 0.5);
  auto avg = acc.average();
  ASSERT_EQ(avg.size(), 2u);
  float v5 = 0.0f, v7 = 0.0f;
  for (const auto& e : avg) {
    if (e.index == 5) v5 = e.value;
    if (e.index == 7) v7 = e.value;
  }
  EXPECT_NEAR(v5, (0.5f * 2.0f + 0.5f * 4.0f) / 1.0f, 1e-6f);
  EXPECT_NEAR(v7, 0.5f * 8.0f / 1.0f, 1e-6f);  // device 1 contributed zero
}

TEST(SparseGradAccumulator, EmptyAverage) {
  SparseGradAccumulator acc;
  EXPECT_TRUE(acc.average().empty());
}

TEST(SparseGradAccumulator, Reset) {
  SparseGradAccumulator acc;
  acc.add({{1, 1.0f}}, 1.0);
  acc.reset();
  EXPECT_TRUE(acc.average().empty());
}

}  // namespace
}  // namespace fedtiny::fl
