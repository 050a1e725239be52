// Streaming-vs-batch equivalence oracle for the ShardedAccumulator: the
// packed sharded fold must reproduce the StateAccumulator (the batch
// aggregation the round loop used before streaming) BITWISE for the same
// fold order — per-element arithmetic is independent of shard boundaries
// and lane counts, so any parallel schedule equals the serial reduce.
// Permuted fold orders (async arrival) are only tolerance-close: float
// addition does not commute.
#include "fl/sharded_accumulator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "state_accumulator.h"
#include "tensor/rng.h"

namespace fedtiny::fl {
namespace {

std::vector<Tensor> random_state(Rng& rng, const std::vector<int64_t>& sizes) {
  std::vector<Tensor> state;
  for (int64_t n : sizes) {
    Tensor t({n});
    for (auto& v : t.flat()) v = rng.normal();
    state.push_back(std::move(t));
  }
  return state;
}

void expect_bitwise_equal(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].shape(), b[i].shape()) << "tensor " << i;
    const auto av = a[i].flat();
    const auto bv = b[i].flat();
    for (size_t j = 0; j < av.size(); ++j) {
      ASSERT_EQ(av[j], bv[j]) << "tensor " << i << " idx " << j;
    }
  }
}

TEST(ShardedAccumulator, DenseStreamingMatchesBatchBitwise) {
  Rng rng(11);
  std::vector<std::vector<Tensor>> states;
  const std::vector<double> weights = {0.125, 0.5, 0.25, 0.0625, 0.0625};
  for (size_t k = 0; k < weights.size(); ++k) {
    states.push_back(random_state(rng, {7, 33, 129}));
  }

  StateAccumulator batch;
  ShardedAccumulator streaming;
  streaming.begin_round();
  for (size_t k = 0; k < states.size(); ++k) {
    batch.add(states[k], weights[k]);
    streaming.fold(states[k], weights[k]);
  }
  const auto batch_avg = batch.average();
  std::vector<Tensor> streamed;
  ASSERT_TRUE(streaming.average_into(streamed));
  expect_bitwise_equal(streamed, batch_avg);
  EXPECT_EQ(streaming.folded(), states.size());
  EXPECT_FALSE(streaming.empty());
}

TEST(ShardedAccumulator, SparseStreamingMatchesBatchBitwise) {
  // Two prunable layers placed at state positions 0 and 2, dense remainder
  // at 1 and 3 — the same interleaving place_state() produces.
  prune::MaskSet mask;
  mask.append_layer({1, 0, 1, 0, 1, 0});
  mask.append_layer({0, 1, 1, 0});
  const std::vector<int> prunable_indices = {0, 2};

  Rng rng(13);
  auto make_update = [&]() {
    SparseUpdatePayload update;
    UpdateLayerPayload l0;
    l0.shape = {6};
    l0.values = {rng.normal(), rng.normal(), rng.normal()};
    UpdateLayerPayload l1;
    l1.shape = {4};
    l1.values = {rng.normal(), rng.normal()};
    update.sparse_layers = {std::move(l0), std::move(l1)};
    update.dense_tensors.push_back(Tensor::from_vector({rng.normal(), rng.normal()}));
    update.dense_tensors.push_back(Tensor::from_vector({rng.normal()}));
    return update;
  };

  const std::vector<double> weights = {0.4, 0.35, 0.25};
  std::vector<SparseUpdatePayload> updates;
  for (size_t k = 0; k < weights.size(); ++k) updates.push_back(make_update());

  StateAccumulator batch;
  ShardedAccumulator streaming;
  streaming.begin_round();
  for (size_t k = 0; k < updates.size(); ++k) {
    batch.add_sparse(updates[k], weights[k]);
    streaming.fold_sparse(updates[k], weights[k]);
  }
  const auto batch_avg = batch.average_sparse(mask, prunable_indices);
  ASSERT_FALSE(batch_avg.empty());
  std::vector<Tensor> streamed;
  ASSERT_TRUE(streaming.average_sparse_into(streamed, mask, prunable_indices));
  expect_bitwise_equal(streamed, batch_avg);
}

TEST(ShardedAccumulator, ShardedFoldBitwiseMatchesSerialReference) {
  // Large enough that run_sharded engages multiple shards (>= 2 * 64Ki
  // elements): shard boundaries and worker count must not change a single
  // bit relative to the plain serial loop.
  Rng rng(17);
  const std::vector<int64_t> sizes = {200'000, 50'001};
  std::vector<std::vector<Tensor>> states;
  const std::vector<double> weights = {0.5, 0.3, 0.2};
  for (size_t k = 0; k < weights.size(); ++k) states.push_back(random_state(rng, sizes));

  ShardedAccumulator acc;
  acc.begin_round();
  for (size_t k = 0; k < states.size(); ++k) acc.fold(states[k], weights[k]);
  std::vector<Tensor> sharded;
  ASSERT_TRUE(acc.average_into(sharded));

  // Serial reference: same per-element expression, same fold order.
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  const auto inv = static_cast<float>(1.0 / total_weight);
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::vector<float> sum(static_cast<size_t>(sizes[i]), 0.0f);
    for (size_t k = 0; k < states.size(); ++k) {
      const auto w = static_cast<float>(weights[k]);
      const auto src = states[k][i].flat();
      for (size_t j = 0; j < sum.size(); ++j) sum[j] += w * src[j];
    }
    const auto got = sharded[i].flat();
    for (size_t j = 0; j < sum.size(); ++j) {
      ASSERT_EQ(got[j], sum[j] * inv) << "tensor " << i << " idx " << j;
    }
  }
}

TEST(ShardedAccumulator, PermutedFoldOrderIsToleranceClose) {
  // Async arrival order permutes the fold sequence; float addition does not
  // commute, so the results are close but not necessarily bitwise equal.
  Rng rng(19);
  std::vector<std::vector<Tensor>> states;
  const std::vector<double> weights = {0.1, 0.4, 0.2, 0.3};
  for (size_t k = 0; k < weights.size(); ++k) states.push_back(random_state(rng, {501}));

  ShardedAccumulator forward, permuted;
  forward.begin_round();
  for (size_t k = 0; k < states.size(); ++k) forward.fold(states[k], weights[k]);
  permuted.begin_round();
  const std::vector<size_t> order = {2, 0, 3, 1};
  for (size_t k : order) permuted.fold(states[k], weights[k]);

  std::vector<Tensor> a, b;
  ASSERT_TRUE(forward.average_into(a));
  ASSERT_TRUE(permuted.average_into(b));
  ASSERT_EQ(a.size(), b.size());
  for (int64_t j = 0; j < a[0].numel(); ++j) {
    EXPECT_NEAR(a[0][j], b[0][j], 1e-5f) << "idx " << j;
  }
}

TEST(ShardedAccumulator, ReuseAcrossRoundsRelaysOutCleanly) {
  // Round 2 reuses the packed layout of round 1 (same shapes): the sums
  // must restart from zero, and a layout change mid-stream re-plans.
  Rng rng(23);
  ShardedAccumulator acc;

  acc.begin_round();
  acc.fold(random_state(rng, {64}), 1.0);
  std::vector<Tensor> first;
  ASSERT_TRUE(acc.average_into(first));

  auto round2 = random_state(rng, {64});
  acc.begin_round();
  acc.fold(round2, 2.0);
  std::vector<Tensor> second;
  ASSERT_TRUE(acc.average_into(second));
  expect_bitwise_equal(second, round2);  // weight cancels: avg == the state

  // Shape change: the accumulator re-lays-out instead of corrupting.
  auto round3 = random_state(rng, {16, 8});
  acc.begin_round();
  acc.fold(round3, 1.0);
  std::vector<Tensor> third;
  ASSERT_TRUE(acc.average_into(third));
  expect_bitwise_equal(third, round3);
}

TEST(ShardedAccumulator, MixingDenseAndSparseThrows) {
  SparseUpdatePayload update;
  UpdateLayerPayload layer;
  layer.shape = {2};
  layer.values = {1.0f};
  update.sparse_layers.push_back(layer);

  ShardedAccumulator dense_first;
  dense_first.begin_round();
  dense_first.fold({Tensor::from_vector({1.0f, 2.0f})}, 1.0);
  EXPECT_THROW(dense_first.fold_sparse(update, 1.0), std::logic_error);

  ShardedAccumulator sparse_first;
  sparse_first.begin_round();
  sparse_first.fold_sparse(update, 1.0);
  EXPECT_THROW(sparse_first.fold({Tensor::from_vector({1.0f, 2.0f})}, 1.0), std::logic_error);

  // begin_round clears the mode: the other path is legal again.
  sparse_first.begin_round();
  sparse_first.fold({Tensor::from_vector({1.0f, 2.0f})}, 1.0);
  EXPECT_FALSE(sparse_first.empty());
}

TEST(ShardedAccumulator, EmptyRoundAveragesFalseAndKeepsOut) {
  ShardedAccumulator acc;
  acc.begin_round();
  std::vector<Tensor> out = {Tensor::from_vector({42.0f})};
  EXPECT_FALSE(acc.average_into(out));
  EXPECT_TRUE(acc.empty());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], 42.0f);  // an empty round must not clobber the state
}

TEST(ShardedAccumulator, ResidentBytesAreModelSizedNotFleetSized) {
  Rng rng(29);
  ShardedAccumulator acc;
  acc.begin_round();
  auto state = random_state(rng, {1024});
  for (int k = 0; k < 100; ++k) acc.fold(state, 0.01);  // many clients, one buffer
  const size_t bytes = acc.resident_bytes();
  EXPECT_GT(bytes, size_t{1024} * sizeof(float));
  EXPECT_LT(bytes, size_t{64} * 1024);  // O(model), independent of the 100 folds
}

}  // namespace
}  // namespace fedtiny::fl
