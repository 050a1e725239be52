// Golden digests of the fast engine's masked-dense GEMM and batched Conv2d.
//
// The zero-skip GEMM, the dead-row backward and the hoisted-bounds movers
// promise to keep every output bit of the implementation they replaced.
// These tests pin that promise: each case hashes (FNV-1a 64) the bytes of a
// fast-mode result, and the expected values were recorded from the build
// before those rewrites (commit eba58b9). Digests, not inlined copies of the
// old loops: an inlined copy would compile with whatever FMA contraction
// its new surroundings get, which is the very thing under test.
//
// Fast-mode bits depend on the compiler, the optimization level, the build's
// ISA baseline and the target_clones variant the CPU selects, so the digests
// hold for one configuration only: an optimized portable GCC build on a CPU
// that runs the avx512f clones (ThreadSanitizer builds compile the clones
// out). Elsewhere the digest checks skip; the lane and batch-invariance
// checks beside them run everywhere.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace fedtiny {
namespace {

uint64_t fnv1a(const void* data, size_t bytes, uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
uint64_t digest(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T));
}

uint64_t digest(const Tensor& t) {
  return fnv1a(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

bool digests_apply() {
#if defined(__GNUC__) && !defined(__clang__) && defined(__OPTIMIZE__) && !defined(__AVX2__) && \
    defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

const std::map<std::string, uint64_t>& golden() {
  static const std::map<std::string, uint64_t> table = {
      {"batch_nn_n2048", 0x1cb738aaab5139baULL},
      {"batch_tn_n2048", 0xf2d45685aa9fa0d8ULL},
      {"conv3x3_1x1_dw", 0x971203d2e927521eULL},
      {"conv3x3_1x1_dx", 0x7d5019f15df5d824ULL},
      {"conv3x3_1x1_y", 0xbe170221b8e018caULL},
      {"conv3x3_2x2_dw", 0xa8851e58d4bb5198ULL},
      {"conv3x3_2x2_dx", 0x8e26e016d8209f4cULL},
      {"conv3x3_2x2_y", 0xcc9be834ea08dca2ULL},
      {"conv3x3_4x4_bias_relu_db", 0x1be01d1838ca8e63ULL},
      {"conv3x3_4x4_bias_relu_dw", 0x7adcd41a75a8d5e2ULL},
      {"conv3x3_4x4_bias_relu_dx", 0xd801785d3e685b9aULL},
      {"conv3x3_4x4_bias_relu_y", 0xea320a987af8e152ULL},
      {"conv3x3_4x4_d10_dw", 0xde4d5bd470055447ULL},
      {"conv3x3_4x4_d10_dx", 0x86104c46ed2288daULL},
      {"conv3x3_4x4_d10_y", 0xeb5faf770740f8c7ULL},
      {"conv3x3_4x4_dw", 0xde4d5bd470055447ULL},
      {"conv3x3_4x4_dx", 0x67fd453210df4d1eULL},
      {"conv3x3_4x4_y", 0x2f578907471f29d3ULL},
      {"conv3x3_8x8_dw", 0x40f4aba70ccec313ULL},
      {"conv3x3_8x8_dx", 0xbbb05ebcac0f7f62ULL},
      {"conv3x3_8x8_y", 0x5c07688594a262faULL},
      {"conv3x3_s2_4x4_dw", 0x93859d34887d423fULL},
      {"conv3x3_s2_4x4_dx", 0x25ada4415fb0e706ULL},
      {"conv3x3_s2_4x4_y", 0x8292ddc9e61dbfe6ULL},
      {"gemm_nn_d0.00_v0", 0x0af725d3494bae0aULL},
      {"gemm_nn_d0.00_v1", 0x732b962f8a37436aULL},
      {"gemm_nn_d0.00_v2", 0xfd53b9e91b5e8e00ULL},
      {"gemm_nn_d0.01_v0", 0xed9be1c3a6886b34ULL},
      {"gemm_nn_d0.01_v1", 0xe6a22d9b85574191ULL},
      {"gemm_nn_d0.01_v2", 0x89278c9c696e62e1ULL},
      {"gemm_nn_d0.05_v0", 0x7f70367c1b69c3cfULL},
      {"gemm_nn_d0.05_v1", 0xb2d64d3ad2b68214ULL},
      {"gemm_nn_d0.05_v2", 0xedaad259aeca5eb0ULL},
      {"gemm_nn_d0.20_v0", 0x9d7ce508ed9250e1ULL},
      {"gemm_nn_d0.20_v1", 0x6ba38589a5bb858eULL},
      {"gemm_nn_d0.20_v2", 0x58ea15f786459346ULL},
      {"gemm_nn_d0.30_v0", 0x347967ae3d1ce7f3ULL},
      {"gemm_nn_d0.30_v1", 0xab292a300a8fb6ebULL},
      {"gemm_nn_d0.30_v2", 0xb4b00afcff28efd9ULL},
      {"gemm_tn_d0.00_v0", 0x0af725d3494bae0aULL},
      {"gemm_tn_d0.00_v1", 0x6a81bf1f96c9d14eULL},
      {"gemm_tn_d0.00_v2", 0xb2f37d4ae7e28450ULL},
      {"gemm_tn_d0.01_v0", 0x90736f30640d9e6aULL},
      {"gemm_tn_d0.01_v1", 0x5b0bcebf92db3975ULL},
      {"gemm_tn_d0.01_v2", 0xaaae74d14c4d607aULL},
      {"gemm_tn_d0.05_v0", 0x3ecfcbcff6a364c7ULL},
      {"gemm_tn_d0.05_v1", 0xdf7b8e87ea4b174fULL},
      {"gemm_tn_d0.05_v2", 0x4866bc0941ef3fc2ULL},
      {"gemm_tn_d0.20_v0", 0xb1dfe5f16d4739dfULL},
      {"gemm_tn_d0.20_v1", 0x5dc953e9a54ddcd0ULL},
      {"gemm_tn_d0.20_v2", 0x206596a290d65ecbULL},
      {"gemm_tn_d0.30_v0", 0x7c88d8c81342e168ULL},
      {"gemm_tn_d0.30_v1", 0x1f874e2d8b9b475fULL},
      {"gemm_tn_d0.30_v2", 0x43caddad4206216fULL},
      {"proj1x1_s2_8x8_dw", 0x9b99ce214dd0e085ULL},
      {"proj1x1_s2_8x8_dx", 0x2a7932403c41aa9aULL},
      {"proj1x1_s2_8x8_y", 0x4ff58843ff24d5deULL},
  };
  return table;
}

void expect_digest(const std::string& name, uint64_t got) {
  if (!digests_apply()) return;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx", static_cast<unsigned long long>(got));
  const auto it = golden().find(name);
  ASSERT_NE(it, golden().end()) << "no golden digest: {\"" << name << "\", " << hex << "ULL},";
  EXPECT_EQ(it->second, got) << name << " digest " << hex;
}

/// ~N(0,1) [rows, cols] with each entry kept with probability `density`;
/// every `dead_every`-th row (stored layout) or column is all zero.
std::vector<float> masked(int64_t rows, int64_t cols, double density, bool dead_cols, Rng& rng) {
  constexpr int64_t kDeadEvery = 5;
  std::vector<float> v(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const float x = rng.normal();
      const bool keep = rng.uniform() < density;
      const bool dead = (dead_cols ? c : r) % kDeadEvery == 0;
      v[static_cast<size_t>(r * cols + c)] = keep && !dead ? x : 0.0f;
    }
  }
  return v;
}

std::vector<float> dense(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.normal();
  return v;
}

/// Runs `body` at lane budgets 0, 1 and 3 and returns the budget-0 result
/// after checking the others reproduce it bitwise.
template <typename Body>
auto at_lane_budgets(Body body) {
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  ex.set_thread_budget(0);
  const auto base = body();
  for (int budget : {1, 3}) {
    ex.set_thread_budget(budget);
    EXPECT_TRUE(body() == base) << "lane budget " << budget;
  }
  ex.set_thread_budget(before);
  return base;
}

struct GemmOut {
  std::vector<float> c;
  std::vector<uint8_t> mask;
  bool operator==(const GemmOut& o) const {
    return c.size() == o.c.size() && std::memcmp(c.data(), o.c.data(), c.size() * 4) == 0 &&
           mask == o.mask;
  }
};

// op(A) is [m, k] masked-dense with every fifth row all zero; n = 100 leaves
// a 4-column tail strip; m = 37 leaves a single-row band remainder.
TEST(KernelDigests, MaskedGemmNNAndTN) {
  kernels::ScopedMode pin(kernels::Mode::kFast);
  const int64_t m = 37, k = 150, n = 100;
  for (bool trans_a : {false, true}) {
    for (double density : {0.0, 0.01, 0.05, 0.2, 0.3}) {
      for (int variant = 0; variant < 3; ++variant) {
        Rng rng(1000 + static_cast<uint64_t>(density * 1000) + (trans_a ? 7 : 0));
        const auto a = trans_a ? masked(k, m, density, true, rng) : masked(m, k, density, false, rng);
        const auto b = dense(k * n, rng);
        const auto rbias = dense(m, rng);
        const auto c0 = dense(m * n, rng);
        const GemmOut out = at_lane_budgets([&] {
          GemmOut o{c0, {}};
          kernels::GemmEpilogue epi;
          float alpha = 1.0f, beta = 0.0f;
          if (variant == 1) {  // conv forward: row bias + ReLU + recorded mask
            o.mask.assign(static_cast<size_t>(m * n), 2);
            epi.row_bias = rbias.data();
            epi.relu = true;
            epi.relu_mask = o.mask.data();
          } else if (variant == 2) {  // generic blend
            alpha = 0.5f;
            beta = 1.0f;
          }
          ops::gemm(trans_a, false, m, n, k, alpha, a.data(), b.data(), beta, o.c.data(), epi);
          return o;
        });
        char name[64];
        std::snprintf(name, sizeof(name), "gemm_%s_d%.2f_v%d", trans_a ? "tn" : "nn", density,
                      variant);
        expect_digest(name, digest(out.c) ^ (digest(out.mask) * 3));
      }
    }
  }
}

// A C column's bits depend only on its A row and B column, never on the
// total column count: n = 16 and n = 17 reproduce the first columns of the
// n = 2048 product bitwise.
TEST(KernelDigests, MaskedGemmBatchInvariance) {
  kernels::ScopedMode pin(kernels::Mode::kFast);
  const int64_t m = 32, k = 288, wide = 2048;
  for (bool trans_a : {false, true}) {
    Rng rng(trans_a ? 2027 : 2026);
    const auto a = trans_a ? masked(k, m, 0.01, true, rng) : masked(m, k, 0.01, false, rng);
    const auto b = dense(k * wide, rng);
    std::vector<float> full(static_cast<size_t>(m * wide));
    ops::gemm(trans_a, false, m, wide, k, 1.0f, a.data(), b.data(), 0.0f, full.data());
    expect_digest(trans_a ? "batch_tn_n2048" : "batch_nn_n2048", digest(full));
    for (int64_t n : {16, 17}) {
      std::vector<float> bn(static_cast<size_t>(k * n));
      for (int64_t p = 0; p < k; ++p) {
        std::memcpy(bn.data() + p * n, b.data() + p * wide, static_cast<size_t>(n) * 4);
      }
      std::vector<float> c(static_cast<size_t>(m * n));
      ops::gemm(trans_a, false, m, n, k, 1.0f, a.data(), bn.data(), 0.0f, c.data());
      for (int64_t i = 0; i < m; ++i) {
        ASSERT_EQ(0, std::memcmp(c.data() + i * n, full.data() + i * wide,
                                 static_cast<size_t>(n) * 4))
            << (trans_a ? "tn" : "nn") << " n " << n << " row " << i;
      }
    }
  }
}

struct ConvCase {
  const char* name;
  int64_t in_c, out_c, kernel, stride, pad, size;
  bool bias, fused_relu;
  double density;
};

struct ConvOut {
  Tensor y, grad_in, dw, db;
  bool operator==(const ConvOut& o) const {
    const auto same = [](const Tensor& p, const Tensor& q) {
      return p.numel() == q.numel() &&
             (p.numel() == 0 ||
              std::memcmp(p.data(), q.data(), static_cast<size_t>(p.numel()) * 4) == 0);
    };
    return same(y, o.y) && same(grad_in, o.grad_in) && same(dw, o.dw) && same(db, o.db);
  }
};

ConvOut run_conv(const ConvCase& cc, int64_t batch) {
  Rng init(7);
  nn::Conv2d conv(cc.in_c, cc.out_c, cc.kernel, cc.stride, cc.pad, cc.bias, init);
  conv.set_fused_relu(cc.fused_relu);
  Rng rng(11);
  for (auto& w : conv.weight().value.flat()) {
    if (!(rng.uniform() < cc.density)) w = 0.0f;
  }
  if (cc.bias) {
    for (auto& v : conv.bias()->value.flat()) v = rng.normal();
  }
  Tensor x({batch, cc.in_c, cc.size, cc.size});
  for (auto& v : x.flat()) v = rng.normal();
  ConvOut out;
  out.y = conv.forward(x, nn::Mode::kTrain);
  Tensor dy(out.y.shape());
  for (auto& v : dy.flat()) v = rng.normal();
  out.grad_in = conv.backward(dy);
  out.dw = conv.weight().grad;
  if (cc.bias) out.db = conv.bias()->grad;
  return out;
}

// The FedTiny ResNet18 conv shapes at tiny planes, batch 32, 1% masked-dense
// (plus a 10% case), through the batched fast pipeline.
TEST(KernelDigests, MaskedConvForwardBackwardAtTinyPlanes) {
  kernels::ScopedMode pin(kernels::Mode::kFast);
  const ConvCase cases[] = {
      {"conv3x3_8x8", 16, 32, 3, 1, 1, 8, false, false, 0.01},
      {"conv3x3_4x4", 32, 32, 3, 1, 1, 4, false, false, 0.01},
      {"conv3x3_2x2", 32, 64, 3, 1, 1, 2, false, false, 0.01},
      {"conv3x3_1x1", 64, 64, 3, 1, 1, 1, false, false, 0.01},
      {"conv3x3_s2_4x4", 32, 64, 3, 2, 1, 4, false, false, 0.01},
      {"proj1x1_s2_8x8", 16, 32, 1, 2, 0, 8, false, false, 0.01},
      {"conv3x3_4x4_bias_relu", 32, 32, 3, 1, 1, 4, true, true, 0.01},
      {"conv3x3_4x4_d10", 32, 32, 3, 1, 1, 4, false, false, 0.10},
  };
  for (const ConvCase& cc : cases) {
    const ConvOut out = at_lane_budgets([&] { return run_conv(cc, 32); });
    const std::string name = cc.name;
    expect_digest(name + "_y", digest(out.y));
    expect_digest(name + "_dx", digest(out.grad_in));
    expect_digest(name + "_dw", digest(out.dw));
    if (cc.bias) expect_digest(name + "_db", digest(out.db));
  }
}

}  // namespace
}  // namespace fedtiny
