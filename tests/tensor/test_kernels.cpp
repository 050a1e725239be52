// Kernel engine contract tests:
//   - the mode knob (FEDTINY_KERNELS semantics, ScopedMode restore),
//   - reference kernels are the PR 2 loops verbatim (bitwise against an
//     inlined copy of the original code),
//   - fast kernels stay tolerance-close to reference on every shape,
//     including tile-edge shapes (parity bounds the reassociation drift),
//   - fast kernels are bitwise deterministic across kernel thread counts.
#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/sparse.h"

namespace fedtiny::kernels {
namespace {

std::vector<float> random_dense(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.normal();
  return v;
}

std::vector<uint8_t> random_mask(int64_t n, double density, Rng& rng) {
  std::vector<uint8_t> mask(static_cast<size_t>(n));
  for (auto& m : mask) m = rng.uniform() < density ? 1 : 0;
  return mask;
}

sparse::CsrMatrix masked_csr(std::vector<float>& dense, int64_t rows, int64_t cols, double density,
                             Rng& rng) {
  auto mask = random_mask(rows * cols, density, rng);
  for (size_t i = 0; i < dense.size(); ++i) {
    if (mask[i] == 0) dense[i] = 0.0f;
  }
  return sparse::csr_from_mask(dense.data(), rows, cols, mask);
}

/// Parity tolerance: fast reassociates sums of ~N(0,1) products, so the
/// drift scales with the accumulation length. Generous but meaningful —
/// a wrong index or dropped term shows up at O(1).
void expect_close(const std::vector<float>& fast, const std::vector<float>& ref, int64_t acc_len,
                  const char* what) {
  ASSERT_EQ(fast.size(), ref.size()) << what;
  const double tol = 1e-6 * std::sqrt(static_cast<double>(std::max<int64_t>(acc_len, 1))) * 40.0;
  for (size_t i = 0; i < fast.size(); ++i) {
    ASSERT_NEAR(fast[i], ref[i], tol) << what << " idx " << i;
  }
}

// ---- Mode knob --------------------------------------------------------------

TEST(KernelMode, NameParsingAndFallback) {
  EXPECT_EQ(mode_from_name("reference"), Mode::kReference);
  EXPECT_EQ(mode_from_name("fast"), Mode::kFast);
  EXPECT_EQ(mode_from_name(nullptr), Mode::kFast);
  EXPECT_EQ(mode_from_name("typo"), Mode::kFast);
  EXPECT_EQ(mode_from_name("typo", Mode::kReference), Mode::kReference);
  EXPECT_STREQ(mode_name(Mode::kReference), "reference");
  EXPECT_STREQ(mode_name(Mode::kFast), "fast");
}

TEST(KernelMode, ScopedModeRestores) {
  const Mode before = mode();
  {
    ScopedMode pin(Mode::kReference);
    EXPECT_EQ(mode(), Mode::kReference);
    {
      ScopedMode inner(Mode::kFast);
      EXPECT_EQ(mode(), Mode::kFast);
    }
    EXPECT_EQ(mode(), Mode::kReference);
  }
  EXPECT_EQ(mode(), before);
}

// ---- Reference is the PR 2 code, verbatim -----------------------------------
// An inlined copy of the original ops::gemm scalar loop (pre-engine). The
// reference implementation must match it bitwise — reference mode is the
// repo's reproducibility anchor, so "improving" it is a breaking change.

void pr2_gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
              const float* a, const float* b, float beta, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    if (trans_b && !trans_a) {
      const float* arow = a + i * k;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float s = 0.0f;
        for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
        crow[j] += alpha * s;
      }
      continue;
    }
    for (int64_t p = 0; p < k; ++p) {
      const float av = trans_a ? a[p * m + i] : a[i * k + p];
      if (av == 0.0f) continue;
      const float s = alpha * av;
      if (!trans_b) {
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += s * brow[j];
      } else {
        for (int64_t j = 0; j < n; ++j) crow[j] += s * b[j * k + p];
      }
    }
  }
}

TEST(KernelReference, GemmMatchesPR2LoopBitwise) {
  Rng rng(41);
  const int64_t m = 13, n = 21, k = 17;
  const auto a = random_dense(m * k, rng);
  const auto b = random_dense(k * n, rng);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (float beta : {0.0f, 0.7f, 1.0f}) {
        std::vector<float> c1(static_cast<size_t>(m * n), 0.25f), c2 = c1;
        gemm_reference(ta, tb, m, n, k, 1.3f, a.data(), b.data(), beta, c1.data());
        pr2_gemm(ta, tb, m, n, k, 1.3f, a.data(), b.data(), beta, c2.data());
        for (size_t i = 0; i < c1.size(); ++i) {
          ASSERT_EQ(c1[i], c2[i]) << "ta " << ta << " tb " << tb << " beta " << beta << " idx "
                                  << i;
        }
      }
    }
  }
}

// The original sparse::spmm loop (pre-engine), same contract.
void pr2_spmm(const sparse::CsrMatrix& a, const float* b, int64_t n, float* c, bool accumulate) {
  for (int64_t i = 0; i < a.rows; ++i) {
    float* crow = c + i * n;
    if (!accumulate) std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
    for (int64_t p = a.row_ptr[static_cast<size_t>(i)]; p < a.row_ptr[static_cast<size_t>(i) + 1];
         ++p) {
      const float v = a.values[static_cast<size_t>(p)];
      const float* brow = b + static_cast<int64_t>(a.col_idx[static_cast<size_t>(p)]) * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += v * brow[j];
    }
  }
}

TEST(KernelReference, SpmmMatchesPR2LoopBitwise) {
  Rng rng(43);
  const int64_t m = 11, k = 29, n = 9;
  auto a = random_dense(m * k, rng);
  const auto b = random_dense(k * n, rng);
  const auto csr = masked_csr(a, m, k, 0.4, rng);
  std::vector<float> c1(static_cast<size_t>(m * n), 1.0f), c2 = c1;
  spmm_reference(csr, b.data(), n, c1.data(), /*accumulate=*/true);
  pr2_spmm(csr, b.data(), n, c2.data(), /*accumulate=*/true);
  for (size_t i = 0; i < c1.size(); ++i) ASSERT_EQ(c1[i], c2[i]) << i;
}

// The original ops::im2col loop (pre-engine), natural row pitch.
void pr3_im2col(const float* in, int64_t channels, int64_t height, int64_t width, int64_t kernel_h,
                int64_t kernel_w, int64_t stride, int64_t pad, float* out) {
  const int64_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const int64_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  const int64_t col_rows = channels * kernel_h * kernel_w;
  for (int64_t row = 0; row < col_rows; ++row) {
    const int64_t c = row / (kernel_h * kernel_w);
    const int64_t rem = row % (kernel_h * kernel_w);
    const int64_t kh = rem / kernel_w;
    const int64_t kw = rem % kernel_w;
    float* out_row = out + row * out_h * out_w;
    const float* in_c = in + c * height * width;
    for (int64_t oh = 0; oh < out_h; ++oh) {
      const int64_t ih = oh * stride - pad + kh;
      if (ih < 0 || ih >= height) {
        std::memset(out_row + oh * out_w, 0, static_cast<size_t>(out_w) * sizeof(float));
        continue;
      }
      const float* in_row = in_c + ih * width;
      for (int64_t ow = 0; ow < out_w; ++ow) {
        const int64_t iw = ow * stride - pad + kw;
        out_row[oh * out_w + ow] = (iw >= 0 && iw < width) ? in_row[iw] : 0.0f;
      }
    }
  }
}

// The original ops::col2im loop (pre-engine), natural row pitch.
void pr3_col2im(const float* cols, int64_t channels, int64_t height, int64_t width,
                int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* out) {
  const int64_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const int64_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  for (int64_t c = 0; c < channels; ++c) {
    float* out_c = out + c * height * width;
    for (int64_t kh = 0; kh < kernel_h; ++kh) {
      for (int64_t kw = 0; kw < kernel_w; ++kw) {
        const int64_t row = (c * kernel_h + kh) * kernel_w + kw;
        const float* col_row = cols + row * out_h * out_w;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= height) continue;
          float* out_row = out_c + ih * width;
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t iw = ow * stride - pad + kw;
            if (iw >= 0 && iw < width) out_row[iw] += col_row[oh * out_w + ow];
          }
        }
      }
    }
  }
}

// Conv geometries covering the interior/halo splits: plain, strided, wide
// pad, 1x1, stride 3, and a 5x5 kernel on a 4x4 image (no pad-free interior
// at all — the whole expansion is halo).
struct ColGeom {
  int64_t c, h, w, kh, kw, stride, pad;
};
constexpr ColGeom kColGeoms[] = {
    {3, 8, 8, 3, 3, 1, 1},  {2, 9, 7, 3, 3, 2, 1}, {1, 6, 6, 5, 5, 1, 2}, {4, 5, 5, 1, 1, 1, 0},
    {2, 10, 10, 3, 3, 3, 1}, {1, 4, 4, 5, 5, 1, 2}, {2, 7, 7, 1, 1, 2, 0},
    // Kernel wider than width+pad: taps whose first in-bounds column lies
    // past out_w (the halo-clamp regression case).
    {2, 2, 2, 8, 8, 1, 4},
};

TEST(KernelReference, Im2colCol2imMatchPR3LoopsBitwise) {
  Rng rng(67);
  for (const auto& g : kColGeoms) {
    const int64_t out_h = (g.h + 2 * g.pad - g.kh) / g.stride + 1;
    const int64_t out_w = (g.w + 2 * g.pad - g.kw) / g.stride + 1;
    const int64_t col_rows = g.c * g.kh * g.kw;
    const auto in = random_dense(g.c * g.h * g.w, rng);
    std::vector<float> cols1(static_cast<size_t>(col_rows * out_h * out_w), -1.0f), cols2 = cols1;
    im2col_reference(in.data(), g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, cols1.data(),
                     out_h * out_w);
    pr3_im2col(in.data(), g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, cols2.data());
    ASSERT_EQ(0, std::memcmp(cols1.data(), cols2.data(), cols1.size() * sizeof(float)));

    const auto dcols = random_dense(col_rows * out_h * out_w, rng);
    std::vector<float> im1(static_cast<size_t>(g.c * g.h * g.w)), im2 = im1;
    col2im_reference(dcols.data(), g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, im1.data(),
                     out_h * out_w);
    pr3_col2im(dcols.data(), g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, im2.data());
    ASSERT_EQ(0, std::memcmp(im1.data(), im2.data(), im1.size() * sizeof(float)));
  }
}

// Unlike the arithmetic kernels, the fast im2col/col2im must equal reference
// BITWISE: im2col is pure data movement and the fast col2im preserves each
// output element's (kh, kw, oh) accumulation order.
TEST(KernelParity, Im2colFastBitwiseEqualsReferenceIncludingBatchedPitch) {
  Rng rng(71);
  for (const auto& g : kColGeoms) {
    const int64_t out_h = (g.h + 2 * g.pad - g.kh) / g.stride + 1;
    const int64_t out_w = (g.w + 2 * g.pad - g.kw) / g.stride + 1;
    const int64_t hw = out_h * out_w;
    const int64_t col_rows = g.c * g.kh * g.kw;
    const int64_t batch = 3;
    const auto in = random_dense(batch * g.c * g.h * g.w, rng);
    // Batched pitch: each sample's block sits side by side in one buffer.
    std::vector<float> fast(static_cast<size_t>(col_rows * batch * hw), -2.0f), ref = fast;
    for (int64_t i = 0; i < batch; ++i) {
      im2col_fast(in.data() + i * g.c * g.h * g.w, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad,
                  fast.data() + i * hw, batch * hw);
      im2col_reference(in.data() + i * g.c * g.h * g.w, g.c, g.h, g.w, g.kh, g.kw, g.stride,
                       g.pad, ref.data() + i * hw, batch * hw);
    }
    ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(), fast.size() * sizeof(float)))
        << "geom c" << g.c << " k" << g.kh << " s" << g.stride << " p" << g.pad;
  }
}

TEST(KernelParity, Col2imFastBitwiseEqualsReferenceIncludingBatchedPitch) {
  Rng rng(73);
  for (const auto& g : kColGeoms) {
    const int64_t out_h = (g.h + 2 * g.pad - g.kh) / g.stride + 1;
    const int64_t out_w = (g.w + 2 * g.pad - g.kw) / g.stride + 1;
    const int64_t hw = out_h * out_w;
    const int64_t col_rows = g.c * g.kh * g.kw;
    const int64_t batch = 3;
    const auto dcols = random_dense(col_rows * batch * hw, rng);
    std::vector<float> fast(static_cast<size_t>(batch * g.c * g.h * g.w)), ref = fast;
    for (int64_t i = 0; i < batch; ++i) {
      col2im_fast(dcols.data() + i * hw, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad,
                  fast.data() + i * g.c * g.h * g.w, batch * hw);
      col2im_reference(dcols.data() + i * hw, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad,
                       ref.data() + i * g.c * g.h * g.w, batch * hw);
    }
    ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(), fast.size() * sizeof(float)))
        << "geom c" << g.c << " k" << g.kh << " s" << g.stride << " p" << g.pad;
  }
}

// ---- Fused GEMM epilogue ----------------------------------------------------

TEST(GemmEpilogue, FusedBiasAndReluMatchOrderedPostPass) {
  Rng rng(79);
  // Shapes straddle the packing threshold indirectly via k*n; both small
  // (unpacked) and large-ish shapes run the same checks.
  const int64_t shapes[][3] = {{5, 17, 9}, {24, 33, 48}, {64, 640, 128}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], n = s[1], k = s[2];
    const auto a = random_dense(m * k, rng);
    const auto b = random_dense(std::max(k * n, n * k), rng);
    const auto rbias = random_dense(m, rng);
    const auto cbias = random_dense(n, rng);
    for (bool tb : {false, true}) {
      for (bool relu : {false, true}) {
        GemmEpilogue epi;
        epi.row_bias = rbias.data();
        epi.col_bias = cbias.data();
        epi.relu = relu;
        // Fused fast call vs plain fast call + ordered post-pass: must be
        // bitwise-identical (the fused store applies the same operations in
        // the same order at write-back).
        std::vector<float> fused(static_cast<size_t>(m * n)), plain(fused);
        gemm_fast_ex(false, tb, m, n, k, 1.0f, a.data(), b.data(), 0.0f, fused.data(), epi);
        gemm_fast(false, tb, m, n, k, 1.0f, a.data(), b.data(), 0.0f, plain.data());
        gemm_epilogue_apply(m, n, plain.data(), epi);
        for (size_t i = 0; i < fused.size(); ++i) {
          ASSERT_EQ(fused[i], plain[i]) << "tb " << tb << " relu " << relu << " idx " << i;
        }
        if (relu) {
          for (float v : fused) ASSERT_GE(v, 0.0f);
        }
      }
    }
  }
}

TEST(GemmEpilogue, ReferenceDispatchAppliesEpilogueIdentically) {
  Rng rng(83);
  const int64_t m = 12, n = 21, k = 17;
  const auto a = random_dense(m * k, rng);
  const auto b = random_dense(k * n, rng);
  const auto cbias = random_dense(n, rng);
  GemmEpilogue epi;
  epi.col_bias = cbias.data();
  std::vector<float> with_epi(static_cast<size_t>(m * n)), manual(with_epi);
  {
    ScopedMode pin(Mode::kReference);
    ops::gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, with_epi.data(), epi);
  }
  gemm_reference(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, manual.data());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) manual[static_cast<size_t>(i * n + j)] += cbias[j];
  }
  for (size_t i = 0; i < with_epi.size(); ++i) ASSERT_EQ(with_epi[i], manual[i]) << i;
}

// ---- Column panels ----------------------------------------------------------

TEST(CsrPanels, PanelPtrPartitionsEachRowByColumnRange) {
  Rng rng(89);
  const int64_t m = 19, k = 700;  // several default-width panels
  auto w = random_dense(m * k, rng);
  auto csr = masked_csr(w, m, k, 0.3, rng);
  sparse::build_panels(csr, sparse::kDefaultPanelWidth);
  ASSERT_TRUE(csr.has_panels());
  ASSERT_EQ(csr.panel_width, sparse::kDefaultPanelWidth);
  const int64_t np = csr.num_panels();
  for (int64_t i = 0; i < m; ++i) {
    const int64_t* pp = csr.panel_ptr.data() + i * (np + 1);
    EXPECT_EQ(pp[0], csr.row_ptr[static_cast<size_t>(i)]);
    EXPECT_EQ(pp[np], csr.row_ptr[static_cast<size_t>(i) + 1]);
    for (int64_t pan = 0; pan < np; ++pan) {
      for (int64_t p = pp[pan]; p < pp[pan + 1]; ++p) {
        const int64_t col = csr.col_idx[static_cast<size_t>(p)];
        EXPECT_GE(col, pan * csr.panel_width);
        EXPECT_LT(col, (pan + 1) * csr.panel_width);
      }
    }
  }
}

TEST(CsrPanels, PanelizedKernelsMatchReferenceAtForcedSmallWidth) {
  Rng rng(97);
  // Force several panels at test-sized shapes (the default width would give
  // one panel and skip the panel loops entirely).
  const int64_t m = 23, k = 61, n = 19;
  auto w = random_dense(m * k, rng);
  auto csr = masked_csr(w, m, k, 0.3, rng);
  sparse::build_panels(csr, 16);
  ASSERT_GT(csr.num_panels(), 2);

  const auto b_nk = random_dense(n * k, rng);
  const auto b_nm = random_dense(n * m, rng);
  {
    std::vector<float> cf(static_cast<size_t>(n * m)), cr(cf);
    spmm_nt_fast(csr, b_nk.data(), n, cf.data());
    spmm_nt_reference(csr, b_nk.data(), n, cr.data());
    expect_close(cf, cr, k, "spmm_nt panelized");
  }
  {
    // spmm_dn visits CSR rows in ascending order within the unique panel
    // holding each output column, so the panel walk is bitwise-identical to
    // the reference accumulation.
    std::vector<float> cf(static_cast<size_t>(n * k)), cr(cf);
    spmm_dn_fast(csr, b_nm.data(), n, cf.data());
    spmm_dn_reference(csr, b_nm.data(), n, cr.data());
    EXPECT_EQ(0, std::memcmp(cf.data(), cr.data(), cf.size() * sizeof(float)));
  }
}

// ---- Fast vs reference parity ----------------------------------------------

TEST(KernelParity, GemmAllTransposesAcrossTileEdgeShapes) {
  Rng rng(47);
  // Shapes straddle the 4-row band and 16-column tile boundaries of the
  // fast kernel, plus the k-unroll of the NT dot.
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {4, 16, 16},  {5, 17, 16},
                               {8, 31, 33}, {17, 40, 23}, {12, 64, 65}, {64, 48, 100}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], n = s[1], k = s[2];
    const auto a = random_dense(std::max(m * k, k * m), rng);
    const auto b = random_dense(std::max(k * n, n * k), rng);
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (float beta : {0.0f, 1.0f}) {
          std::vector<float> cf(static_cast<size_t>(m * n), 0.5f), cr = cf;
          gemm_fast(ta, tb, m, n, k, 1.1f, a.data(), b.data(), beta, cf.data());
          gemm_reference(ta, tb, m, n, k, 1.1f, a.data(), b.data(), beta, cr.data());
          expect_close(cf, cr, k, "gemm");
        }
      }
    }
  }
}

TEST(KernelParity, CsrKernelsAcrossDensities) {
  Rng rng(53);
  // Odd sizes exercise the nnz%4, batch%4, and pair tails of every kernel.
  const int64_t m = 37, k = 53, n = 19;  // csr [m, k], dense ops vs [*, n]
  for (double density : {1.0, 0.45, 0.1, 0.02, 0.0}) {
    auto w = random_dense(m * k, rng);
    const auto csr = masked_csr(w, m, k, density, rng);
    const auto b_kn = random_dense(k * n, rng);    // spmm operand [k, n]
    const auto b_nk = random_dense(n * k, rng);    // spmm_nt operand rows [n, k]
    const auto b_nm = random_dense(n * m, rng);    // spmm_dn operand [n, m]
    const auto b_mn = random_dense(m * n, rng);    // spmm_tn / grad operand [m, n]
    const auto x_nk = random_dense(n * k, rng);    // masked_grad_tn operand [n, k]

    {
      std::vector<float> cf(static_cast<size_t>(m * n)), cr(cf);
      spmm_fast(csr, b_kn.data(), n, cf.data(), false);
      spmm_reference(csr, b_kn.data(), n, cr.data(), false);
      expect_close(cf, cr, k, "spmm");
      spmm_fast(csr, b_kn.data(), n, cf.data(), true);
      spmm_reference(csr, b_kn.data(), n, cr.data(), true);
      expect_close(cf, cr, k, "spmm accumulate");
    }
    {
      std::vector<float> cf(static_cast<size_t>(n * m)), cr(cf);
      spmm_nt_fast(csr, b_nk.data(), n, cf.data());
      spmm_nt_reference(csr, b_nk.data(), n, cr.data());
      expect_close(cf, cr, k, "spmm_nt");
    }
    {
      std::vector<float> cf(static_cast<size_t>(n * k)), cr(cf);
      spmm_dn_fast(csr, b_nm.data(), n, cf.data());
      spmm_dn_reference(csr, b_nm.data(), n, cr.data());
      expect_close(cf, cr, m, "spmm_dn");
    }
    {
      std::vector<float> cf(static_cast<size_t>(k * n)), cr(cf);
      spmm_tn_fast(csr, b_mn.data(), n, cf.data());
      spmm_tn_reference(csr, b_mn.data(), n, cr.data());
      expect_close(cf, cr, m, "spmm_tn");
    }
    {
      std::vector<float> gf(static_cast<size_t>(m * k), 0.1f), gr(gf);
      masked_grad_dot_fast(csr, b_mn.data(), b_kn.data(), n, gf.data());
      masked_grad_dot_reference(csr, b_mn.data(), b_kn.data(), n, gr.data());
      expect_close(gf, gr, n, "masked_grad_dot");
    }
    {
      // a operand is [n, m] sample-major, b operand [n, k].
      std::vector<float> gf(static_cast<size_t>(m * k), -0.2f), gr(gf);
      masked_grad_tn_fast(csr, b_nm.data(), x_nk.data(), n, gf.data());
      masked_grad_tn_reference(csr, b_nm.data(), x_nk.data(), n, gr.data());
      expect_close(gf, gr, n, "masked_grad_tn");
    }
  }
}

TEST(KernelParity, PublicEntryPointsDispatchOnMode) {
  Rng rng(59);
  const int64_t m = 24, n = 32, k = 48;
  const auto a = random_dense(m * k, rng);
  const auto b = random_dense(k * n, rng);
  std::vector<float> via_ops(static_cast<size_t>(m * n)), direct(via_ops);

  {
    ScopedMode pin(Mode::kReference);
    ops::gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, via_ops.data());
  }
  gemm_reference(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, direct.data());
  EXPECT_EQ(0, std::memcmp(via_ops.data(), direct.data(), via_ops.size() * sizeof(float)));

  {
    ScopedMode pin(Mode::kFast);
    ops::gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, via_ops.data());
  }
  gemm_fast(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, direct.data());
  EXPECT_EQ(0, std::memcmp(via_ops.data(), direct.data(), via_ops.size() * sizeof(float)));
}

// ---- Fast-mode determinism --------------------------------------------------
// The blocking order is fixed, so kernel results must be bitwise identical
// for any kernel thread count (and, transitively, any worker count — the
// coarse pools never split a kernel).

TEST(KernelDeterminism, FastBitwiseStableAcrossThreadCounts) {
  ScopedMode pin(Mode::kFast);
  Rng rng(61);
  const int64_t m = 61, n = 45, k = 77;
  const auto a = random_dense(m * k, rng);
  const auto b = random_dense(k * n, rng);
  auto w = random_dense(m * k, rng);
  const auto csr = masked_csr(w, m, k, 0.2, rng);
  const auto bx = random_dense(n * m, rng);

  const int old_threads = parallelism();
  std::vector<float> c1(static_cast<size_t>(m * n)), c2(c1);
  std::vector<float> s1(static_cast<size_t>(m * n)), s2(s1);
  std::vector<float> d1(static_cast<size_t>(n * k)), d2(d1);

  set_parallelism(1);
  gemm_fast(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());
  spmm_fast(csr, b.data(), n, s1.data(), false);
  spmm_dn_fast(csr, bx.data(), n, d1.data());

  set_parallelism(4);
  gemm_fast(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c2.data());
  spmm_fast(csr, b.data(), n, s2.data(), false);
  spmm_dn_fast(csr, bx.data(), n, d2.data());
  set_parallelism(old_threads);

  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(s1.data(), s2.data(), s1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(d1.data(), d2.data(), d1.size() * sizeof(float)));
}

TEST(KernelDeterminism, PackedGemmAndPanelizedCsrStableAcrossThreadCounts) {
  // Shapes chosen to engage the panel-packed GEMM path (k*n*4 > 256 KiB) and
  // the multi-panel CSR kernels (cols > the default 256-column panel width).
  ScopedMode pin(Mode::kFast);
  Rng rng(101);
  const int64_t m = 48, n = 600, k = 320;
  const auto a = random_dense(m * k, rng);
  const auto b = random_dense(std::max(k * n, n * k), rng);
  auto w = random_dense(m * 600, rng);
  auto csr = masked_csr(w, m, 600, 0.15, rng);
  sparse::build_panels(csr, sparse::kDefaultPanelWidth);  // cols 600 => 3 panels
  ASSERT_TRUE(csr.has_panels());
  const auto bx = random_dense(17 * 600, rng);
  const auto bm = random_dense(17 * m, rng);

  const int old_threads = parallelism();
  std::vector<float> nn1(static_cast<size_t>(m * n)), nn2(nn1);
  std::vector<float> nt1(nn1), nt2(nn1);
  std::vector<float> p1(static_cast<size_t>(17 * m)), p2(p1);
  std::vector<float> d1(static_cast<size_t>(17 * 600)), d2(d1);

  set_parallelism(1);
  gemm_fast(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, nn1.data());
  gemm_fast(false, true, m, n, k, 1.0f, a.data(), b.data(), 0.0f, nt1.data());
  spmm_nt_fast(csr, bx.data(), 17, p1.data());
  spmm_dn_fast(csr, bm.data(), 17, d1.data());

  set_parallelism(3);
  gemm_fast(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, nn2.data());
  gemm_fast(false, true, m, n, k, 1.0f, a.data(), b.data(), 0.0f, nt2.data());
  spmm_nt_fast(csr, bx.data(), 17, p2.data());
  spmm_dn_fast(csr, bm.data(), 17, d2.data());
  set_parallelism(old_threads);

  EXPECT_EQ(0, std::memcmp(nn1.data(), nn2.data(), nn1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(nt1.data(), nt2.data(), nt1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(p1.data(), p2.data(), p1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(d1.data(), d2.data(), d1.size() * sizeof(float)));
}

// ---- Kernel-lane determinism ------------------------------------------------
// The panel-parallel engine threads row bands and pack strips over Executor
// kernel lanes. Fixed blocking + grain-aligned bands mean every lane count
// must reproduce the 1-lane result bitwise — not close, identical.

TEST(KernelDeterminism, GemmBitwiseStableAcrossKernelLaneCounts) {
  ScopedMode pin(Mode::kFast);
  Rng rng(111);
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  struct Shape {
    bool ta, tb;
    int64_t m, n, k;
  };
  // Tile-edge shapes (m % kMr, n % kNr nonzero) across the dispatch paths:
  // unpacked NN, packed multi-panel NN, TN, packed NT, unpacked NT.
  const Shape shapes[] = {
      {false, false, 61, 45, 77},   {false, false, 48, 600, 320}, {true, false, 33, 50, 40},
      {false, true, 30, 530, 256},  {false, true, 9, 33, 21},
  };
  for (const auto& s : shapes) {
    const auto a = random_dense(s.ta ? s.k * s.m : s.m * s.k, rng);
    const auto b = random_dense(s.tb ? s.n * s.k : s.k * s.n, rng);
    std::vector<float> base(static_cast<size_t>(s.m * s.n));
    ex.set_thread_budget(0);  // 1 lane: the serial oracle ordering
    gemm_fast(s.ta, s.tb, s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, base.data());
    for (int budget : {1, 2, 7}) {  // 2, 3, 8 lanes
      ex.set_thread_budget(budget);
      std::vector<float> got(base.size(), -1.0f);
      gemm_fast(s.ta, s.tb, s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, got.data());
      ASSERT_EQ(0, std::memcmp(base.data(), got.data(), base.size() * sizeof(float)))
          << "ta " << s.ta << " tb " << s.tb << " m " << s.m << " n " << s.n << " k " << s.k
          << " budget " << budget;
    }
  }
  ex.set_thread_budget(before);
}

TEST(KernelDeterminism, FusedEpilogueAndMaskStableAcrossKernelLaneCounts) {
  ScopedMode pin(Mode::kFast);
  Rng rng(113);
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  const int64_t m = 45, n = 530, k = 128;  // packed path, ragged tiles
  const auto a = random_dense(m * k, rng);
  const auto b = random_dense(k * n, rng);
  const auto cbias = random_dense(n, rng);
  GemmEpilogue epi;
  epi.col_bias = cbias.data();
  epi.relu = true;
  std::vector<float> base_c(static_cast<size_t>(m * n));
  std::vector<uint8_t> base_mask(base_c.size(), 2);
  ex.set_thread_budget(0);
  epi.relu_mask = base_mask.data();
  gemm_fast_ex(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, base_c.data(), epi);
  for (int budget : {1, 7}) {
    ex.set_thread_budget(budget);
    std::vector<float> c(base_c.size(), -1.0f);
    std::vector<uint8_t> mask(base_mask.size(), 2);
    epi.relu_mask = mask.data();
    gemm_fast_ex(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(), epi);
    ASSERT_EQ(0, std::memcmp(base_c.data(), c.data(), c.size() * sizeof(float))) << budget;
    ASSERT_EQ(base_mask, mask) << budget;
  }
  ex.set_thread_budget(before);
}

// ---- Fused-ReLU activation mask ---------------------------------------------

TEST(GemmEpilogue, ReluMaskRecordsPreClampPositivePredicate) {
  // mask[i] must be exactly (pre-clamp value > 0) — the nn::ReLU backward
  // predicate — in both engine modes, and the clamped output must be the
  // pre-clamp value gated by the mask.
  Rng rng(117);
  const int64_t m = 23, n = 37, k = 29;
  const auto a = random_dense(m * k, rng);
  const auto b = random_dense(k * n, rng);
  GemmEpilogue epi;
  epi.relu = true;
  for (Mode mode : {Mode::kReference, Mode::kFast}) {
    ScopedMode pin(mode);
    std::vector<float> pre(static_cast<size_t>(m * n)), post(pre);
    ops::gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, pre.data());
    std::vector<uint8_t> mask(pre.size(), 2);
    epi.relu_mask = mask.data();
    ops::gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, post.data(), epi);
    for (size_t i = 0; i < pre.size(); ++i) {
      const bool pos = pre[i] > 0.0f;
      ASSERT_EQ(mask[i], pos ? 1 : 0) << mode_name(mode) << " idx " << i;
      ASSERT_EQ(post[i], pos ? pre[i] : 0.0f) << mode_name(mode) << " idx " << i;
    }
  }
}

// ---- Batched conv data movers -----------------------------------------------

TEST(KernelParity, BatchedMoversBitwiseEqualReferenceAtAnyLaneCount) {
  Rng rng(131);
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  const int64_t batch = 3, c = 5, h = 13, w = 11, kh = 3, kw = 3, stride = 2, pad = 1;
  const int64_t oh = ops::conv_out_size(h, kh, stride, pad);
  const int64_t ow = ops::conv_out_size(w, kw, stride, pad);
  const int64_t col_rows = c * kh * kw, col_cols = oh * ow;
  const auto in = random_dense(batch * c * h * w, rng);
  std::vector<float> ref_cols(static_cast<size_t>(col_rows * batch * col_cols));
  im2col_batched_reference(in.data(), batch, c, h, w, kh, kw, stride, pad, ref_cols.data());
  const auto grad_cols = random_dense(col_rows * batch * col_cols, rng);
  std::vector<float> ref_out(in.size(), 0.0f);
  col2im_batched_reference(grad_cols.data(), batch, c, h, w, kh, kw, stride, pad, ref_out.data());
  for (int budget : {0, 2, 7}) {
    ex.set_thread_budget(budget);
    std::vector<float> cols(ref_cols.size(), -1.0f);
    im2col_batched_fast(in.data(), batch, c, h, w, kh, kw, stride, pad, cols.data());
    ASSERT_EQ(0, std::memcmp(ref_cols.data(), cols.data(), cols.size() * sizeof(float)))
        << "im2col budget " << budget;
    std::vector<float> out(ref_out.size(), 0.0f);
    col2im_batched_fast(grad_cols.data(), batch, c, h, w, kh, kw, stride, pad, out.data());
    ASSERT_EQ(0, std::memcmp(ref_out.data(), out.data(), out.size() * sizeof(float)))
        << "col2im budget " << budget;
  }
  // Rows flagged dead are skipped whatever they hold: the result equals the
  // reference over the same buffer with those rows zeroed.
  std::vector<uint8_t> dead(static_cast<size_t>(col_rows), 0);
  auto zeroed = grad_cols, garbage = grad_cols;
  for (int64_t r = 0; r < col_rows; r += 3) {
    dead[static_cast<size_t>(r)] = 1;
    std::fill_n(zeroed.begin() + r * batch * col_cols, batch * col_cols, 0.0f);
    std::fill_n(garbage.begin() + r * batch * col_cols, batch * col_cols, 1e30f);
  }
  std::vector<float> want(in.size(), 0.0f), got(in.size(), 0.0f);
  col2im_batched_reference(zeroed.data(), batch, c, h, w, kh, kw, stride, pad, want.data());
  ex.set_thread_budget(2);
  col2im_batched_fast(garbage.data(), batch, c, h, w, kh, kw, stride, pad, got.data(), dead.data());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), got.size() * sizeof(float)));
  ex.set_thread_budget(before);
}

TEST(GemmEpilogue, DeadRowsAreExactlyTheAllZeroRowsLeftUnwritten) {
  // Masked-dense TN operand (the conv backward's W^T): every third op(A) row
  // all zero, the rest ~1% dense. Flagged rows keep the caller's sentinel,
  // and every flag marks a row the plain GEMM writes as +0; unflagged rows
  // match the plain GEMM bitwise.
  ScopedMode pin(Mode::kFast);
  Rng rng(139);
  const int64_t m = 45, n = 96, k = 40;
  std::vector<float> a(static_cast<size_t>(k * m), 0.0f);
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t i = 0; i < m; ++i) {
      if (i % 3 != 0 && rng.uniform() < 0.05) a[static_cast<size_t>(p * m + i)] = rng.normal();
    }
  }
  const auto b = random_dense(k * n, rng);
  std::vector<float> plain(static_cast<size_t>(m * n));
  gemm_fast(true, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, plain.data());
  std::vector<float> c(plain.size(), -7.0f);
  std::vector<uint8_t> dead(static_cast<size_t>(m), 0);
  GemmEpilogue epi;
  epi.dead_rows = dead.data();
  gemm_fast_ex(true, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(), epi);
  int64_t flagged = 0;
  for (int64_t i = 0; i < m; ++i) {
    bool zero_row = true;
    for (int64_t p = 0; p < k; ++p) zero_row &= a[static_cast<size_t>(p * m + i)] == 0.0f;
    if (i % 3 == 0) EXPECT_EQ(dead[static_cast<size_t>(i)], 1) << "row " << i;
    for (int64_t j = 0; j < n; ++j) {
      const float want = dead[static_cast<size_t>(i)] != 0 ? -7.0f : plain[i * n + j];
      ASSERT_EQ(0, std::memcmp(&want, &c[i * n + j], sizeof(float))) << i << "," << j;
      if (dead[static_cast<size_t>(i)] != 0) {
        ASSERT_TRUE(zero_row) << "row " << i;
        ASSERT_EQ(std::signbit(plain[i * n + j]), false);
        ASSERT_EQ(plain[i * n + j], 0.0f);
      }
    }
    flagged += dead[static_cast<size_t>(i)];
  }
  EXPECT_GE(flagged, m / 3);
}

TEST(KernelParity, PermutesInvertEachOtherAndMatchNaiveLayout) {
  Rng rng(137);
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  const int64_t rows = 4, batch = 3, cols = 7;
  const auto staging = random_dense(rows * batch * cols, rng);
  std::vector<float> samples(staging.size(), -1.0f), round(staging.size(), -1.0f);
  for (int budget : {0, 3}) {
    ex.set_thread_budget(budget);
    permute_to_samples(staging.data(), rows, batch, cols, samples.data());
    for (int64_t i = 0; i < batch; ++i) {
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t j = 0; j < cols; ++j) {
          ASSERT_EQ(samples[static_cast<size_t>((i * rows + r) * cols + j)],
                    staging[static_cast<size_t>(r * batch * cols + i * cols + j)])
              << i << "," << r << "," << j;
        }
      }
    }
    permute_to_staging(samples.data(), rows, batch, cols, round.data());
    ASSERT_EQ(0, std::memcmp(staging.data(), round.data(), staging.size() * sizeof(float)));
  }
  ex.set_thread_budget(before);
}

TEST(KernelParity, PermuteLargeEnoughToEngageStreamingStores) {
  // Above kStreamMinBytes the permutes switch to non-temporal stores where
  // the CPU supports them; the bits must not care which store path ran.
  Rng rng(139);
  const int64_t rows = 2, batch = 2, cols = (1 << 18) + 3;  // > 2 MiB total
  const auto staging = random_dense(rows * batch * cols, rng);
  std::vector<float> samples(staging.size(), -1.0f), round(staging.size(), -1.0f);
  permute_to_samples(staging.data(), rows, batch, cols, samples.data());
  permute_to_staging(samples.data(), rows, batch, cols, round.data());
  EXPECT_EQ(0, std::memcmp(staging.data(), round.data(), staging.size() * sizeof(float)));
  EXPECT_EQ(samples[static_cast<size_t>(cols)],  // sample 0, row 1, col 0
            staging[static_cast<size_t>(batch * cols)]);
}

// ---- Pack scratch accounting ------------------------------------------------

TEST(KernelScratch, PackArenaBoundedAndSteadyAcrossRepeatedCalls) {
  ScopedMode pin(Mode::kFast);
  Rng rng(141);
  auto& ex = Executor::instance();
  const int before = ex.thread_budget();
  ex.set_thread_budget(3);
  const int64_t m = 32, n = 600, k = 320;  // engages the packed path
  const auto a = random_dense(m * k, rng);
  const auto b = random_dense(k * n, rng);
  std::vector<float> c(static_cast<size_t>(m * n));
  gemm_fast(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());  // warm arenas
  const int64_t high = scratch_bytes();
  EXPECT_GT(high, 0);  // the packed call must have gone through the arena
  // One L2 panel per packing thread is the contract; workers share the
  // caller's pack, so the global footprint stays a small multiple of the
  // panel budget no matter the lane count.
  EXPECT_LE(high, int64_t{1} << 21);
  for (int i = 0; i < 8; ++i) {
    gemm_fast(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  }
  EXPECT_EQ(scratch_bytes(), high) << "steady-state repeat calls must not grow pack scratch";
  // A smaller packed shape must reuse (not grow) the warm arena.
  gemm_fast(false, false, 16, 300, 256, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_LE(scratch_bytes(), high);
  ex.set_thread_budget(before);
}

}  // namespace
}  // namespace fedtiny::kernels
