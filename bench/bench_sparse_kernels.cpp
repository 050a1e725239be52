// Dense vs CSR kernels across mask densities 100% -> 5%, in both kernel
// engine modes (reference and fast).
//
// Forward kernels, matching the two nn-layer sparse dispatches:
//   conv:   W[out_c, fan_in] x cols[fan_in, spatial]   (ops::gemm vs spmm)
//   linear: x[batch, in] x W[out, in]^T                (ops::gemm vs spmm_nt)
// Backward kernels, matching the masked training path:
//   conv:   dW  = masked_grad_dot, dcols = spmm_tn
//   linear: dW  = masked_grad_tn,  dX    = spmm_dn
//
// Plus the conv-pipeline data movers (im2col/col2im, where fast must match
// reference bitwise), an end-to-end Conv2d forward+backward at the same
// geometry as bench_sparse_backward (dense and 10% masked training), and
// FedTiny's own tiny-plane conv shapes at 1% masked-dense, batch 32.
//
// Correctness: in reference mode CSR output must equal the dense output
// bitwise (the engine's oracle contract); fast mode is held to a relative
// tolerance against the reference result. Exit checks: CSR beats dense at
// <= 10% density (conv) / <= 5% (linear — PR 4's packed dense NT moved the
// gather-bound spmm_nt crossover below 10%), and the fast-mode CSR
// forward+backward aggregate beats reference at 10%.
//
// Usage: bench_sparse_kernels [--smoke]
// JSON:  set FEDTINY_BENCH_JSON=<path> to append records (see bench_json.h).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "nn/conv2d.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/sparse.h"

namespace {

using namespace fedtiny;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<uint8_t> random_mask(int64_t n, double density, Rng& rng) {
  std::vector<uint8_t> mask(static_cast<size_t>(n));
  for (auto& m : mask) m = rng.uniform() < density ? 1 : 0;
  return mask;
}

void fill_random(std::vector<float>& v, Rng& rng) {
  for (auto& x : v) x = rng.normal();
}

template <typename Fn>
double time_ms(int reps, Fn fn) {
  fn();  // warm
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return seconds_since(t0) * 1e3 / reps;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return m;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

const char* mode_str(kernels::Mode m) { return kernels::mode_name(m); }

struct Shapes {
  int64_t conv_out, conv_fan, conv_spatial;
  int64_t lin_out, lin_in, lin_batch;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int reps = smoke ? 3 : 30;
  // conv-shaped: resnet block at width 1.0; linear-shaped: classifier-ish.
  const Shapes sh = smoke ? Shapes{32, 288, 64, 64, 128, 16}
                          : Shapes{128, 1152, 256, 512, 1024, 64};
  const double densities[] = {1.0, 0.5, 0.25, 0.10, 0.05};
  constexpr kernels::Mode kModes[] = {kernels::Mode::kReference, kernels::Mode::kFast};

  benchjson::Writer json("bench_sparse_kernels");
  char shape_buf[64];
  auto conv_shape = [&](const char* what) {
    std::snprintf(shape_buf, sizeof(shape_buf), "%s:%ldx%ldx%ld", what,
                  static_cast<long>(sh.conv_out), static_cast<long>(sh.conv_fan),
                  static_cast<long>(sh.conv_spatial));
    return std::string(shape_buf);
  };
  auto lin_shape = [&](const char* what) {
    std::snprintf(shape_buf, sizeof(shape_buf), "%s:%ldx%ldx%ld", what,
                  static_cast<long>(sh.lin_batch), static_cast<long>(sh.lin_out),
                  static_cast<long>(sh.lin_in));
    return std::string(shape_buf);
  };

  Rng rng(7);
  bool low_density_wins = true;
  bool fast_beats_reference = true;

  std::printf("%-8s %-9s | %-26s | %-26s | %s\n", "", "", "conv W*cols (spmm)",
              "linear x*W^T (spmm_nt)", "csr fwd+bwd");
  std::printf("%-8s %-9s | %8s %8s %6s | %8s %8s %6s | %8s\n", "density", "mode", "dense_ms",
              "csr_ms", "spdup", "dense_ms", "csr_ms", "spdup", "total_ms");

  for (double density : densities) {
    // ---- conv-shaped operands (shared across modes). ----
    std::vector<float> w(static_cast<size_t>(sh.conv_out * sh.conv_fan));
    std::vector<float> cols(static_cast<size_t>(sh.conv_fan * sh.conv_spatial));
    std::vector<float> dy(static_cast<size_t>(sh.conv_out * sh.conv_spatial));
    fill_random(w, rng);
    fill_random(cols, rng);
    fill_random(dy, rng);
    const auto mask = random_mask(sh.conv_out * sh.conv_fan, density, rng);
    for (size_t i = 0; i < w.size(); ++i) {
      if (mask[i] == 0) w[i] = 0.0f;
    }
    const auto csr = sparse::csr_from_mask(w.data(), sh.conv_out, sh.conv_fan, mask);

    // ---- linear-shaped operands. ----
    std::vector<float> lw(static_cast<size_t>(sh.lin_out * sh.lin_in));
    std::vector<float> x(static_cast<size_t>(sh.lin_batch * sh.lin_in));
    std::vector<float> ldy(static_cast<size_t>(sh.lin_batch * sh.lin_out));
    fill_random(lw, rng);
    fill_random(x, rng);
    fill_random(ldy, rng);
    const auto lmask = random_mask(sh.lin_out * sh.lin_in, density, rng);
    for (size_t i = 0; i < lw.size(); ++i) {
      if (lmask[i] == 0) lw[i] = 0.0f;
    }
    auto lcsr = sparse::csr_from_mask(lw.data(), sh.lin_out, sh.lin_in, lmask);
    // Mirror Linear::install_sparse: the nt/dn kernels get the panel index.
    if (sh.lin_in > sparse::kDefaultPanelWidth) {
      sparse::build_panels(lcsr, sparse::kDefaultPanelWidth);
    }

    // Output buffers (dense-path results in reference mode are the oracle).
    std::vector<float> yd(static_cast<size_t>(sh.conv_out * sh.conv_spatial));
    std::vector<float> ys(yd.size());
    std::vector<float> ld(static_cast<size_t>(sh.lin_batch * sh.lin_out));
    std::vector<float> ls(ld.size());
    std::vector<float> dcols(static_cast<size_t>(sh.conv_fan * sh.conv_spatial));
    std::vector<float> grad(w.size());
    std::vector<float> ldx(static_cast<size_t>(sh.lin_batch * sh.lin_in));
    std::vector<float> lgrad(lw.size());
    std::vector<float> oracle_conv, oracle_lin;

    double csr_total_ms[2] = {0.0, 0.0};

    for (const kernels::Mode mode : kModes) {
      kernels::ScopedMode scoped(mode);
      const int mi = mode == kernels::Mode::kFast ? 1 : 0;

      // ---- forward ----
      const double conv_dense_ms = time_ms(reps, [&] {
        ops::gemm(false, false, sh.conv_out, sh.conv_spatial, sh.conv_fan, 1.0f, w.data(),
                  cols.data(), 0.0f, yd.data());
      });
      const double conv_csr_ms =
          time_ms(reps, [&] { sparse::spmm(csr, cols.data(), sh.conv_spatial, ys.data()); });
      const double lin_dense_ms = time_ms(reps, [&] {
        ops::gemm(false, true, sh.lin_batch, sh.lin_out, sh.lin_in, 1.0f, x.data(), lw.data(),
                  0.0f, ld.data());
      });
      const double lin_csr_ms =
          time_ms(reps, [&] { sparse::spmm_nt(lcsr, x.data(), sh.lin_batch, ls.data()); });

      // ---- backward kernels (masked training path) ----
      const double conv_dgrad_ms = time_ms(reps, [&] {
        std::memset(grad.data(), 0, grad.size() * sizeof(float));
        sparse::masked_grad_dot(csr, dy.data(), cols.data(), sh.conv_spatial, grad.data());
      });
      const double conv_dcols_ms =
          time_ms(reps, [&] { sparse::spmm_tn(csr, dy.data(), sh.conv_spatial, dcols.data()); });
      const double lin_dgrad_ms = time_ms(reps, [&] {
        std::memset(lgrad.data(), 0, lgrad.size() * sizeof(float));
        sparse::masked_grad_tn(lcsr, ldy.data(), x.data(), sh.lin_batch, lgrad.data());
      });
      const double lin_dx_ms =
          time_ms(reps, [&] { sparse::spmm_dn(lcsr, ldy.data(), sh.lin_batch, ldx.data()); });

      csr_total_ms[mi] =
          conv_csr_ms + lin_csr_ms + conv_dgrad_ms + conv_dcols_ms + lin_dgrad_ms + lin_dx_ms;

      // ---- correctness ----
      if (mode == kernels::Mode::kReference) {
        // Engine contract: reference CSR == reference dense, bitwise.
        if (!bitwise_equal(yd, ys) || !bitwise_equal(ld, ls)) {
          std::printf("FAIL: reference CSR does not match dense bitwise at density %.2f\n",
                      density);
          return 1;
        }
        oracle_conv = yd;
        oracle_lin = ld;
      } else {
        // Fast mode: reassociated sums; bound the drift against reference.
        const double conv_diff = max_abs_diff(ys, oracle_conv);
        const double lin_diff = max_abs_diff(ls, oracle_lin);
        const double tol = 1e-3;  // |terms| ~ sqrt(k), float eps 1.2e-7
        if (conv_diff > tol || lin_diff > tol) {
          std::printf("FAIL: fast/reference drift too large (conv %.3g, linear %.3g)\n", conv_diff,
                      lin_diff);
          return 1;
        }
      }

      // ---- report ----
      const double conv_speedup = conv_csr_ms > 0.0 ? conv_dense_ms / conv_csr_ms : 0.0;
      const double lin_speedup = lin_csr_ms > 0.0 ? lin_dense_ms / lin_csr_ms : 0.0;
      std::printf("%7.0f%% %-9s | %8.3f %8.3f %5.2fx | %8.3f %8.3f %5.2fx | %8.3f\n",
                  density * 100.0, mode_str(mode), conv_dense_ms, conv_csr_ms, conv_speedup,
                  lin_dense_ms, lin_csr_ms, lin_speedup, csr_total_ms[mi]);
      // Crossover gates. Conv CSR must win by 10% density. The linear gate
      // sits at 5%: PR 4's panel-packed dense NT GEMM is ~2.5x faster than
      // the PR 3 tile, which pushed the gather-bound spmm_nt's break-even
      // below 10% on the measured hosts — the dispatch threshold moved, not
      // the kernel's absolute speed (it also gained batch blocking+panels).
      if (density <= 0.10 && conv_speedup <= 1.0) low_density_wins = false;
      if (density <= 0.05 && lin_speedup <= 1.0) low_density_wins = false;

      const double conv_flops = 2.0 * static_cast<double>(csr.nnz()) * sh.conv_spatial;
      const double lin_flops = 2.0 * static_cast<double>(lcsr.nnz()) * sh.lin_batch;
      json.record("gemm_nn", conv_shape("WxCols"), density, mode_str(mode), conv_dense_ms,
                  2.0 * sh.conv_out * sh.conv_fan * sh.conv_spatial);
      json.record("spmm", conv_shape("WxCols"), density, mode_str(mode), conv_csr_ms, conv_flops);
      json.record("gemm_nt", lin_shape("xWt"), density, mode_str(mode), lin_dense_ms,
                  2.0 * sh.lin_batch * sh.lin_out * sh.lin_in);
      json.record("spmm_nt", lin_shape("xWt"), density, mode_str(mode), lin_csr_ms, lin_flops);
      json.record("masked_grad_dot", conv_shape("dW"), density, mode_str(mode), conv_dgrad_ms,
                  conv_flops);
      json.record("spmm_tn", conv_shape("dcols"), density, mode_str(mode), conv_dcols_ms,
                  conv_flops);
      json.record("masked_grad_tn", lin_shape("dW"), density, mode_str(mode), lin_dgrad_ms,
                  lin_flops);
      json.record("spmm_dn", lin_shape("dX"), density, mode_str(mode), lin_dx_ms, lin_flops);
      json.record("csr_fwd_bwd", "conv+linear", density, mode_str(mode), csr_total_ms[mi],
                  2.0 * (conv_flops + lin_flops) + conv_flops + lin_flops);
    }

    const double agg = csr_total_ms[1] > 0.0 ? csr_total_ms[0] / csr_total_ms[1] : 0.0;
    std::printf("%7.0f%% %-9s   csr fwd+bwd fast/ref: %.2fx\n", density * 100.0, "", agg);
    if (density == 0.10 && agg <= 1.0) fast_beats_reference = false;
  }

  // ---- im2col / col2im (the conv pipeline's data-movement kernels) ---------
  // Same geometry as the end-to-end conv block below. Unlike the arithmetic
  // kernels, fast here must equal reference bitwise (pure data movement /
  // order-preserving scatter-add), so the check is memcmp, not a tolerance.
  {
    const int64_t ci = smoke ? 8 : 64, img = smoke ? 8 : 16, batch = smoke ? 2 : 4;
    const int64_t kk = 3, stride = 1, pad = 1;
    const int64_t hw = img * img, fan = ci * kk * kk, bcols = batch * hw;
    std::vector<float> x(static_cast<size_t>(batch * ci * img * img));
    std::vector<float> cols_f(static_cast<size_t>(fan * bcols)), cols_r(cols_f.size());
    std::vector<float> gin_f(x.size()), gin_r(x.size());
    fill_random(x, rng);
    char im_shape[64];
    std::snprintf(im_shape, sizeof(im_shape), "im:%ldx%ldx%ld@b%ld", static_cast<long>(ci),
                  static_cast<long>(img), static_cast<long>(img), static_cast<long>(batch));

    std::printf("\n%-10s %-9s | %10s %10s\n", "kernel", "", "ref_ms", "fast_ms");
    const double im_ref = time_ms(reps, [&] {
      for (int64_t i = 0; i < batch; ++i) {
        kernels::im2col_reference(x.data() + i * ci * img * img, ci, img, img, kk, kk, stride, pad,
                                  cols_r.data() + i * hw, bcols);
      }
    });
    const double im_fast = time_ms(reps, [&] {
      for (int64_t i = 0; i < batch; ++i) {
        kernels::im2col_fast(x.data() + i * ci * img * img, ci, img, img, kk, kk, stride, pad,
                             cols_f.data() + i * hw, bcols);
      }
    });
    if (!bitwise_equal(cols_f, cols_r)) {
      std::printf("FAIL: fast im2col does not match reference bitwise\n");
      return 1;
    }
    const double c2_ref = time_ms(reps, [&] {
      std::memset(gin_r.data(), 0, gin_r.size() * sizeof(float));
      for (int64_t i = 0; i < batch; ++i) {
        kernels::col2im_reference(cols_r.data() + i * hw, ci, img, img, kk, kk, stride, pad,
                                  gin_r.data() + i * ci * img * img, bcols);
      }
    });
    const double c2_fast = time_ms(reps, [&] {
      std::memset(gin_f.data(), 0, gin_f.size() * sizeof(float));
      for (int64_t i = 0; i < batch; ++i) {
        kernels::col2im_fast(cols_f.data() + i * hw, ci, img, img, kk, kk, stride, pad,
                             gin_f.data() + i * ci * img * img, bcols);
      }
    });
    if (!bitwise_equal(gin_f, gin_r)) {
      std::printf("FAIL: fast col2im does not match reference bitwise\n");
      return 1;
    }
    std::printf("%-10s %-9s | %10.3f %10.3f\n", "im2col", "", im_ref, im_fast);
    std::printf("%-10s %-9s | %10.3f %10.3f\n", "col2im", "", c2_ref, c2_fast);
    json.record("im2col", im_shape, 1.0, "reference", im_ref, 0.0);
    json.record("im2col", im_shape, 1.0, "fast", im_fast, 0.0);
    json.record("col2im", im_shape, 1.0, "reference", c2_ref, 0.0);
    json.record("col2im", im_shape, 1.0, "fast", c2_fast, 0.0);
  }

  // ---- end-to-end Conv2d forward + backward --------------------------------
  // The layer-level cost the batched pipeline targets: one measurement per
  // (density, mode) at the bench_sparse_backward conv geometry. density 1.0
  // runs the dense pipeline; 0.10 installs masked sparse training.
  {
    const int64_t ci = smoke ? 8 : 64, co = smoke ? 16 : 128;
    const int64_t img = smoke ? 8 : 16, batch = smoke ? 2 : 4;
    char conv_e2e_shape[64];
    std::snprintf(conv_e2e_shape, sizeof(conv_e2e_shape), "conv:%ldx%ldx3x3@%ldb%ld",
                  static_cast<long>(co), static_cast<long>(ci), static_cast<long>(img),
                  static_cast<long>(batch));
    std::printf("\n%-8s %-9s | %12s %12s  (end-to-end Conv2d, %s)\n", "density", "mode", "fwd_ms",
                "bwd_ms", conv_e2e_shape);
    for (double density : {1.0, 0.10}) {
      std::vector<float> fwd_oracle, bwd_oracle;
      for (const kernels::Mode mode : kModes) {
        kernels::ScopedMode scoped(mode);
        Rng seed(3), data_rng(17);
        nn::Conv2d conv(ci, co, 3, 1, 1, /*bias=*/false, seed);
        const auto mask = random_mask(conv.weight().value.numel(), density, data_rng);
        for (int64_t i = 0; i < conv.weight().value.numel(); ++i) {
          if (mask[static_cast<size_t>(i)] == 0) conv.weight().value[i] = 0.0f;
        }
        if (density < 1.0) {
          conv.install_sparse({mask.data(), mask.size()}, 1.0f, /*train=*/true);
        }
        Tensor x({batch, ci, img, img}), dy({batch, co, img, img});
        for (auto& v : x.flat()) v = data_rng.normal();
        for (auto& v : dy.flat()) v = data_rng.normal();

        const double fwd_ms =
            time_ms(reps, [&] { conv.forward(x, nn::Mode::kTrain); });
        const double bwd_ms = time_ms(reps, [&] { conv.backward(dy); });

        // Correctness: gradient-free forward check against the reference-mode
        // result (reference first in kModes); fast must stay within the
        // engine's reassociation tolerance.
        Tensor y = conv.forward(x, nn::Mode::kTrain);
        conv.weight().grad.fill(0.0f);
        Tensor gin = conv.backward(dy);
        if (mode == kernels::Mode::kReference) {
          fwd_oracle.assign(y.data(), y.data() + y.numel());
          bwd_oracle.assign(gin.data(), gin.data() + gin.numel());
        } else {
          std::vector<float> yf(y.data(), y.data() + y.numel());
          std::vector<float> gf(gin.data(), gin.data() + gin.numel());
          if (max_abs_diff(yf, fwd_oracle) > 1e-3 || max_abs_diff(gf, bwd_oracle) > 1e-3) {
            std::printf("FAIL: conv e2e fast/reference drift too large at density %.2f\n",
                        density);
            return 1;
          }
        }
        std::printf("%7.0f%% %-9s | %12.3f %12.3f\n", density * 100.0, mode_str(mode), fwd_ms,
                    bwd_ms);
        json.record("conv_forward", conv_e2e_shape, density, mode_str(mode), fwd_ms, 0.0);
        json.record("conv_backward", conv_e2e_shape, density, mode_str(mode), bwd_ms, 0.0);
      }
    }
  }

  // ---- FedTiny's tiny planes: 1% masked-dense conv at batch 32 -------------
  // The paper workload's own conv geometry (tiny scale: ResNet18 at width 8
  // on 8x8 inputs, planes 8x8 down to 1x1), with the pruned weights masked
  // in place and no CSR installed — the dense batched fast pipeline FedTiny
  // trains with. Per distinct shape: the whole-batch movers (bitwise against
  // reference) and Conv2d forward/backward; the model_pass rows sum each
  // shape times its count among the network's 20 convs.
  {
    struct TinyConv {
      int64_t in_c, out_c, kernel, stride, size, count;
      double density;  // the stem is never pruned
    };
    const TinyConv convs[] = {
        {3, 8, 3, 1, 8, 1, 1.0},     {8, 8, 3, 1, 8, 4, 0.01},   {8, 16, 3, 2, 8, 1, 0.01},
        {8, 16, 1, 2, 8, 1, 0.01},   {16, 16, 3, 1, 4, 3, 0.01}, {16, 32, 3, 2, 4, 1, 0.01},
        {16, 32, 1, 2, 4, 1, 0.01},  {32, 32, 3, 1, 2, 3, 0.01}, {32, 64, 3, 2, 2, 1, 0.01},
        {32, 64, 1, 2, 2, 1, 0.01},  {64, 64, 3, 1, 1, 3, 0.01},
    };
    const int64_t batch = 32;
    const int tiny_reps = smoke ? 3 : 10 * reps;
    kernels::ScopedMode scoped(kernels::Mode::kFast);
    std::printf("\n%-22s %8s | %10s %10s %10s %10s  (fast, batch %ld)\n", "tiny plane conv",
                "density", "im2col_ms", "col2im_ms", "fwd_ms", "bwd_ms", static_cast<long>(batch));
    double pass[4] = {0.0, 0.0, 0.0, 0.0};
    for (const TinyConv& tc : convs) {
      const int64_t pad = tc.kernel / 2;
      const int64_t out = (tc.size + 2 * pad - tc.kernel) / tc.stride + 1;
      const int64_t fan = tc.in_c * tc.kernel * tc.kernel, bcols = batch * out * out;
      char shape[64];
      std::snprintf(shape, sizeof(shape), "tiny:%ldx%ldx%ldx%ld@%lds%ldb%ld",
                    static_cast<long>(tc.out_c), static_cast<long>(tc.in_c),
                    static_cast<long>(tc.kernel), static_cast<long>(tc.kernel),
                    static_cast<long>(tc.size), static_cast<long>(tc.stride),
                    static_cast<long>(batch));

      std::vector<float> x(static_cast<size_t>(batch * tc.in_c * tc.size * tc.size));
      fill_random(x, rng);
      std::vector<float> cols_f(static_cast<size_t>(fan * bcols)), cols_r(cols_f.size());
      std::vector<float> gin_f(x.size()), gin_r(x.size());
      const double im_ms = time_ms(tiny_reps, [&] {
        kernels::im2col_batched_fast(x.data(), batch, tc.in_c, tc.size, tc.size, tc.kernel,
                                     tc.kernel, tc.stride, pad, cols_f.data());
      });
      const double c2_ms = time_ms(tiny_reps, [&] {
        std::memset(gin_f.data(), 0, gin_f.size() * sizeof(float));
        kernels::col2im_batched_fast(cols_f.data(), batch, tc.in_c, tc.size, tc.size, tc.kernel,
                                     tc.kernel, tc.stride, pad, gin_f.data());
      });
      kernels::im2col_batched_reference(x.data(), batch, tc.in_c, tc.size, tc.size, tc.kernel,
                                        tc.kernel, tc.stride, pad, cols_r.data());
      kernels::col2im_batched_reference(cols_r.data(), batch, tc.in_c, tc.size, tc.size,
                                        tc.kernel, tc.kernel, tc.stride, pad, gin_r.data());
      if (!bitwise_equal(cols_f, cols_r) || !bitwise_equal(gin_f, gin_r)) {
        std::printf("FAIL: fast batched movers do not match reference bitwise at %s\n", shape);
        return 1;
      }

      Rng seed(5);
      nn::Conv2d conv(tc.in_c, tc.out_c, tc.kernel, tc.stride, pad, /*bias=*/false, seed);
      const auto mask = random_mask(conv.weight().value.numel(), tc.density, rng);
      for (int64_t i = 0; i < conv.weight().value.numel(); ++i) {
        if (mask[static_cast<size_t>(i)] == 0) conv.weight().value[i] = 0.0f;
      }
      Tensor xt({batch, tc.in_c, tc.size, tc.size}), dy({batch, tc.out_c, out, out});
      std::memcpy(xt.data(), x.data(), x.size() * sizeof(float));
      for (auto& v : dy.flat()) v = rng.normal();
      const double fwd_ms = time_ms(tiny_reps, [&] { conv.forward(xt, nn::Mode::kTrain); });
      const double bwd_ms = time_ms(tiny_reps, [&] { conv.backward(dy); });

      std::printf("%-22s %7.0f%% | %10.4f %10.4f %10.4f %10.4f  x%ld\n", shape + 5,
                  tc.density * 100.0, im_ms, c2_ms, fwd_ms, bwd_ms, static_cast<long>(tc.count));
      json.record("im2col_batched", shape, 1.0, "fast", im_ms, 0.0);
      json.record("col2im_batched", shape, 1.0, "fast", c2_ms, 0.0);
      json.record("conv_forward", shape, tc.density, "fast", fwd_ms, 0.0);
      json.record("conv_backward", shape, tc.density, "fast", bwd_ms, 0.0);
      const double times[4] = {im_ms, c2_ms, fwd_ms, bwd_ms};
      for (int t = 0; t < 4; ++t) pass[t] += static_cast<double>(tc.count) * times[t];
    }
    std::printf("%-22s %8s | %10.4f %10.4f %10.4f %10.4f\n", "model pass (20 convs)", "", pass[0],
                pass[1], pass[2], pass[3]);
    json.record("im2col_batched", "tiny:model_pass@b32", 1.0, "fast", pass[0], 0.0);
    json.record("col2im_batched", "tiny:model_pass@b32", 1.0, "fast", pass[1], 0.0);
    json.record("conv_forward", "tiny:model_pass@b32", 0.01, "fast", pass[2], 0.0);
    json.record("conv_backward", "tiny:model_pass@b32", 0.01, "fast", pass[3], 0.0);
  }

  if (!smoke && !low_density_wins) {
    std::printf("FAIL: CSR did not beat dense at <=10%% density (conv) or 5%% (linear)\n");
    return 1;
  }
  if (!smoke && !fast_beats_reference) {
    std::printf("FAIL: fast CSR fwd+bwd did not beat reference at 10%% density\n");
    return 1;
  }
  return 0;
}
