// Reference kernel implementations: the scalar loops shipped in PR 1/2,
// moved here verbatim. They are the bitwise oracle of the engine — the
// accumulation order of every CSR kernel mirrors the dense gemm's loop with
// its zero-operand skip, so reference-mode sparse results are bitwise
// identical to the dense path over the same masked weight. Do not "improve"
// these loops; tests/tensor/test_kernels.cpp pins them against an inlined
// copy of the original code.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "tensor/sparse.h"

namespace fedtiny::kernels {

Mode mode_from_name(const char* name, Mode fallback) {
  if (name == nullptr) return fallback;
  if (std::strcmp(name, "reference") == 0) return Mode::kReference;
  if (std::strcmp(name, "fast") == 0) return Mode::kFast;
  return fallback;
}

Mode parse_mode(const char* name) {
  if (name != nullptr) {
    if (std::strcmp(name, "reference") == 0) return Mode::kReference;
    if (std::strcmp(name, "fast") == 0) return Mode::kFast;
  }
  throw std::invalid_argument("unknown kernels mode: " +
                              std::string(name != nullptr ? name : "(null)") + " (expected " +
                              kModeNames + ")");
}

Mode detail::mode_from_env() {
  const char* env = std::getenv(kModeEnv);
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "reference") != 0 &&
      std::strcmp(env, "fast") != 0) {
    std::fprintf(stderr, "%s=%s ignored: expected %s; using \"fast\"\n", kModeEnv, env,
                 kModeNames);
  }
  return mode_from_name(env);
}

const char* mode_name(Mode mode) {
  return mode == Mode::kReference ? "reference" : "fast";
}

void gemm_reference(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
                    const float* a, const float* b, float beta, float* c) {
  // Row-major. Leading dims follow the *stored* layout:
  //   !trans_a: a is [m,k]; trans_a: a is [k,m].
  //   !trans_b: b is [k,n]; trans_b: b is [n,k].
  parallel_for(m, [&](int64_t i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    if (trans_b && !trans_a) {
      // Dot-product order: both a-row and b-row are contiguous.
      const float* arow = a + i * k;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float s = 0.0f;
        for (int64_t p = 0; p < k; ++p) s += arow[p] * brow[p];
        crow[j] += alpha * s;
      }
      return;
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
  });
}

void gemm_epilogue_apply(int64_t m, int64_t n, float* c, const GemmEpilogue& epi) {
  if (!epi.active()) return;
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (epi.row_bias != nullptr) {
      const float rb = epi.row_bias[i];
      for (int64_t j = 0; j < n; ++j) crow[j] += rb;
    }
    if (epi.col_bias != nullptr) {
      for (int64_t j = 0; j < n; ++j) crow[j] += epi.col_bias[j];
    }
    if (epi.relu) {
      if (epi.relu_mask != nullptr) {
        uint8_t* mrow = epi.relu_mask + i * n;
        for (int64_t j = 0; j < n; ++j) {
          const bool pos = crow[j] > 0.0f;
          mrow[j] = pos ? 1 : 0;
          if (!pos) crow[j] = 0.0f;
        }
      } else {
        for (int64_t j = 0; j < n; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
      }
    }
  }
}

void im2col_reference(const float* in, int64_t channels, int64_t height, int64_t width,
                      int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* out,
                      int64_t out_ld) {
  // The PR 1 ops::im2col loop verbatim; `out_ld` replaces the implicit
  // out_h*out_w row pitch (address arithmetic only — the values written are
  // unchanged, pinned bitwise by tests/tensor/test_kernels.cpp).
  const int64_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const int64_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  const int64_t col_rows = channels * kernel_h * kernel_w;
  parallel_for(col_rows, [&](int64_t row) {
    const int64_t c = row / (kernel_h * kernel_w);
    const int64_t rem = row % (kernel_h * kernel_w);
    const int64_t kh = rem / kernel_w;
    const int64_t kw = rem % kernel_w;
    float* out_row = out + row * out_ld;
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
  });
}

void col2im_reference(const float* cols, int64_t channels, int64_t height, int64_t width,
                      int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* out,
                      int64_t cols_ld) {
  // The PR 1 ops::col2im loop verbatim; `cols_ld` replaces the implicit
  // out_h*out_w row pitch (address arithmetic only).
  const int64_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const int64_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  // Parallel over channels: each channel's scatter targets are disjoint.
  parallel_for(channels, [&](int64_t c) {
    float* out_c = out + c * height * width;
    for (int64_t kh = 0; kh < kernel_h; ++kh) {
      for (int64_t kw = 0; kw < kernel_w; ++kw) {
        const int64_t row = (c * kernel_h + kh) * kernel_w + kw;
        const float* col_row = cols + row * cols_ld;
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
  });
}

void im2col_batched_reference(const float* in, int64_t batch, int64_t channels, int64_t height,
                              int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                              int64_t pad, float* cols) {
  // Serial per-sample loop over the pitched single-sample reference mover —
  // the exact PR 4 batched-pipeline staging order.
  const int64_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const int64_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  const int64_t col_cols = out_h * out_w;
  for (int64_t i = 0; i < batch; ++i) {
    im2col_reference(in + i * channels * height * width, channels, height, width, kernel_h,
                     kernel_w, stride, pad, cols + i * col_cols, batch * col_cols);
  }
}

void col2im_batched_reference(const float* cols, int64_t batch, int64_t channels, int64_t height,
                              int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                              int64_t pad, float* out) {
  const int64_t out_h = (height + 2 * pad - kernel_h) / stride + 1;
  const int64_t out_w = (width + 2 * pad - kernel_w) / stride + 1;
  const int64_t col_cols = out_h * out_w;
  for (int64_t i = 0; i < batch; ++i) {
    col2im_reference(cols + i * col_cols, channels, height, width, kernel_h, kernel_w, stride, pad,
                     out + i * channels * height * width, batch * col_cols);
  }
}

void spmm_reference(const sparse::CsrMatrix& a, const float* b, int64_t n, float* c,
                    bool accumulate) {
  // Row-of-C parallel: each CSR row touches only its own output row. The
  // inner accumulation visits columns in ascending order, matching the dense
  // gemm's k-loop with zero-skipping (bitwise-identical results).
  parallel_for(a.rows, [&](int64_t i) {
    float* crow = c + i * n;
    if (!accumulate) std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
    for (int64_t p = a.row_ptr[static_cast<size_t>(i)]; p < a.row_ptr[static_cast<size_t>(i) + 1];
         ++p) {
      const float v = a.values[static_cast<size_t>(p)];
      const float* brow = b + static_cast<int64_t>(a.col_idx[static_cast<size_t>(p)]) * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += v * brow[j];
    }
  });
}

void spmm_nt_reference(const sparse::CsrMatrix& a, const float* b, int64_t n_rows, float* c) {
  // C[i, j] = <B row i, A row j>; the sparse dot walks A's kept columns in
  // ascending order — same accumulation order as the dense dot over all k.
  parallel_for(n_rows, [&](int64_t i) {
    const float* brow = b + i * a.cols;
    float* crow = c + i * a.rows;
    for (int64_t j = 0; j < a.rows; ++j) {
      float s = 0.0f;
      for (int64_t p = a.row_ptr[static_cast<size_t>(j)];
           p < a.row_ptr[static_cast<size_t>(j) + 1]; ++p) {
        s += a.values[static_cast<size_t>(p)] * brow[a.col_idx[static_cast<size_t>(p)]];
      }
      crow[j] = s;
    }
  });
}

void spmm_dn_reference(const sparse::CsrMatrix& a, const float* b, int64_t n_rows, float* c) {
  // C row i accumulates over CSR rows j in ascending order — the dense
  // gemm(false, false) k-loop, which also skips b[i, j] == 0, so the skip is
  // mirrored here for bitwise agreement.
  parallel_for(n_rows, [&](int64_t i) {
    const float* brow = b + i * a.rows;
    float* crow = c + i * a.cols;
    std::memset(crow, 0, static_cast<size_t>(a.cols) * sizeof(float));
    for (int64_t j = 0; j < a.rows; ++j) {
      const float bv = brow[j];
      if (bv == 0.0f) continue;
      for (int64_t p = a.row_ptr[static_cast<size_t>(j)];
           p < a.row_ptr[static_cast<size_t>(j) + 1]; ++p) {
        crow[a.col_idx[static_cast<size_t>(p)]] += bv * a.values[static_cast<size_t>(p)];
      }
    }
  });
}

void spmm_tn_reference(const sparse::CsrMatrix& a, const float* b, int64_t n, float* c) {
  // Scatter form: every output element (j, t) accumulates over CSR rows i in
  // ascending order, exactly the dense gemm(true, false) k-loop with its
  // zero-operand skip (kept-but-zero values are skipped there too).
  std::memset(c, 0, static_cast<size_t>(a.cols * n) * sizeof(float));
  for (int64_t i = 0; i < a.rows; ++i) {
    const float* brow = b + i * n;
    for (int64_t p = a.row_ptr[static_cast<size_t>(i)]; p < a.row_ptr[static_cast<size_t>(i) + 1];
         ++p) {
      const float v = a.values[static_cast<size_t>(p)];
      if (v == 0.0f) continue;
      float* crow = c + static_cast<int64_t>(a.col_idx[static_cast<size_t>(p)]) * n;
      for (int64_t t = 0; t < n; ++t) crow[t] += v * brow[t];
    }
  }
}

void masked_grad_dot_reference(const sparse::CsrMatrix& s, const float* a, const float* b,
                               int64_t n, float* grad) {
  // Per structure entry: one contiguous dot over t ascending, then a single
  // add into grad — the dense gemm(false, true) dot-product path restricted
  // to the mask's support. Rows of grad are disjoint across CSR rows.
  parallel_for(s.rows, [&](int64_t i) {
    const float* arow = a + i * n;
    float* grow = grad + i * s.cols;
    for (int64_t p = s.row_ptr[static_cast<size_t>(i)]; p < s.row_ptr[static_cast<size_t>(i) + 1];
         ++p) {
      const float* brow = b + static_cast<int64_t>(s.col_idx[static_cast<size_t>(p)]) * n;
      float acc = 0.0f;
      for (int64_t t = 0; t < n; ++t) acc += arow[t] * brow[t];
      grow[s.col_idx[static_cast<size_t>(p)]] += acc;
    }
  });
}

void masked_grad_tn_reference(const sparse::CsrMatrix& s, const float* a, const float* b, int64_t n,
                              float* grad) {
  // Per structure row i: accumulate over samples r ascending, skipping
  // a[r, i] == 0 — the dense gemm(true, false) k-loop order and skip,
  // restricted to the mask's support. Rows of grad are disjoint.
  parallel_for(s.rows, [&](int64_t i) {
    float* grow = grad + i * s.cols;
    for (int64_t r = 0; r < n; ++r) {
      const float av = a[r * s.rows + i];
      if (av == 0.0f) continue;
      const float* brow = b + r * s.cols;
      for (int64_t p = s.row_ptr[static_cast<size_t>(i)];
           p < s.row_ptr[static_cast<size_t>(i) + 1]; ++p) {
        grow[s.col_idx[static_cast<size_t>(p)]] += av * brow[s.col_idx[static_cast<size_t>(p)]];
      }
    }
  });
}

}  // namespace fedtiny::kernels
