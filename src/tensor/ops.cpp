#include "tensor/ops.h"

#include <cmath>
#include <cstring>

#include "tensor/kernels.h"
#include "tensor/parallel.h"

namespace fedtiny::ops {

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha, const float* a,
          const float* b, float beta, float* c) {
  // Row-major. Leading dims follow the *stored* layout:
  //   !trans_a: a is [m,k]; trans_a: a is [k,m].
  //   !trans_b: b is [k,n]; trans_b: b is [n,k].
  // Implementation lives in the kernel engine (tensor/kernels.h).
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::gemm_fast(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
  } else {
    kernels::gemm_reference(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
  }
}

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c,
          const kernels::GemmEpilogue& epi) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::gemm_fast_ex(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, epi);
  } else {
    kernels::gemm_reference(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
    kernels::gemm_epilogue_apply(m, n, c, epi);
  }
}

void im2col(const float* in, int64_t channels, int64_t height, int64_t width, int64_t kernel_h,
            int64_t kernel_w, int64_t stride, int64_t pad, float* out) {
  const int64_t out_hw =
      conv_out_size(height, kernel_h, stride, pad) * conv_out_size(width, kernel_w, stride, pad);
  im2col(in, channels, height, width, kernel_h, kernel_w, stride, pad, out, out_hw);
}

void im2col(const float* in, int64_t channels, int64_t height, int64_t width, int64_t kernel_h,
            int64_t kernel_w, int64_t stride, int64_t pad, float* out, int64_t out_ld) {
  // Implementation lives in the kernel engine (tensor/kernels.h). Both modes
  // write identical bits; the split exists so FEDTINY_KERNELS=reference runs
  // only the pinned scalar loops.
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::im2col_fast(in, channels, height, width, kernel_h, kernel_w, stride, pad, out, out_ld);
  } else {
    kernels::im2col_reference(in, channels, height, width, kernel_h, kernel_w, stride, pad, out,
                              out_ld);
  }
}

void col2im(const float* cols, int64_t channels, int64_t height, int64_t width, int64_t kernel_h,
            int64_t kernel_w, int64_t stride, int64_t pad, float* out) {
  const int64_t out_hw =
      conv_out_size(height, kernel_h, stride, pad) * conv_out_size(width, kernel_w, stride, pad);
  col2im(cols, channels, height, width, kernel_h, kernel_w, stride, pad, out, out_hw);
}

void col2im(const float* cols, int64_t channels, int64_t height, int64_t width, int64_t kernel_h,
            int64_t kernel_w, int64_t stride, int64_t pad, float* out, int64_t cols_ld) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::col2im_fast(cols, channels, height, width, kernel_h, kernel_w, stride, pad, out,
                         cols_ld);
  } else {
    kernels::col2im_reference(cols, channels, height, width, kernel_h, kernel_w, stride, pad, out,
                              cols_ld);
  }
}

void im2col_batched(const float* in, int64_t batch, int64_t channels, int64_t height, int64_t width,
                    int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* cols) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::im2col_batched_fast(in, batch, channels, height, width, kernel_h, kernel_w, stride,
                                 pad, cols);
  } else {
    kernels::im2col_batched_reference(in, batch, channels, height, width, kernel_h, kernel_w,
                                      stride, pad, cols);
  }
}

void col2im_batched(const float* cols, int64_t batch, int64_t channels, int64_t height,
                    int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad,
                    float* out, const uint8_t* dead_rows) {
  if (kernels::mode() == kernels::Mode::kFast) {
    kernels::col2im_batched_fast(cols, batch, channels, height, width, kernel_h, kernel_w, stride,
                                 pad, out, dead_rows);
  } else {
    kernels::col2im_batched_reference(cols, batch, channels, height, width, kernel_h, kernel_w,
                                      stride, pad, out);
  }
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  const size_t n = std::min(x.size(), y.size());
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void apply_mask(std::span<float> x, std::span<const uint8_t> mask) {
  const size_t n = std::min(x.size(), mask.size());
  for (size_t i = 0; i < n; ++i) {
    if (mask[i] == 0) x[i] = 0.0f;
  }
}

double sum(std::span<const float> x) {
  double s = 0.0;
  for (float v : x) s += v;
  return s;
}

double l2_norm(std::span<const float> x) {
  double s = 0.0;
  for (float v : x) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

}  // namespace fedtiny::ops
