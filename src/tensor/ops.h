// Math kernels shared by the neural-network layers: GEMM, im2col/col2im,
// and a handful of elementwise helpers. GEMM and im2col/col2im dispatch on
// the process-wide kernel engine mode (tensor/kernels.h): `reference` scalar
// loops (the bitwise oracle) or vectorized `fast` implementations (the
// default). The remaining helpers are plain loops with OpenMP-parallel outer
// dimensions — fast enough for the scaled-down reproduction workloads,
// dependency-free.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace fedtiny::ops {

/// C[m,n] = alpha * op(A) * op(B) + beta * C.
/// op(A) is A[m,k] when !trans_a, A^T (stored as [k,m]) when trans_a.
void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// gemm with a fused bias(+ReLU) epilogue (see kernels::GemmEpilogue). The
/// epilogue's effect is mode-independent: fast mode fuses it into the tile
/// write-back, reference mode applies it as an ordered post-pass over C —
/// both bitwise-identical to running the plain gemm of the same mode
/// followed by the separate bias/activation loops the layers used before.
void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha, const float* a,
          const float* b, float beta, float* c, const kernels::GemmEpilogue& epi);

/// Expand input image patches into columns.
/// in: [C, H, W] single image. out: [C*kh*kw, out_h*out_w].
void im2col(const float* in, int64_t channels, int64_t height, int64_t width, int64_t kernel_h,
            int64_t kernel_w, int64_t stride, int64_t pad, float* out);

/// im2col with an explicit output row pitch `out_ld` (>= out_h*out_w): the
/// batched conv pipeline packs per-sample blocks side by side in one
/// [C*kh*kw, batch*out_h*out_w] buffer and passes the block's base pointer
/// plus the full buffer pitch. Fast and reference modes write identical bits
/// (pure data movement).
void im2col(const float* in, int64_t channels, int64_t height, int64_t width, int64_t kernel_h,
            int64_t kernel_w, int64_t stride, int64_t pad, float* out, int64_t out_ld);

/// Inverse of im2col: scatter-add columns back to image gradient.
void col2im(const float* cols, int64_t channels, int64_t height, int64_t width, int64_t kernel_h,
            int64_t kernel_w, int64_t stride, int64_t pad, float* out);

/// col2im with an explicit input row pitch `cols_ld` (batched column buffer,
/// see the im2col overload). Fast and reference modes produce identical bits
/// (the fast variant preserves the per-element accumulation order).
void col2im(const float* cols, int64_t channels, int64_t height, int64_t width, int64_t kernel_h,
            int64_t kernel_w, int64_t stride, int64_t pad, float* out, int64_t cols_ld);

/// Whole-batch im2col into one [C*kh*kw, batch*out_h*out_w] staging buffer
/// (sample i's block at column i*out_h*out_w). Fast threads (row x sample)
/// items over kernel lanes; both modes write identical bits.
void im2col_batched(const float* in, int64_t batch, int64_t channels, int64_t height, int64_t width,
                    int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad, float* cols);

/// Whole-batch col2im accumulating into `out` (batch contiguous [C, H, W]
/// samples, caller-zeroed). Fast threads (channel x sample) items and skips
/// the rows flagged in `dead_rows` (see kernels::col2im_batched_fast);
/// reference mode, whose GEMM flags no rows, ignores the flags. Both modes
/// produce identical bits.
void col2im_batched(const float* cols, int64_t batch, int64_t channels, int64_t height,
                    int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t stride, int64_t pad,
                    float* out, const uint8_t* dead_rows = nullptr);

/// y += alpha * x.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// Elementwise y = x * m (mask application).
void apply_mask(std::span<float> x, std::span<const uint8_t> mask);

/// Sum of all elements.
double sum(std::span<const float> x);

/// L2 norm.
double l2_norm(std::span<const float> x);

/// Output spatial size for a conv/pool dimension.
inline int64_t conv_out_size(int64_t in, int64_t kernel, int64_t stride, int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace fedtiny::ops
