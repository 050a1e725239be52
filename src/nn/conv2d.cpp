#include "nn/conv2d.h"

#include <cassert>
#include <cstring>

#include "nn/init.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace fedtiny::nn {

namespace {

/// Allocation-free shape check for the cached workspaces (building a Tensor
/// or a shape vector just to compare would put a heap allocation back into
/// the per-step path).
bool has_shape(const Tensor& t, std::initializer_list<int64_t> dims) {
  if (t.rank() != static_cast<int>(dims.size())) return false;
  int i = 0;
  for (int64_t d : dims) {
    if (t.dim(i++) != d) return false;
  }
  return true;
}

}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel, int64_t stride,
               int64_t pad, bool bias, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_.value = Tensor({out_channels, fan_in});
  weight_.grad = Tensor({out_channels, fan_in});
  weight_.prunable = true;  // may be cleared by the model factory for the input layer
  kaiming_normal(weight_.value, fan_in, rng);
  if (has_bias_) {
    bias_.value = Tensor({out_channels});
    bias_.grad = Tensor({out_channels});
  }
}

Tensor Conv2d::forward(const Tensor& x, Mode mode) {
  assert(x.rank() == 4 && x.dim(1) == in_channels_);
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t out_h = ops::conv_out_size(h, kernel_, stride_, pad_);
  const int64_t out_w = ops::conv_out_size(w, kernel_, stride_, pad_);
  const int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const int64_t col_cols = out_h * out_w;

  last_n_ = n;
  last_in_h_ = h;
  last_in_w_ = w;
  last_out_h_ = out_h;
  last_out_w_ = out_w;

  Tensor y({n, out_channels_, out_h, out_w});
  const bool use_sparse = sparse_active() && (mode != Mode::kTrain || sparse_train_);
  // Batched layout only pays for the dense GEMM pipeline (packed register
  // tiles): the CSR kernels gather B rows, and in the [fan_in, n*out_hw]
  // buffer consecutive rows sit whole pages apart, which measured slower
  // than the per-sample walk (1 KiB row pitch, hardware-prefetch friendly).
  // The sparse fast path therefore keeps the per-sample loop — it still
  // gets the fast im2col/col2im through the ops:: dispatch.
  batched_ = kernels::mode() == kernels::Mode::kFast && !use_sparse;

  if (batched_) {
    // Batched pipeline: one [fan_in, n*out_hw] column buffer, one big GEMM,
    // then a permute from the GEMM's [out_c, n*out_hw] layout to the
    // sample-major output. Bias (and the fused ReLU clamp, when installed)
    // ride the GEMM epilogue — one pass over y instead of two or three.
    const int64_t bcols = n * col_cols;
    if (!has_shape(cols_, {col_rows, bcols})) cols_ = Tensor({col_rows, bcols});
    if (!has_shape(ybuf_, {out_channels_, bcols})) ybuf_ = Tensor({out_channels_, bcols});
    ops::im2col_batched(x.data(), n, in_channels_, h, w, kernel_, kernel_, stride_, pad_,
                        cols_.data());
    kernels::GemmEpilogue epi;
    if (has_bias_) epi.row_bias = bias_.value.data();
    if (fused_relu_) {
      epi.relu = true;
      if (mode == Mode::kTrain) {
        // Mask recorded at tile write-back in GEMM layout, permuted to the
        // output layout alongside y below.
        maskbuf_.resize(static_cast<size_t>(out_channels_ * bcols));
        epi.relu_mask = maskbuf_.data();
      }
    }
    ops::gemm(false, false, out_channels_, bcols, col_rows, 1.0f, weight_.value.data(),
              cols_.data(), 0.0f, ybuf_.data(), epi);
    kernels::permute_to_samples(ybuf_.data(), out_channels_, n, col_cols, y.data());
    if (epi.relu_mask != nullptr) {
      relu_mask_.resize(static_cast<size_t>(n * out_channels_ * col_cols));
      parallel_for(n * out_channels_, [&](int64_t idx) {
        const int64_t i = idx / out_channels_;
        const int64_t o = idx % out_channels_;
        std::memcpy(relu_mask_.data() + idx * col_cols, maskbuf_.data() + o * bcols + i * col_cols,
                    static_cast<size_t>(col_cols));
      });
    }
  } else {
    // Per-sample pipeline (reference mode verbatim — reference results must
    // reproduce the pre-batching pipeline bitwise — and the sparse fast
    // path, whose ops:: calls dispatch to the fast kernels).
    if (!has_shape(cols_, {n, col_rows, col_cols})) {
      cols_ = Tensor({n, col_rows, col_cols});
    }
    for (int64_t i = 0; i < n; ++i) {
      float* cols_i = cols_.data() + i * col_rows * col_cols;
      ops::im2col(x.data() + i * in_channels_ * h * w, in_channels_, h, w, kernel_, kernel_,
                  stride_, pad_, cols_i);
      if (use_sparse) {
        sparse::spmm(sparse_weight_, cols_i, col_cols, y.data() + i * out_channels_ * col_cols);
      } else {
        ops::gemm(false, false, out_channels_, col_cols, col_rows, 1.0f, weight_.value.data(),
                  cols_i, 0.0f, y.data() + i * out_channels_ * col_cols);
      }
    }
    if (has_bias_) {
      parallel_for(n * out_channels_, [&](int64_t idx) {
        float* row = y.data() + idx * col_cols;
        const float b = bias_.value[idx % out_channels_];
        for (int64_t j = 0; j < col_cols; ++j) row[j] += b;
      });
    }
    if (fused_relu_) {
      // Ordered post-pass over the finished output — exactly what the
      // separate nn::ReLU layer computes (same predicate, same order), so
      // reference-mode and sparse fused results are bitwise-identical to the
      // unfused graph.
      const int64_t total = y.numel();
      float* yd = y.data();
      if (mode == Mode::kTrain) {
        relu_mask_.resize(static_cast<size_t>(total));
        for (int64_t t = 0; t < total; ++t) {
          const bool pos = yd[t] > 0.0f;
          relu_mask_[static_cast<size_t>(t)] = pos ? 1 : 0;
          if (!pos) yd[t] = 0.0f;
        }
      } else {
        for (int64_t t = 0; t < total; ++t) {
          if (!(yd[t] > 0.0f)) yd[t] = 0.0f;
        }
      }
    }
  }
  if (mode != Mode::kTrain) {
    // No backward coming; free the per-step workspaces (masks included).
    // Serving replicas opt out: retaining cols_/ybuf_ keeps a steady eval
    // stream at a stable batch shape zero-alloc.
    if (!retain_eval_workspace_) {
      cols_ = Tensor();
      ybuf_ = Tensor();
    }
    dcols_ = Tensor();
    dybuf_ = Tensor();
    // Not `= {}`: the initializer_list overload keeps the allocation.
    relu_mask_ = std::vector<uint8_t>();
    maskbuf_ = std::vector<uint8_t>();
    dead_rows_ = std::vector<uint8_t>();
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (fused_relu_) {
    // ReLU backward first: zero the upstream gradient wherever the saved
    // activation mask is zero — bitwise-identical to the separate ReLU
    // layer's backward — then run the conv backward on the masked gradient.
    assert(static_cast<int64_t>(relu_mask_.size()) == grad_output.numel() &&
           "fused backward requires a preceding fused forward(kTrain)");
    Tensor dy = grad_output;
    ops::apply_mask(std::span<float>(dy.data(), static_cast<size_t>(dy.numel())),
                    std::span<const uint8_t>(relu_mask_.data(), relu_mask_.size()));
    return backward_impl(dy);
  }
  return backward_impl(grad_output);
}

Tensor Conv2d::backward_impl(const Tensor& grad_output) {
  assert(grad_output.rank() == 4 && grad_output.dim(1) == out_channels_);
  assert(!cols_.empty() && "backward requires a preceding forward(kTrain)");
  const int64_t n = last_n_;
  const int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const int64_t col_cols = last_out_h_ * last_out_w_;

  Tensor grad_input({n, in_channels_, last_in_h_, last_in_w_});
  const bool use_sparse = sparse_active() && sparse_train_;

  if (batched_) {
    // Batched pipeline (fast-mode *dense* forward — the forward never sets
    // batched_ with a sparse dispatch, so this block is dense-only): permute
    // dY to [out_c, n*out_hw] once, then one GEMM per gradient instead of n
    // small ones.
    assert(!use_sparse && "batched pipeline is dense-only (see forward)");
    const int64_t bcols = n * col_cols;
    if (!has_shape(dybuf_, {out_channels_, bcols})) dybuf_ = Tensor({out_channels_, bcols});
    if (!has_shape(dcols_, {col_rows, bcols})) dcols_ = Tensor({col_rows, bcols});
    kernels::permute_to_staging(grad_output.data(), out_channels_, n, col_cols, dybuf_.data());
    // dW += dY * cols^T over the whole batch in one call.
    ops::gemm(false, true, out_channels_, col_rows, bcols, 1.0f, dybuf_.data(), cols_.data(), 1.0f,
              weight_.grad.data());
    // dcols = W^T * dY for the whole batch, then the threaded whole-batch
    // col2im out of the strided buffer. A dcols row whose W column is all
    // zero (a pruned input tap) is exactly +0: the GEMM leaves it unwritten
    // and flags it, and col2im skips it — grad_input starts at +0 and never
    // holds -0, so the +0 it would have added changes no bit.
    dead_rows_.assign(static_cast<size_t>(col_rows), 0);
    kernels::GemmEpilogue dead;
    dead.dead_rows = dead_rows_.data();
    ops::gemm(true, false, col_rows, bcols, out_channels_, 1.0f, weight_.value.data(),
              dybuf_.data(), 0.0f, dcols_.data(), dead);
    ops::col2im_batched(dcols_.data(), n, in_channels_, last_in_h_, last_in_w_, kernel_, kernel_,
                        stride_, pad_, grad_input.data(), dead_rows_.data());
    if (has_bias_) {
      // Parallel over output channels: each bias_.grad[c] still accumulates
      // its per-sample sums in ascending i order (the exact serial order),
      // and channels are disjoint — bitwise-identical at any thread count.
      parallel_for(out_channels_, [&](int64_t c) {
        for (int64_t i = 0; i < n; ++i) {
          const float* row = grad_output.data() + (i * out_channels_ + c) * col_cols;
          float s = 0.0f;
          for (int64_t j = 0; j < col_cols; ++j) s += row[j];
          bias_.grad[c] += s;
        }
      });
    }
    return grad_input;
  }

  // Per-sample pipeline (reference-mode forward), kept verbatim. dcols is a
  // cached workspace (layer replicas are per-worker, so there is no
  // sharing): both producers below overwrite it, so no zeroing is needed
  // between steps, and eval-mode forwards free it together with cols_.
  if (!has_shape(dcols_, {col_rows, col_cols})) {
    dcols_ = Tensor({col_rows, col_cols});
  }

  for (int64_t i = 0; i < n; ++i) {
    const float* dy_i = grad_output.data() + i * out_channels_ * col_cols;
    const float* cols_i = cols_.data() + i * col_rows * col_cols;
    // dW += dY * cols^T   => [out_c, col_rows]; the masked path accumulates
    // only at mask-kept coordinates (pruned grads are discarded by the
    // masked step anyway).
    if (use_sparse) {
      sparse::masked_grad_dot(sparse_weight_, dy_i, cols_i, col_cols, weight_.grad.data());
    } else {
      ops::gemm(false, true, out_channels_, col_rows, col_cols, 1.0f, dy_i, cols_i, 1.0f,
                weight_.grad.data());
    }
    // dcols = W^T * dY    => [col_rows, col_cols]; pruned weights are exact
    // zeros, so the CSR product is bitwise identical to the dense one.
    if (use_sparse) {
      sparse::spmm_tn(sparse_weight_, dy_i, col_cols, dcols_.data());
    } else {
      ops::gemm(true, false, col_rows, col_cols, out_channels_, 1.0f, weight_.value.data(), dy_i,
                0.0f, dcols_.data());
    }
    ops::col2im(dcols_.data(), in_channels_, last_in_h_, last_in_w_, kernel_, kernel_, stride_, pad_,
                grad_input.data() + i * in_channels_ * last_in_h_ * last_in_w_);
  }
  if (has_bias_) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t c = 0; c < out_channels_; ++c) {
        const float* row = grad_output.data() + (i * out_channels_ + c) * col_cols;
        float s = 0.0f;
        for (int64_t j = 0; j < col_cols; ++j) s += row[j];
        bias_.grad[c] += s;
      }
    }
  }
  return grad_input;
}

bool Conv2d::install_sparse(std::span<const uint8_t> mask, float max_density, bool train) {
  assert(static_cast<int64_t>(mask.size()) == weight_.value.numel());
  if (sparse::mask_density(mask) > static_cast<double>(max_density)) {
    clear_sparse();
    return false;
  }
  const int64_t fan_in = in_channels_ * kernel_ * kernel_;
  sparse_weight_ = sparse::csr_from_mask(weight_.value.data(), out_channels_, fan_in, mask);
  // The masked backward runs spmm_tn once per sample per step on this
  // matrix; cache its transpose so the fast kernel does not rebuild the
  // structure every call (refresh_sparse keeps the values in sync).
  if (train) sparse::build_transpose(sparse_weight_);
  sparse_train_ = train;
  return true;
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace fedtiny::nn
