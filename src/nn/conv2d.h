// 2-D convolution layer (im2col + GEMM implementation, with a CSR sparse
// forward for heavily masked weights; im2col output stays dense).
//
// Two execution pipelines, chosen by the process-wide kernel engine mode at
// forward time:
//   fast (default) — batched: the whole minibatch is expanded into one
//     [fan_in, batch*out_hw] column buffer so each direction issues a single
//     large GEMM/spmm (bias fused into the GEMM epilogue on the dense path)
//     plus a cheap output permute, instead of `batch` small multiplies.
//   reference — the per-sample PR 3 loop verbatim, so reference mode remains
//     the bitwise reproducibility anchor (and the dense-vs-sparse oracle).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/layer.h"
#include "tensor/rng.h"
#include "tensor/sparse.h"

namespace fedtiny::nn {

/// Conv2d with square kernels. Bias is optional and off by default because
/// every conv in the reproduced models is followed by BatchNorm.
class Conv2d final : public Layer {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel, int64_t stride, int64_t pad,
         bool bias, Rng& rng);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] std::string kind() const override { return "Conv2d"; }

  [[nodiscard]] int64_t in_channels() const { return in_channels_; }
  [[nodiscard]] int64_t out_channels() const { return out_channels_; }
  [[nodiscard]] int64_t kernel() const { return kernel_; }
  [[nodiscard]] int64_t stride() const { return stride_; }
  [[nodiscard]] int64_t pad() const { return pad_; }
  /// Spatial output size of the most recent forward pass (h, w).
  [[nodiscard]] int64_t last_out_h() const { return last_out_h_; }
  [[nodiscard]] int64_t last_out_w() const { return last_out_w_; }

  Param& weight() { return weight_; }
  Param* bias() { return has_bias_ ? &bias_ : nullptr; }

  /// Same contract as Linear::install_sparse: CSR forward when the mask
  /// density is <= max_density, dense otherwise. train = true additionally
  /// enables the masked sparse training-mode forward/backward; the caller
  /// must refresh_sparse() after every weight update.
  bool install_sparse(std::span<const uint8_t> mask, float max_density, bool train = false);
  void clear_sparse() {
    sparse_weight_ = {};
    sparse_train_ = false;
  }
  /// Re-read the CSR values from the dense weight (structure unchanged).
  void refresh_sparse() {
    if (sparse_active()) sparse::refresh_values(sparse_weight_, weight_.value.data());
  }
  [[nodiscard]] bool sparse_active() const { return !sparse_weight_.empty(); }
  [[nodiscard]] bool sparse_training() const { return sparse_train_; }

  /// Graph-level conv+ReLU fusion (set by nn::fuse_conv_relu when this conv
  /// is directly followed by a ReLU layer): forward fuses the clamp into the
  /// GEMM epilogue write-back and records the activation mask; backward
  /// applies the saved mask to the upstream gradient before the conv
  /// backward. Bitwise-identical to conv -> separate ReLU in both kernel
  /// modes (the clamp predicate and ordering match nn::ReLU exactly).
  void set_fused_relu(bool on) { fused_relu_ = on; }
  [[nodiscard]] bool fused_relu() const { return fused_relu_; }

  /// Keep the forward workspaces (cols_/ybuf_) allocated across eval-mode
  /// forwards instead of freeing them after each call. Serving replicas turn
  /// this on: a steady request stream at a stable batch shape then runs
  /// zero-alloc, and workspace_bytes() bounds the per-replica footprint
  /// (no-growth tested). Off by default — one-shot eval paths (accuracy
  /// sweeps over a big test set) should not pin workspace memory.
  void set_retain_eval_workspace(bool on) { retain_eval_workspace_ = on; }
  [[nodiscard]] bool retain_eval_workspace() const { return retain_eval_workspace_; }

  /// Bytes currently held by the per-step workspaces (cols_/dcols_/ybuf_/
  /// dybuf_ plus the fused-ReLU masks). 0 after an eval-mode forward (unless
  /// retain_eval_workspace is set); stable across repeated train-step cycles
  /// at a fixed batch shape (regression-tested).
  [[nodiscard]] int64_t workspace_bytes() const {
    return static_cast<int64_t>(cols_.numel() + dcols_.numel() + ybuf_.numel() + dybuf_.numel()) *
               static_cast<int64_t>(sizeof(float)) +
           static_cast<int64_t>(relu_mask_.capacity() + maskbuf_.capacity() +
                                dead_rows_.capacity());
  }

 private:
  int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;  // [out_c, in_c * k * k]
  Param bias_;    // [out_c]

  // Cached for backward. All are per-step workspaces, not state; eval-mode
  // forwards free every one of them. Layouts depend on the pipeline the last
  // kTrain forward chose (batched_):
  //   batched (fast mode): cols_/dcols_ are [in_c*k*k, N*out_hw] with
  //     per-sample blocks side by side; ybuf_/dybuf_ stage the
  //     [out_c, N*out_hw] GEMM output / permuted upstream gradient.
  //   per-sample (reference mode): cols_ is [N, in_c*k*k, out_hw], dcols_
  //     [in_c*k*k, out_hw]; ybuf_/dybuf_ stay empty.
  Tensor cols_;
  Tensor dcols_;
  Tensor ybuf_;
  Tensor dybuf_;
  bool batched_ = false;  // pipeline used by the most recent kTrain forward
  bool retain_eval_workspace_ = false;  // serving replicas: keep cols_/ybuf_ sized
  int64_t last_n_ = 0, last_in_h_ = 0, last_in_w_ = 0, last_out_h_ = 0, last_out_w_ = 0;
  sparse::CsrMatrix sparse_weight_;  // mask-compacted weight (sparse dispatch)
  bool sparse_train_ = false;        // masked sparse training-mode dispatch

  // Fused conv+ReLU state. relu_mask_ holds the activation mask in the
  // output's sample-major layout (what backward applies); maskbuf_ stages the
  // batched pipeline's [out_c, n*out_hw] GEMM-layout mask before the permute.
  // Both are per-step workspaces, freed on eval-mode forwards.
  bool fused_relu_ = false;
  std::vector<uint8_t> relu_mask_;
  std::vector<uint8_t> maskbuf_;
  // Batched backward: dcols_ rows the fast GEMM left unwritten because their
  // W column is all zero (kernels::GemmEpilogue::dead_rows). Per-step too.
  std::vector<uint8_t> dead_rows_;

  /// The pre-fusion backward body: conv gradients from an (already masked,
  /// when fused) upstream gradient.
  Tensor backward_impl(const Tensor& grad_output);
};

}  // namespace fedtiny::nn
