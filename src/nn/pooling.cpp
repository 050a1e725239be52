#include "nn/pooling.h"

#include <cassert>
#include <limits>

#include "tensor/ops.h"

namespace fedtiny::nn {

Tensor MaxPool2d::forward(const Tensor& x, Mode mode) {
  assert(x.rank() == 4);
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t out_h = ops::conv_out_size(h, kernel_, stride_, 0);
  const int64_t out_w = ops::conv_out_size(w, kernel_, stride_, 0);
  input_shape_ = x.shape();
  Tensor y({n, c, out_h, out_w});
  const bool save = (mode == Mode::kTrain);
  if (save) {
    argmax_.assign(static_cast<size_t>(y.numel()), 0);
  } else {
    argmax_.clear();
  }
  for (int64_t nc = 0; nc < n * c; ++nc) {
    const float* in = x.data() + nc * h * w;
    float* out = y.data() + nc * out_h * out_w;
    for (int64_t oh = 0; oh < out_h; ++oh) {
      for (int64_t ow = 0; ow < out_w; ++ow) {
        float best = -std::numeric_limits<float>::infinity();
        int64_t best_idx = 0;
        for (int64_t kh = 0; kh < kernel_; ++kh) {
          for (int64_t kw = 0; kw < kernel_; ++kw) {
            const int64_t ih = oh * stride_ + kh;
            const int64_t iw = ow * stride_ + kw;
            if (ih >= h || iw >= w) continue;
            const float v = in[ih * w + iw];
            if (v > best) {
              best = v;
              best_idx = ih * w + iw;
            }
          }
        }
        out[oh * out_w + ow] = best;
        if (save) argmax_[static_cast<size_t>(nc * out_h * out_w + oh * out_w + ow)] = best_idx;
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  assert(!argmax_.empty());
  const int64_t n = input_shape_[0], c = input_shape_[1], h = input_shape_[2], w = input_shape_[3];
  const int64_t out_spatial = grad_output.dim(2) * grad_output.dim(3);
  Tensor grad_input({n, c, h, w});
  for (int64_t nc = 0; nc < n * c; ++nc) {
    const float* dy = grad_output.data() + nc * out_spatial;
    float* dx = grad_input.data() + nc * h * w;
    for (int64_t j = 0; j < out_spatial; ++j) {
      dx[argmax_[static_cast<size_t>(nc * out_spatial + j)]] += dy[j];
    }
  }
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& x, Mode mode) {
  (void)mode;
  assert(x.rank() == 4);
  const int64_t n = x.dim(0), c = x.dim(1), spatial = x.dim(2) * x.dim(3);
  input_shape_ = x.shape();
  Tensor y({n, c});
  for (int64_t nc = 0; nc < n * c; ++nc) {
    const float* in = x.data() + nc * spatial;
    float s = 0.0f;
    for (int64_t j = 0; j < spatial; ++j) s += in[j];
    y[nc] = s / static_cast<float>(spatial);
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  const int64_t n = input_shape_[0], c = input_shape_[1];
  const int64_t spatial = input_shape_[2] * input_shape_[3];
  Tensor grad_input({n, c, input_shape_[2], input_shape_[3]});
  for (int64_t nc = 0; nc < n * c; ++nc) {
    const float g = grad_output[nc] / static_cast<float>(spatial);
    float* dx = grad_input.data() + nc * spatial;
    for (int64_t j = 0; j < spatial; ++j) dx[j] = g;
  }
  return grad_input;
}

}  // namespace fedtiny::nn
