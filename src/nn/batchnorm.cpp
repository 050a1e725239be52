#include "nn/batchnorm.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fedtiny::nn {

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_.value = Tensor({channels}, 1.0f);
  gamma_.grad = Tensor({channels});
  beta_.value = Tensor({channels});
  beta_.grad = Tensor({channels});
  running_mean_ = Tensor({channels});
  running_var_ = Tensor({channels}, 1.0f);
  refresh_sum_ = Tensor({channels});
  refresh_sumsq_ = Tensor({channels});
}

Tensor BatchNorm2d::forward(const Tensor& x, Mode mode) {
  assert(x.rank() == 4 && x.dim(1) == channels_);
  if (identity_mode_) return x;
  const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int64_t spatial = h * w;
  const int64_t count = n * spatial;
  last_n_ = n;
  last_h_ = h;
  last_w_ = w;

  Tensor y({n, channels_, h, w});
  const bool use_batch_stats = (mode != Mode::kEval);

  Tensor mean({channels_}), var({channels_});
  if (use_batch_stats) {
    for (int64_t c = 0; c < channels_; ++c) {
      double s = 0.0, ss = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float* row = x.data() + (i * channels_ + c) * spatial;
        for (int64_t j = 0; j < spatial; ++j) {
          s += row[j];
          ss += static_cast<double>(row[j]) * row[j];
        }
      }
      const double m = s / count;
      mean[c] = static_cast<float>(m);
      var[c] = static_cast<float>(std::max(0.0, ss / count - m * m));
    }
    if (mode == Mode::kTrain) {
      for (int64_t c = 0; c < channels_; ++c) {
        running_mean_[c] = (1.0f - momentum_) * running_mean_[c] + momentum_ * mean[c];
        running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * var[c];
      }
    } else {  // kStatRefresh: accumulate exact moments, leave running stats alone
      for (int64_t c = 0; c < channels_; ++c) {
        refresh_sum_[c] += mean[c] * static_cast<float>(count);
        refresh_sumsq_[c] +=
            (var[c] + mean[c] * mean[c]) * static_cast<float>(count);
      }
      refresh_count_ += count;
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  if (mode == Mode::kTrain) {
    if (!xhat_.same_shape(x)) xhat_ = Tensor(x.shape());
    invstd_ = Tensor({channels_});
  }
  for (int64_t c = 0; c < channels_; ++c) {
    const float istd = 1.0f / std::sqrt(var[c] + eps_);
    const float g = gamma_.value[c], b = beta_.value[c], m = mean[c];
    if (mode == Mode::kTrain) invstd_[c] = istd;
    for (int64_t i = 0; i < n; ++i) {
      const float* xin = x.data() + (i * channels_ + c) * spatial;
      float* yout = y.data() + (i * channels_ + c) * spatial;
      float* xh = (mode == Mode::kTrain) ? xhat_.data() + (i * channels_ + c) * spatial : nullptr;
      for (int64_t j = 0; j < spatial; ++j) {
        const float normalized = (xin[j] - m) * istd;
        if (xh != nullptr) xh[j] = normalized;
        yout[j] = g * normalized + b;
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  if (identity_mode_) return grad_output;
  assert(!xhat_.empty() && "backward requires a preceding forward(kTrain)");
  const int64_t n = last_n_, h = last_h_, w = last_w_;
  const int64_t spatial = h * w;
  const int64_t count = n * spatial;

  Tensor grad_input({n, channels_, h, w});
  for (int64_t c = 0; c < channels_; ++c) {
    // Standard BN backward: with xh = xhat, g = gamma,
    //   dgamma = sum(dy * xh), dbeta = sum(dy)
    //   dx = g * istd / count * (count*dy - dbeta - xh * dgamma)
    double dgamma = 0.0, dbeta = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + (i * channels_ + c) * spatial;
      const float* xh = xhat_.data() + (i * channels_ + c) * spatial;
      for (int64_t j = 0; j < spatial; ++j) {
        dgamma += static_cast<double>(dy[j]) * xh[j];
        dbeta += dy[j];
      }
    }
    gamma_.grad[c] += static_cast<float>(dgamma);
    beta_.grad[c] += static_cast<float>(dbeta);
    const float scale = gamma_.value[c] * invstd_[c] / static_cast<float>(count);
    for (int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + (i * channels_ + c) * spatial;
      const float* xh = xhat_.data() + (i * channels_ + c) * spatial;
      float* dx = grad_input.data() + (i * channels_ + c) * spatial;
      for (int64_t j = 0; j < spatial; ++j) {
        dx[j] = scale * (static_cast<float>(count) * dy[j] - static_cast<float>(dbeta) -
                         xh[j] * static_cast<float>(dgamma));
      }
    }
  }
  return grad_input;
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::begin_stat_refresh() {
  refresh_sum_.zero();
  refresh_sumsq_.zero();
  refresh_count_ = 0;
}

bool BatchNorm2d::finalize_stat_refresh() {
  if (refresh_count_ == 0) return false;
  const auto count = static_cast<float>(refresh_count_);
  for (int64_t c = 0; c < channels_; ++c) {
    const float m = refresh_sum_[c] / count;
    running_mean_[c] = m;
    running_var_[c] = std::max(0.0f, refresh_sumsq_[c] / count - m * m);
  }
  return true;
}

}  // namespace fedtiny::nn
