#include "nn/batchnorm.h"

#include <cmath>
#include <stdexcept>

namespace safecross::nn {

BatchNorm::BatchNorm(int channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor({channels}, 1.0f)),
      beta_(Tensor({channels}, 0.0f)),
      running_mean_({channels}, 0.0f),
      running_var_({channels}, 1.0f) {
  if (channels < 1) throw std::invalid_argument("BatchNorm: channels must be >= 1");
}

void BatchNorm::check_input(const Tensor& input) const {
  if (input.ndim() < 2 || input.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm: expected (N, " + std::to_string(channels_) +
                                ", ...), got " + input.shape_str());
  }
}

Tensor BatchNorm::forward(const Tensor& input, bool training) {
  if (!training) return infer(input);
  check_input(input);
  in_shape_.assign(input.shape().begin(), input.shape().end());
  const int n = input.dim(0);
  std::size_t spatial = 1;
  for (std::size_t d = 2; d < input.ndim(); ++d) spatial *= static_cast<std::size_t>(input.dim(d));
  const std::size_t per_channel = static_cast<std::size_t>(n) * spatial;

  cached_inv_std_.assign(channels_, 0.0f);
  Tensor out = input;
  cached_xhat_ = Tensor(input.shape());

  for (int c = 0; c < channels_; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int bi = 0; bi < n; ++bi) {
      const float* base =
          input.data() + (static_cast<std::size_t>(bi) * channels_ + c) * spatial;
      for (std::size_t i = 0; i < spatial; ++i) {
        sum += base[i];
        sq += static_cast<double>(base[i]) * base[i];
      }
    }
    const double mean = sum / static_cast<double>(per_channel);
    double var = sq / static_cast<double>(per_channel) - mean * mean;
    if (var < 0.0) var = 0.0;
    running_mean_[c] =
        (1.0f - momentum_) * running_mean_[c] + momentum_ * static_cast<float>(mean);
    running_var_[c] =
        (1.0f - momentum_) * running_var_[c] + momentum_ * static_cast<float>(var);
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    cached_inv_std_[c] = inv_std;
    const float g = gamma_.value[c];
    const float b = beta_.value[c];
    for (int bi = 0; bi < n; ++bi) {
      const std::size_t off = (static_cast<std::size_t>(bi) * channels_ + c) * spatial;
      const float* xin = input.data() + off;
      float* xh = cached_xhat_.data() + off;
      float* y = out.data() + off;
      for (std::size_t i = 0; i < spatial; ++i) {
        const float xhat = (xin[i] - static_cast<float>(mean)) * inv_std;
        xh[i] = xhat;
        y[i] = g * xhat + b;
      }
    }
  }
  return out;
}

Tensor BatchNorm::infer(Tensor x) {
  check_input(x);
  // Only backward reads x-hat and inv_std, so inference keeps neither.
  in_shape_.clear();
  cached_xhat_ = Tensor();
  const int n = x.dim(0);
  std::size_t spatial = 1;
  for (std::size_t d = 2; d < x.ndim(); ++d) spatial *= static_cast<std::size_t>(x.dim(d));
  for (int c = 0; c < channels_; ++c) {
    const double mean = running_mean_[c];
    const double var = running_var_[c];
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    const float g = gamma_.value[c];
    const float b = beta_.value[c];
    for (int bi = 0; bi < n; ++bi) {
      float* y = x.data() + (static_cast<std::size_t>(bi) * channels_ + c) * spatial;
      for (std::size_t i = 0; i < spatial; ++i) {
        const float xhat = (y[i] - static_cast<float>(mean)) * inv_std;
        y[i] = g * xhat + b;
      }
    }
  }
  return x;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  if (in_shape_.empty()) {
    throw std::logic_error(
        "BatchNorm: backward requires a preceding forward with training=true "
        "(inference forwards keep no backward state)");
  }
  const int n = in_shape_[0];
  std::size_t spatial = 1;
  for (std::size_t d = 2; d < in_shape_.size(); ++d) spatial *= static_cast<std::size_t>(in_shape_[d]);
  const double m = static_cast<double>(n) * static_cast<double>(spatial);

  Tensor grad_input(in_shape_, 0.0f);
  for (int c = 0; c < channels_; ++c) {
    // Accumulate sums needed by the batchnorm backward formula.
    double sum_gy = 0.0, sum_gy_xhat = 0.0;
    for (int bi = 0; bi < n; ++bi) {
      const std::size_t off = (static_cast<std::size_t>(bi) * channels_ + c) * spatial;
      const float* gy = grad_output.data() + off;
      const float* xh = cached_xhat_.data() + off;
      for (std::size_t i = 0; i < spatial; ++i) {
        sum_gy += gy[i];
        sum_gy_xhat += static_cast<double>(gy[i]) * xh[i];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_gy_xhat);
    beta_.grad[c] += static_cast<float>(sum_gy);

    const float g = gamma_.value[c];
    const float inv_std = cached_inv_std_[c];
    for (int bi = 0; bi < n; ++bi) {
      const std::size_t off = (static_cast<std::size_t>(bi) * channels_ + c) * spatial;
      const float* gy = grad_output.data() + off;
      const float* xh = cached_xhat_.data() + off;
      float* gi = grad_input.data() + off;
      for (std::size_t i = 0; i < spatial; ++i) {
        // dL/dx = gamma * inv_std * (gy - mean(gy) - xhat * mean(gy*xhat))
        gi[i] = g * inv_std *
                static_cast<float>(gy[i] - sum_gy / m - xh[i] * (sum_gy_xhat / m));
      }
    }
  }
  return grad_input;
}

}  // namespace safecross::nn
