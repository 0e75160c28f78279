#include "nn/conv3d.h"

#include <stdexcept>

#include "nn/im2col.h"

namespace safecross::nn {

namespace {

// The lowering geometry of one forward or backward over `input`.
Im2ColGeom3D geometry(const Conv3DConfig& c, const Tensor& input) {
  const int t = input.dim(2), h = input.dim(3), w = input.dim(4);
  return {input.dim(1),
          t,
          h,
          w,
          c.kernel_t,
          c.kernel_s,
          c.stride_t,
          c.stride_s,
          c.pad_t,
          c.pad_s,
          Conv3D::out_size(t, c.kernel_t, c.stride_t, c.pad_t),
          Conv3D::out_size(h, c.kernel_s, c.stride_s, c.pad_s),
          Conv3D::out_size(w, c.kernel_s, c.stride_s, c.pad_s)};
}

}  // namespace

Conv3D::Conv3D(Conv3DConfig config)
    : config_(config),
      weight_(Tensor({config.out_channels, config.in_channels, config.kernel_t, config.kernel_s,
                      config.kernel_s})),
      bias_(Tensor({config.out_channels})) {
  if (config.kernel_t < 1 || config.kernel_s < 1 || config.stride_t < 1 || config.stride_s < 1 ||
      config.pad_t < 0 || config.pad_s < 0) {
    throw std::invalid_argument("Conv3D: invalid geometry");
  }
}

int Conv3D::out_size(int in, int kernel, int stride, int padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

std::vector<Param*> Conv3D::params() {
  if (config_.bias) return {&weight_, &bias_};
  return {&weight_};
}

Tensor Conv3D::forward(const Tensor& input, bool training) {
  if (input.ndim() != 5 || input.dim(1) != config_.in_channels) {
    throw std::invalid_argument("Conv3D: expected (N, " + std::to_string(config_.in_channels) +
                                ", T, H, W), got " + input.shape_str());
  }
  const Im2ColGeom3D g = geometry(config_, input);
  if (g.ot <= 0 || g.oh <= 0 || g.ow <= 0) {
    throw std::invalid_argument("Conv3D: output would be empty");
  }
  // Only backward reads the input; an inference forward keeps nothing.
  if (training) {
    cached_input_ = input;
  } else {
    cached_input_ = Tensor();
  }
  backward_ready_ = training;
  Tensor out({input.dim(0), config_.out_channels, g.ot, g.oh, g.ow});
  conv_forward(g, input.dim(0), config_.out_channels, input.data(), weight_.value.data(),
               config_.bias ? bias_.value.data() : nullptr, out.data(),
               training ? &col_ : nullptr);
  return out;
}

Tensor Conv3D::backward(const Tensor& grad_output) {
  if (!backward_ready_) {
    throw std::logic_error(
        "Conv3D: backward requires a preceding forward with training=true "
        "(inference forwards keep no backward state)");
  }
  Tensor grad_input(cached_input_.shape(), 0.0f);
  conv_backward(geometry(config_, cached_input_), cached_input_.dim(0), config_.out_channels,
                grad_output.data(), weight_.value.data(), col_.data(), grad_input.data(),
                weight_.grad.data(), config_.bias ? bias_.grad.data() : nullptr);
  return grad_input;
}

}  // namespace safecross::nn
