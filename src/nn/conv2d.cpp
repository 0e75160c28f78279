#include "nn/conv2d.h"

#include <stdexcept>

#include "nn/im2col.h"

namespace safecross::nn {

namespace {

// The lowering geometry of one forward or backward over `input`: the
// 3-D geometry at t = 1 with a 1-frame kernel.
Im2ColGeom3D geometry(const Conv2DConfig& c, const Tensor& input) {
  const int h = input.dim(2), w = input.dim(3);
  return {input.dim(1),
          1,
          h,
          w,
          1,
          c.kernel,
          1,
          c.stride,
          0,
          c.padding,
          1,
          Conv2D::out_size(h, c.kernel, c.stride, c.padding),
          Conv2D::out_size(w, c.kernel, c.stride, c.padding)};
}

}  // namespace

Conv2D::Conv2D(Conv2DConfig config)
    : config_(config),
      weight_(Tensor({config.out_channels, config.in_channels, config.kernel, config.kernel})),
      bias_(Tensor({config.out_channels})) {
  if (config.kernel < 1 || config.stride < 1 || config.padding < 0) {
    throw std::invalid_argument("Conv2D: invalid geometry");
  }
}

int Conv2D::out_size(int in, int kernel, int stride, int padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

std::vector<Param*> Conv2D::params() {
  if (config_.bias) return {&weight_, &bias_};
  return {&weight_};
}

Tensor Conv2D::forward(const Tensor& input, bool training) {
  if (input.ndim() != 4 || input.dim(1) != config_.in_channels) {
    throw std::invalid_argument("Conv2D: expected (N, " + std::to_string(config_.in_channels) +
                                ", H, W), got " + input.shape_str());
  }
  const Im2ColGeom3D g = geometry(config_, input);
  if (g.oh <= 0 || g.ow <= 0) throw std::invalid_argument("Conv2D: output would be empty");
  if (training) {
    cached_input_ = input;
  } else {
    cached_input_ = Tensor();
  }
  backward_ready_ = training;
  Tensor out({input.dim(0), config_.out_channels, g.oh, g.ow});
  conv_forward(g, input.dim(0), config_.out_channels, input.data(), weight_.value.data(),
               config_.bias ? bias_.value.data() : nullptr, out.data(),
               training ? &col_ : nullptr);
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  if (!backward_ready_) {
    throw std::logic_error(
        "Conv2D: backward requires a preceding forward with training=true "
        "(inference forwards do not retain the im2col lowering)");
  }
  Tensor grad_input(cached_input_.shape(), 0.0f);
  conv_backward(geometry(config_, cached_input_), cached_input_.dim(0), config_.out_channels,
                grad_output.data(), weight_.value.data(), col_.data(), grad_input.data(),
                weight_.grad.data(), config_.bias ? bias_.grad.data() : nullptr);
  return grad_input;
}

}  // namespace safecross::nn
