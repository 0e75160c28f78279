#include "conv_reference.h"

#include <algorithm>

namespace safecross::testing {

using nn::Tensor;

namespace {

// Valid kernel index range [begin, end) so that the input coordinate
// o*stride - pad + k stays inside [0, in).
void kernel_range(int o, int stride, int pad, int kernel, int in, int& begin, int& end) {
  const int base = o * stride - pad;
  begin = std::max(0, -base);
  end = std::min(kernel, in - base);
}

nn::Conv3DConfig as_3d(const nn::Conv2DConfig& c) {
  nn::Conv3DConfig c3;
  c3.in_channels = c.in_channels;
  c3.out_channels = c.out_channels;
  c3.kernel_t = 1;
  c3.kernel_s = c.kernel;
  c3.stride_t = 1;
  c3.stride_s = c.stride;
  c3.pad_t = 0;
  c3.pad_s = c.padding;
  c3.bias = c.bias;
  return c3;
}

// (A, B, H, W) -> (A, B, 1, H, W) and back.
Tensor add_time(const Tensor& t) { return t.reshaped({t.dim(0), t.dim(1), 1, t.dim(2), t.dim(3)}); }
Tensor drop_time(const Tensor& t) { return t.reshaped({t.dim(0), t.dim(1), t.dim(3), t.dim(4)}); }

}  // namespace

Tensor reference_conv3d_forward(const nn::Conv3DConfig& cfg, const Tensor& x, const Tensor& weight,
                                const Tensor& bias) {
  const int n = x.dim(0), c_in = x.dim(1), t = x.dim(2), h = x.dim(3), w = x.dim(4);
  const int kt = cfg.kernel_t, ks = cfg.kernel_s;
  const int st = cfg.stride_t, ss = cfg.stride_s;
  const int pt = cfg.pad_t, ps = cfg.pad_s;
  const int c_out = cfg.out_channels;
  const int ot = nn::Conv3D::out_size(t, kt, st, pt);
  const int oh = nn::Conv3D::out_size(h, ks, ss, ps);
  const int ow = nn::Conv3D::out_size(w, ks, ss, ps);

  Tensor out({n, c_out, ot, oh, ow});
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t in_chan = static_cast<std::size_t>(t) * in_plane;
  const std::size_t w_plane = static_cast<std::size_t>(ks) * ks;
  const std::size_t w_chan = static_cast<std::size_t>(kt) * w_plane;
  for (int bi = 0; bi < n; ++bi) {
    for (int oc = 0; oc < c_out; ++oc) {
      const float* x_b = x.data() + static_cast<std::size_t>(bi) * c_in * in_chan;
      const float* w_oc = weight.data() + static_cast<std::size_t>(oc) * c_in * w_chan;
      float* y_o = out.data() + (static_cast<std::size_t>(bi) * c_out + oc) * ot * oh * ow;
      for (int oz = 0; oz < ot; ++oz) {
        int kz0, kz1;
        kernel_range(oz, st, pt, kt, t, kz0, kz1);
        for (int oy = 0; oy < oh; ++oy) {
          int ky0, ky1;
          kernel_range(oy, ss, ps, ks, h, ky0, ky1);
          for (int ox = 0; ox < ow; ++ox) {
            int kx0, kx1;
            kernel_range(ox, ss, ps, ks, w, kx0, kx1);
            float acc = cfg.bias ? bias[static_cast<std::size_t>(oc)] : 0.0f;
            for (int ic = 0; ic < c_in; ++ic) {
              const float* x_c = x_b + static_cast<std::size_t>(ic) * in_chan;
              const float* w_c = w_oc + static_cast<std::size_t>(ic) * w_chan;
              for (int kz = kz0; kz < kz1; ++kz) {
                const int iz = oz * st - pt + kz;
                const float* x_z = x_c + static_cast<std::size_t>(iz) * in_plane;
                const float* w_z = w_c + static_cast<std::size_t>(kz) * w_plane;
                for (int ky = ky0; ky < ky1; ++ky) {
                  const int iy = oy * ss - ps + ky;
                  const float* x_row = x_z + static_cast<std::size_t>(iy) * w + ox * ss - ps;
                  const float* w_row = w_z + static_cast<std::size_t>(ky) * ks;
                  for (int kx = kx0; kx < kx1; ++kx) acc += x_row[kx] * w_row[kx];
                }
              }
            }
            y_o[(static_cast<std::size_t>(oz) * oh + oy) * ow + ox] = acc;
          }
        }
      }
    }
  }
  return out;
}

ConvGrads reference_conv3d_backward(const nn::Conv3DConfig& cfg, const Tensor& x,
                                    const Tensor& weight, const Tensor& grad_output) {
  const int n = x.dim(0), c_in = x.dim(1), t = x.dim(2), h = x.dim(3), w = x.dim(4);
  const int kt = cfg.kernel_t, ks = cfg.kernel_s;
  const int st = cfg.stride_t, ss = cfg.stride_s;
  const int pt = cfg.pad_t, ps = cfg.pad_s;
  const int c_out = cfg.out_channels;
  const int ot = grad_output.dim(2), oh = grad_output.dim(3), ow = grad_output.dim(4);

  ConvGrads grads{Tensor(x.shape(), 0.0f), Tensor(weight.shape(), 0.0f), Tensor({c_out}, 0.0f)};
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t in_chan = static_cast<std::size_t>(t) * in_plane;
  const std::size_t out_chan = static_cast<std::size_t>(ot) * oh * ow;
  const std::size_t w_plane = static_cast<std::size_t>(ks) * ks;
  const std::size_t w_chan = static_cast<std::size_t>(kt) * w_plane;

  // Every (output, tap) pair: dW += g * x and dx += g * W, db += g.
  for (int bi = 0; bi < n; ++bi) {
    const float* x_b = x.data() + static_cast<std::size_t>(bi) * c_in * in_chan;
    float* gi_b = grads.input.data() + static_cast<std::size_t>(bi) * c_in * in_chan;
    for (int oc = 0; oc < c_out; ++oc) {
      const float* go_o =
          grad_output.data() + (static_cast<std::size_t>(bi) * c_out + oc) * out_chan;
      const float* w_oc = weight.data() + static_cast<std::size_t>(oc) * c_in * w_chan;
      float* gw_oc = grads.weight.data() + static_cast<std::size_t>(oc) * c_in * w_chan;
      for (int oz = 0; oz < ot; ++oz) {
        int kz0, kz1;
        kernel_range(oz, st, pt, kt, t, kz0, kz1);
        for (int oy = 0; oy < oh; ++oy) {
          int ky0, ky1;
          kernel_range(oy, ss, ps, ks, h, ky0, ky1);
          for (int ox = 0; ox < ow; ++ox) {
            const float g = go_o[(static_cast<std::size_t>(oz) * oh + oy) * ow + ox];
            if (cfg.bias) grads.bias[static_cast<std::size_t>(oc)] += g;
            int kx0, kx1;
            kernel_range(ox, ss, ps, ks, w, kx0, kx1);
            for (int ic = 0; ic < c_in; ++ic) {
              const std::size_t x_c = static_cast<std::size_t>(ic) * in_chan;
              const std::size_t w_c = static_cast<std::size_t>(ic) * w_chan;
              for (int kz = kz0; kz < kz1; ++kz) {
                const int iz = oz * st - pt + kz;
                for (int ky = ky0; ky < ky1; ++ky) {
                  const int iy = oy * ss - ps + ky;
                  const std::size_t x_row = x_c + static_cast<std::size_t>(iz) * in_plane +
                                            static_cast<std::size_t>(iy) * w + ox * ss - ps;
                  const std::size_t w_row = w_c + static_cast<std::size_t>(kz) * w_plane +
                                            static_cast<std::size_t>(ky) * ks;
                  for (int kx = kx0; kx < kx1; ++kx) {
                    gw_oc[w_row + kx] += g * x_b[x_row + kx];
                    gi_b[x_row + kx] += g * w_oc[w_row + kx];
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return grads;
}

Tensor reference_conv2d_forward(const nn::Conv2DConfig& cfg, const Tensor& x, const Tensor& weight,
                                const Tensor& bias) {
  return drop_time(reference_conv3d_forward(as_3d(cfg), add_time(x), add_time(weight), bias));
}

ConvGrads reference_conv2d_backward(const nn::Conv2DConfig& cfg, const Tensor& x,
                                    const Tensor& weight, const Tensor& grad_output) {
  ConvGrads g =
      reference_conv3d_backward(as_3d(cfg), add_time(x), add_time(weight), add_time(grad_output));
  return {drop_time(g.input), drop_time(g.weight), std::move(g.bias)};
}

}  // namespace safecross::testing
