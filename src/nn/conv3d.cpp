#include "nn/conv3d.h"

#include <algorithm>
#include <stdexcept>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"
#include "nn/im2col.h"

namespace safecross::nn {

namespace {

// Valid kernel index range [begin, end) so that the input coordinate
// o*stride - pad + k stays inside [0, in).
inline void kernel_range(int o, int stride, int pad, int kernel, int in, int& begin, int& end) {
  const int base = o * stride - pad;
  begin = std::max(0, -base);
  end = std::min(kernel, in - base);
}

}  // namespace

Conv3D::Conv3D(Conv3DConfig config)
    : config_(config),
      backend_(resolve_conv_backend(config.backend)),
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
  const int ot = out_size(input.dim(2), config_.kernel_t, config_.stride_t, config_.pad_t);
  const int oh = out_size(input.dim(3), config_.kernel_s, config_.stride_s, config_.pad_s);
  const int ow = out_size(input.dim(4), config_.kernel_s, config_.stride_s, config_.pad_s);
  if (ot <= 0 || oh <= 0 || ow <= 0) throw std::invalid_argument("Conv3D: output would be empty");
  // Only backward reads the input; an inference forward keeps nothing.
  if (training) {
    cached_input_ = input;
  } else {
    cached_input_ = Tensor();
  }
  backward_ready_ = training;
  return backend_ == ConvBackend::kDirect ? forward_direct(input)
                                          : forward_gemm(input, training);
}

Tensor Conv3D::backward(const Tensor& grad_output) {
  if (!backward_ready_) {
    throw std::logic_error(
        "Conv3D: backward requires a preceding forward with training=true "
        "(inference forwards keep no backward state)");
  }
  return backend_ == ConvBackend::kDirect ? backward_direct(grad_output)
                                          : backward_gemm(grad_output);
}

// ---------------------------------------------------------------------------
// im2col + GEMM backend (see conv2d.cpp for the decomposition; identical
// here with (T, H, W) receptive fields).

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

// A lowered tile this small stays in L2 between im2col writing it and
// the GEMM reading it back.
constexpr std::size_t kTileBytes = 128 * 1024;

// Output planes per forward job: as many as fit kTileBytes, then fewer
// until the batch spreads over the pool (two jobs per worker).
int planes_per_tile(const Im2ColGeom3D& g, int n) {
  const std::size_t plane_bytes =
      static_cast<std::size_t>(g.rows()) * g.oh * g.ow * sizeof(float);
  int per = static_cast<int>(
      std::clamp<std::size_t>(kTileBytes / plane_bytes, 1, static_cast<std::size_t>(g.ot)));
  const std::size_t want = 2 * ThreadPool::global().size();
  while (per > 1 && static_cast<std::size_t>(n) * ((g.ot + per - 1) / per) < want) {
    per = (per + 1) / 2;
  }
  return per;
}

}  // namespace

// One pool dispatch per layer. Each job owns one batch item's output
// planes [oz0, oz1): it lowers just that tile, multiplies it by the
// weights on its own thread and adds the bias, all while the tile is in
// cache. The bits match a whole-panel sgemm per item: k is never split,
// the kKc slabs, microkernel and store are the same, and the bias still
// lands after the last slab, so no output's reduction order changes.
Tensor Conv3D::forward_gemm(const Tensor& input, bool training) {
  const int n = input.dim(0);
  const int c_out = config_.out_channels;
  const Im2ColGeom3D g = geometry(config_, input);
  const int rows = g.rows();
  const std::size_t cols = g.cols();
  const std::size_t plane = static_cast<std::size_t>(g.oh) * g.ow;
  const std::size_t per_item = static_cast<std::size_t>(rows) * cols;
  // Training lowers into the retained panel, at the offsets backward's
  // weight gradient reads; inference lowers into per-thread scratch.
  if (training && col_.size() < static_cast<std::size_t>(n) * per_item) {
    col_.resize(static_cast<std::size_t>(n) * per_item);
  }

  Tensor out({n, c_out, g.ot, g.oh, g.ow});
  const float* x = input.data();
  const float* wgt = weight_.value.data();
  const float* b = config_.bias ? bias_.value.data() : nullptr;
  float* y = out.data();
  const std::size_t in_item = static_cast<std::size_t>(g.c_in) * g.t * g.h * g.w;
  const int per_tile = planes_per_tile(g, n);
  const int tiles = (g.ot + per_tile - 1) / per_tile;
  ThreadPool::global().parallel_for(static_cast<std::size_t>(n) * tiles, [&](std::size_t job) {
    const int bi = static_cast<int>(job) / tiles;
    const int oz0 = static_cast<int>(job) % tiles * per_tile;
    const int oz1 = std::min(g.ot, oz0 + per_tile);
    const std::size_t off = static_cast<std::size_t>(oz0) * plane;
    const std::size_t width = static_cast<std::size_t>(oz1 - oz0) * plane;

    ScratchArena& arena = ScratchArena::local();
    ScratchArena::Scope scope(arena);
    float* col = training ? col_.data() + bi * per_item + off
                          : arena.floats(static_cast<std::size_t>(rows) * width);
    const std::size_t ld = training ? cols : width;
    im2col_3d(x + bi * in_item, g, oz0, oz1, col, ld);

    float* y_tile = y + static_cast<std::size_t>(bi) * c_out * cols + off;
    sgemm_serial(Trans::kNo, Trans::kNo, c_out, static_cast<int>(width), rows, 1.0f, wgt, rows,
                 col, static_cast<int>(ld), 0.0f, y_tile, static_cast<int>(cols));
    if (b != nullptr) {
      for (int oc = 0; oc < c_out; ++oc) {
        float* row = y_tile + static_cast<std::size_t>(oc) * cols;
        for (std::size_t m = 0; m < width; ++m) row[m] += b[oc];
      }
    }
  });
  return out;
}

Tensor Conv3D::backward_gemm(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const int n = input.dim(0);
  const int c_out = config_.out_channels;
  const Im2ColGeom3D g = geometry(config_, input);
  const int rows = g.rows();
  const std::size_t cols = g.cols();
  const std::size_t per_item = static_cast<std::size_t>(rows) * cols;
  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  float* col_grad = arena.floats(per_item);

  const float* go = grad_output.data();
  float* gw = weight_.grad.data();

  if (config_.bias) {
    float* gb = bias_.grad.data();
    ThreadPool::global().parallel_for(static_cast<std::size_t>(c_out), [&](std::size_t oc) {
      double acc = 0.0;
      for (int bi = 0; bi < n; ++bi) {
        const float* row = go + (static_cast<std::size_t>(bi) * c_out + oc) * cols;
        for (std::size_t m = 0; m < cols; ++m) acc += row[m];
      }
      gb[oc] += static_cast<float>(acc);
    });
  }

  for (int bi = 0; bi < n; ++bi) {
    sgemm(Trans::kNo, Trans::kTrans, c_out, rows, static_cast<int>(cols), 1.0f,
          go + static_cast<std::size_t>(bi) * c_out * cols, static_cast<int>(cols),
          col_.data() + bi * per_item, static_cast<int>(cols), 1.0f, gw, rows);
  }

  Tensor grad_input(input.shape(), 0.0f);
  float* gi = grad_input.data();
  const std::size_t in_item = static_cast<std::size_t>(g.c_in) * g.t * g.h * g.w;
  for (int bi = 0; bi < n; ++bi) {
    sgemm(Trans::kTrans, Trans::kNo, rows, static_cast<int>(cols), c_out, 1.0f,
          weight_.value.data(), rows, go + static_cast<std::size_t>(bi) * c_out * cols,
          static_cast<int>(cols), 0.0f, col_grad, static_cast<int>(cols));
    float* gi_b = gi + bi * in_item;
    ThreadPool::global().parallel_for(static_cast<std::size_t>(g.c_in), [&](std::size_t ic) {
      col2im_3d(col_grad, g, static_cast<int>(ic) * g.rows_per_channel(),
                (static_cast<int>(ic) + 1) * g.rows_per_channel(), gi_b);
    });
  }
  return grad_input;
}

// ---------------------------------------------------------------------------
// Direct backend: the original range-clipped loops, kept as the parity
// oracle.

Tensor Conv3D::forward_direct(const Tensor& input) {
  const int n = input.dim(0), c_in = input.dim(1), t = input.dim(2), h = input.dim(3),
            w = input.dim(4);
  const int kt = config_.kernel_t, ks = config_.kernel_s;
  const int st = config_.stride_t, ss = config_.stride_s;
  const int pt = config_.pad_t, ps = config_.pad_s;
  const int c_out = config_.out_channels;
  const int ot = out_size(t, kt, st, pt);
  const int oh = out_size(h, ks, ss, ps);
  const int ow = out_size(w, ks, ss, ps);

  Tensor out({n, c_out, ot, oh, ow});
  const float* x = input.data();
  const float* wgt = weight_.value.data();
  const float* b = bias_.value.data();
  float* y = out.data();
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t in_chan = static_cast<std::size_t>(t) * in_plane;
  const std::size_t w_plane = static_cast<std::size_t>(ks) * ks;
  const std::size_t w_chan = static_cast<std::size_t>(kt) * w_plane;

  safecross::ThreadPool::global().parallel_for(
      static_cast<std::size_t>(n) * c_out, [&](std::size_t job) {
        const int bi = static_cast<int>(job) / c_out;
        const int oc = static_cast<int>(job) % c_out;
        const float* x_b = x + static_cast<std::size_t>(bi) * c_in * in_chan;
        const float* w_oc = wgt + static_cast<std::size_t>(oc) * c_in * w_chan;
        float* y_o =
            y + ((static_cast<std::size_t>(bi) * c_out + oc) * ot) * oh * ow;
        const float bias = config_.bias ? b[oc] : 0.0f;
        for (int oz = 0; oz < ot; ++oz) {
          int kz0, kz1;
          kernel_range(oz, st, pt, kt, t, kz0, kz1);
          for (int oy = 0; oy < oh; ++oy) {
            int ky0, ky1;
            kernel_range(oy, ss, ps, ks, h, ky0, ky1);
            for (int ox = 0; ox < ow; ++ox) {
              int kx0, kx1;
              kernel_range(ox, ss, ps, ks, w, kx0, kx1);
              float acc = bias;
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
      });
  return out;
}

Tensor Conv3D::backward_direct(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const int n = input.dim(0), c_in = input.dim(1), t = input.dim(2), h = input.dim(3),
            w = input.dim(4);
  const int kt = config_.kernel_t, ks = config_.kernel_s;
  const int st = config_.stride_t, ss = config_.stride_s;
  const int pt = config_.pad_t, ps = config_.pad_s;
  const int c_out = config_.out_channels;
  const int ot = grad_output.dim(2), oh = grad_output.dim(3), ow = grad_output.dim(4);

  Tensor grad_input({n, c_in, t, h, w}, 0.0f);
  const float* x = input.data();
  const float* go = grad_output.data();
  const float* wgt = weight_.value.data();
  float* gi = grad_input.data();
  float* gw = weight_.grad.data();
  float* gb = bias_.grad.data();

  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t in_chan = static_cast<std::size_t>(t) * in_plane;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;
  const std::size_t out_chan = static_cast<std::size_t>(ot) * out_plane;
  const std::size_t w_plane = static_cast<std::size_t>(ks) * ks;
  const std::size_t w_chan = static_cast<std::size_t>(kt) * w_plane;

  // Weight/bias grads: parallel over output channels (disjoint gw slices).
  safecross::ThreadPool::global().parallel_for(static_cast<std::size_t>(c_out), [&](std::size_t ocj) {
    const int oc = static_cast<int>(ocj);
    float* gw_oc = gw + static_cast<std::size_t>(oc) * c_in * w_chan;
    for (int bi = 0; bi < n; ++bi) {
      const float* x_b = x + static_cast<std::size_t>(bi) * c_in * in_chan;
      const float* go_o = go + (static_cast<std::size_t>(bi) * c_out + oc) * out_chan;
      for (int oz = 0; oz < ot; ++oz) {
        int kz0, kz1;
        kernel_range(oz, st, pt, kt, t, kz0, kz1);
        for (int oy = 0; oy < oh; ++oy) {
          int ky0, ky1;
          kernel_range(oy, ss, ps, ks, h, ky0, ky1);
          for (int ox = 0; ox < ow; ++ox) {
            const float g = go_o[(static_cast<std::size_t>(oz) * oh + oy) * ow + ox];
            if (g == 0.0f) continue;
            if (config_.bias) gb[oc] += g;
            int kx0, kx1;
            kernel_range(ox, ss, ps, ks, w, kx0, kx1);
            for (int ic = 0; ic < c_in; ++ic) {
              const float* x_c = x_b + static_cast<std::size_t>(ic) * in_chan;
              float* gw_c = gw_oc + static_cast<std::size_t>(ic) * w_chan;
              for (int kz = kz0; kz < kz1; ++kz) {
                const int iz = oz * st - pt + kz;
                const float* x_row_base = x_c + static_cast<std::size_t>(iz) * in_plane;
                float* gw_z = gw_c + static_cast<std::size_t>(kz) * w_plane;
                for (int ky = ky0; ky < ky1; ++ky) {
                  const int iy = oy * ss - ps + ky;
                  const float* x_row = x_row_base + static_cast<std::size_t>(iy) * w + ox * ss - ps;
                  float* gw_row = gw_z + static_cast<std::size_t>(ky) * ks;
                  for (int kx = kx0; kx < kx1; ++kx) gw_row[kx] += g * x_row[kx];
                }
              }
            }
          }
        }
      }
    }
  });

  // Input grads: parallel over batch (disjoint gi slices).
  safecross::ThreadPool::global().parallel_for(static_cast<std::size_t>(n), [&](std::size_t bij) {
    const int bi = static_cast<int>(bij);
    float* gi_b = gi + static_cast<std::size_t>(bi) * c_in * in_chan;
    for (int oc = 0; oc < c_out; ++oc) {
      const float* go_o = go + (static_cast<std::size_t>(bi) * c_out + oc) * out_chan;
      const float* w_oc = wgt + static_cast<std::size_t>(oc) * c_in * w_chan;
      for (int oz = 0; oz < ot; ++oz) {
        int kz0, kz1;
        kernel_range(oz, st, pt, kt, t, kz0, kz1);
        for (int oy = 0; oy < oh; ++oy) {
          int ky0, ky1;
          kernel_range(oy, ss, ps, ks, h, ky0, ky1);
          for (int ox = 0; ox < ow; ++ox) {
            const float g = go_o[(static_cast<std::size_t>(oz) * oh + oy) * ow + ox];
            if (g == 0.0f) continue;
            int kx0, kx1;
            kernel_range(ox, ss, ps, ks, w, kx0, kx1);
            for (int ic = 0; ic < c_in; ++ic) {
              float* gi_c = gi_b + static_cast<std::size_t>(ic) * in_chan;
              const float* w_c = w_oc + static_cast<std::size_t>(ic) * w_chan;
              for (int kz = kz0; kz < kz1; ++kz) {
                const int iz = oz * st - pt + kz;
                float* gi_z = gi_c + static_cast<std::size_t>(iz) * in_plane;
                const float* w_z = w_c + static_cast<std::size_t>(kz) * w_plane;
                for (int ky = ky0; ky < ky1; ++ky) {
                  const int iy = oy * ss - ps + ky;
                  float* gi_row = gi_z + static_cast<std::size_t>(iy) * w + ox * ss - ps;
                  const float* w_row = w_z + static_cast<std::size_t>(ky) * ks;
                  for (int kx = kx0; kx < kx1; ++kx) gi_row[kx] += g * w_row[kx];
                }
              }
            }
          }
        }
      }
    }
  });
  return grad_input;
}

}  // namespace safecross::nn
