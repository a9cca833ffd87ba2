#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace cq::nn {
namespace {

// Chunked training (DESIGN.md §14): both passes walk the batch in chunks of
// whole images, one im2col and one GEMM per chunk and group, with chunks
// spread across the pool. A chunk holds up to kChunkCols output columns (at
// least one image), a rule of the layer geometry alone, so no result
// depends on the pool size. Each thread owns one scratch block for a
// chunk's columns plus its [cout, cols] output or output gradient.
constexpr std::int64_t kChunkCols = 256;
constexpr std::int64_t kScratchFloats = std::int64_t{1} << 17;
thread_local Storage t_scratch;  // shared by both passes

std::int64_t images_per_chunk(std::int64_t krows, std::int64_t cout,
                              std::int64_t spatial) {
  const std::int64_t cols =
      std::min(kChunkCols, kScratchFloats / (krows + cout));
  return std::max<std::int64_t>(1, cols / std::max<std::int64_t>(spatial, 1));
}

struct Layout {
  Layout(const Conv2dSpec& s, const Shape& in)
      : g{s.in_channels / s.groups, in[2], in[3], s.kernel, s.kernel,
          s.stride, s.pad},
        n(in[0]), cout(s.out_channels), cout_g(cout / s.groups),
        krows(g.col_rows()), spatial(g.out_h() * g.out_w()),
        in_sample(s.in_channels * in[2] * in[3]), out_sample(cout * spatial),
        chunk_images(std::max<std::int64_t>(
            1, std::min(images_per_chunk(krows, cout, spatial), n))),
        chunks((n + chunk_images - 1) / chunk_images),
        scratch_floats((krows + cout) * chunk_images * spatial) {}
  std::int64_t group_in(std::int64_t grp) const {
    return grp * g.in_channels * g.in_h * g.in_w;
  }

  ConvGeometry g;  // one group's lowering
  std::int64_t n, cout, cout_g, krows, spatial, in_sample, out_sample;
  std::int64_t chunk_images, chunks, scratch_floats;
};

// Run body(chunk, first image, images, scratch) for every chunk, chunks
// spread across the pool. The chunk is the only parallel level: everything
// inside runs serially wherever the chunk lands, the caller included.
template <typename F>
void for_each_chunk(const Layout& L, F&& body) {
  core::parallel_for(L.chunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    core::ThreadPool::SerialScope serial;
    if (t_scratch.capacity() < L.scratch_floats)  // once per thread, usually
      t_scratch = Storage::acquire(std::max(L.scratch_floats, kScratchFloats));
    for (std::int64_t c = c0; c < c1; ++c) {
      const std::int64_t img0 = c * L.chunk_images;
      body(c, img0, std::min(L.chunk_images, L.n - img0), t_scratch.data());
    }
  });
}

// Copy `rows` output planes of `imgs` images from NCHW (image stride
// out_sample) into a [rows, imgs * spatial] matrix, or back when !to_mat.
void copy_planes(const Layout& L, std::int64_t rows, std::int64_t imgs,
                 const float* src, float* dst, bool to_mat) {
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t i = 0; i < imgs; ++i) {
      const std::int64_t nchw = i * L.out_sample + r * L.spatial;
      const std::int64_t mat = (r * imgs + i) * L.spatial;
      std::memcpy(dst + (to_mat ? mat : nchw), src + (to_mat ? nchw : mat),
                  static_cast<std::size_t>(L.spatial) * sizeof(float));
    }
}

}  // namespace

Conv2d::Conv2d(const Conv2dSpec& spec, Rng& rng, std::string name)
    : spec_(spec) {
  CQ_CHECK(spec.in_channels > 0 && spec.out_channels > 0);
  CQ_CHECK(spec.kernel > 0 && spec.stride > 0 && spec.pad >= 0);
  CQ_CHECK_MSG(spec.groups > 0 && spec.in_channels % spec.groups == 0 &&
                   spec.out_channels % spec.groups == 0,
               "groups must divide both channel counts");
  const auto cin_g = spec.in_channels / spec.groups;
  const auto fan_in = cin_g * spec.kernel * spec.kernel;
  weight_ = Parameter(
      init::he_normal(Shape{spec.out_channels, fan_in}, fan_in, rng),
      name + ".weight", /*decay=*/true);
  if (spec.bias)
    bias_ = Parameter(Tensor::zeros(Shape{spec.out_channels}), name + ".bias",
                      /*decay=*/false);
}

std::int64_t Conv2d::chunk_images(std::int64_t in_h, std::int64_t in_w) const {
  const Layout L(spec_, Shape{1, spec_.in_channels, in_h, in_w});
  return images_per_chunk(L.krows, L.cout, L.spatial);
}

Tensor Conv2d::forward(const Tensor& x) {
  CQ_TRACE_SCOPE_N("nn.conv.fwd", x.dim(0));
  CQ_CHECK_MSG(x.shape().rank() == 4 && x.dim(1) == spec_.in_channels,
               "conv input " << x.shape().str() << " expects [N, "
                             << spec_.in_channels << ", H, W]");
  const Layout L(spec_, x.shape());
  CQ_CHECK_MSG(L.g.out_h() > 0 && L.g.out_w() > 0,
               "conv output would be empty for input " << x.shape().str());

  const bool transformed = transform_ && transform_->active();
  // Quantize-on-pack: fold an affine fake quantization into the GEMM's
  // packing of W; otherwise materialize via apply().
  std::optional<gemm::QuantSpec> wq;
  Tensor w_eff;
  if (transformed) {
    wq = transform_->pack_spec(weight_);
    if (!wq) w_eff = transform_->apply(weight_);
  }
  const Tensor& w_fwd = wq || !transformed ? weight_.value : w_eff;
  const gemm::QuantSpec* qa = wq ? &*wq : nullptr;

  // Fully overwritten below (every chunk writes all its output planes).
  Tensor y = Tensor::empty(Shape{L.n, L.cout, L.g.out_h(), L.g.out_w()});
  const float* W = w_fwd.data();
  const float* bias = spec_.bias ? std::as_const(bias_.value).data() : nullptr;
  const float* x_base = x.data();
  float* y_base = y.data();
  for_each_chunk(L, [&](std::int64_t, std::int64_t img0, std::int64_t imgs,
                        float* cols) {
    const std::int64_t ncols = imgs * L.spatial;
    for (std::int64_t grp = 0; grp < spec_.groups; ++grp) {
      im2col_batched(x_base + img0 * L.in_sample + L.group_in(grp), imgs,
                     L.in_sample, L.g, cols, ncols);
      // out[cout_g, ncols] = W_grp[cout_g, krows] * cols[krows, ncols], with
      // the per-channel bias as a per-row epilogue. Each output element
      // keeps a per-image GEMM's k order, so y is bitwise the per-image y.
      // A one-image chunk's rows already are contiguous planes of y.
      float* yg = y_base + img0 * L.out_sample + grp * L.cout_g * L.spatial;
      float* out = imgs == 1 ? yg : cols + L.krows * ncols;
      gemm::Epilogue ep;
      if (bias != nullptr) {
        ep.bias = bias + grp * L.cout_g;
        ep.bias_kind = gemm::Epilogue::Bias::kPerRow;
      }
      gemm::gemm(gemm::Trans::kNN, L.cout_g, ncols, L.krows,
                 W + grp * L.cout_g * L.krows, cols, out,
                 /*accumulate=*/false, ep, qa, nullptr);
      if (imgs > 1) copy_planes(L, L.cout_g, imgs, out, yg, /*to_mat=*/false);
    }
  });

  if (mode_ == Mode::kTrain) {
    Cache entry;
    entry.input = x;
    if (transformed) {
      if (wq)
        entry.weight_spec = wq;
      else
        entry.effective_weight = std::move(w_eff);
    }
    cache_.push_back(std::move(entry));
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  CQ_TRACE_SCOPE_N("nn.conv.bwd", grad_out.dim(0));
  CQ_CHECK_MSG(!cache_.empty(), "conv backward without matching forward");
  Cache entry = std::move(cache_.back());
  cache_.pop_back();

  const Tensor& x = entry.input;
  const Layout L(spec_, x.shape());
  CQ_CHECK(grad_out.shape() ==
           Shape({L.n, L.cout, L.g.out_h(), L.g.out_w()}));

  // With quantize-on-pack the effective weight is re-derived from the master
  // weight and the cached spec (backward precedes the optimizer step, so the
  // master values still match the forward's).
  const Tensor& w = entry.effective_weight ? *entry.effective_weight
                                            : weight_.value;
  const gemm::QuantSpec* wq = entry.weight_spec ? &*entry.weight_spec : nullptr;
  // Chunk 0 accumulates its dW straight into weight.grad; chunk c > 0
  // writes partial c - 1, added in chunk order after the dispatch, so the
  // sums and their order are the same at every pool size.
  const std::int64_t w_numel = L.cout * L.krows;
  float* dW = weight_.grad.data();
  Tensor partials;
  if (L.chunks > 1) partials = Tensor::empty(Shape{L.chunks - 1, w_numel});
  float* partial = L.chunks > 1 ? partials.data() : nullptr;

  // Each chunk zeroes its own images before col2im scatter-adds into them.
  Tensor grad_in = Tensor::empty(x.shape());
  const float* x_base = x.data();
  const float* go_base = grad_out.data();
  float* gi_base = grad_in.data();
  for_each_chunk(L, [&](std::int64_t c, std::int64_t img0, std::int64_t imgs,
                        float* cols) {
    const std::int64_t ncols = imgs * L.spatial;
    // The chunk's output gradient as one [cout, ncols] matrix.
    const float* go = go_base + img0 * L.out_sample;
    if (imgs > 1) {
      copy_planes(L, L.cout, imgs, go, cols + L.krows * ncols, /*to_mat=*/true);
      go = cols + L.krows * ncols;
    }
    float* gi = gi_base + img0 * L.in_sample;
    std::fill(gi, gi + imgs * L.in_sample, 0.0f);
    float* dw = c == 0 ? dW : partial + (c - 1) * w_numel;
    for (std::int64_t grp = 0; grp < spec_.groups; ++grp) {
      im2col_batched(x_base + img0 * L.in_sample + L.group_in(grp), imgs,
                     L.in_sample, L.g, cols, ncols);
      const float* go_g = go + grp * L.cout_g * ncols;
      const std::int64_t w_off = grp * L.cout_g * L.krows;
      // dW_grp (+)= go[cout_g, ncols] * cols^T[ncols, krows]
      gemm::gemm(gemm::Trans::kNT, L.cout_g, L.krows, ncols, go_g, cols,
                 dw + w_off, /*accumulate=*/c == 0);
      // dcols[krows, ncols] = W_grp^T[krows, cout_g] * go[cout_g, ncols],
      // over the consumed columns, then scattered back image by image.
      gemm::gemm(gemm::Trans::kTN, L.krows, ncols, L.cout_g, w.data() + w_off,
                 go_g, cols, /*accumulate=*/false, gemm::Epilogue{}, wq,
                 nullptr);
      for (std::int64_t i = 0; i < imgs; ++i)
        col2im(cols + i * L.spatial, L.g,
               gi + i * L.in_sample + L.group_in(grp), ncols);
    }
  });
  for (std::int64_t c = 1; c < L.chunks; ++c)
    for (std::int64_t i = 0; i < w_numel; ++i)
      dW[i] += partial[(c - 1) * w_numel + i];

  if (spec_.bias) {
    for (std::int64_t img = 0; img < L.n; ++img)
      for (std::int64_t oc = 0; oc < L.cout; ++oc) {
        const float* gorow = go_base + img * L.out_sample + oc * L.spatial;
        double s = 0.0;
        for (std::int64_t sp = 0; sp < L.spatial; ++sp) s += gorow[sp];
        bias_.grad[oc] += static_cast<float>(s);
      }
  }
  return grad_in;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (spec_.bias) out.push_back(&bias_);
}

}  // namespace cq::nn
