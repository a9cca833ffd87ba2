#include <gtest/gtest.h>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

// Naive direct convolution for one CHW image: out[oc, oy, ox].
std::vector<float> naive_conv(const std::vector<float>& img,
                              const std::vector<float>& weight,
                              std::int64_t cin, std::int64_t cout,
                              const ConvGeometry& g) {
  const auto oh = g.out_h(), ow = g.out_w();
  std::vector<float> out(static_cast<std::size_t>(cout * oh * ow), 0.0f);
  for (std::int64_t oc = 0; oc < cout; ++oc)
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        double s = 0.0;
        for (std::int64_t ic = 0; ic < cin; ++ic)
          for (std::int64_t ky = 0; ky < g.kernel_h; ++ky)
            for (std::int64_t kx = 0; kx < g.kernel_w; ++kx) {
              const auto iy = oy * g.stride + ky - g.pad;
              const auto ix = ox * g.stride + kx - g.pad;
              if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
              const float iv = img[static_cast<std::size_t>(
                  (ic * g.in_h + iy) * g.in_w + ix)];
              const float wv = weight[static_cast<std::size_t>(
                  ((oc * cin + ic) * g.kernel_h + ky) * g.kernel_w + kx)];
              s += static_cast<double>(iv) * wv;
            }
        out[static_cast<std::size_t>((oc * oh + oy) * ow + ox)] =
            static_cast<float>(s);
      }
  return out;
}

ConvGeometry geom(std::int64_t c, std::int64_t h, std::int64_t w,
                  std::int64_t k, std::int64_t stride, std::int64_t pad) {
  ConvGeometry g;
  g.in_channels = c;
  g.in_h = h;
  g.in_w = w;
  g.kernel_h = g.kernel_w = k;
  g.stride = stride;
  g.pad = pad;
  return g;
}

TEST(Im2col, OutputGeometry) {
  auto g = geom(3, 8, 8, 3, 1, 1);
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  EXPECT_EQ(g.col_rows(), 27);
  EXPECT_EQ(g.col_cols(), 64);
  auto g2 = geom(1, 8, 8, 3, 2, 1);
  EXPECT_EQ(g2.out_h(), 4);
}

TEST(Im2col, MatmulEqualsDirectConvolution) {
  Rng rng(1);
  for (const auto& [k, stride, pad] :
       std::vector<std::tuple<int, int, int>>{
           {3, 1, 1}, {3, 2, 1}, {1, 1, 0}, {5, 1, 2}, {3, 1, 0}}) {
    const auto g = geom(2, 7, 6, k, stride, pad);
    const std::int64_t cout = 3;
    Tensor img = Tensor::randn(Shape{g.in_channels, g.in_h, g.in_w}, rng);
    Tensor weight = Tensor::randn(Shape{cout, g.col_rows()}, rng);
    std::vector<float> cols(
        static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    im2col(img.data(), g, cols.data());
    Tensor colm(Shape{g.col_rows(), g.col_cols()}, cols);
    Tensor out = ops::matmul(weight, colm);
    const auto naive = naive_conv(
        std::vector<float>(img.data(), img.data() + img.numel()),
        std::vector<float>(weight.data(), weight.data() + weight.numel()),
        g.in_channels, cout, g);
    ASSERT_EQ(static_cast<std::size_t>(out.numel()), naive.size())
        << "k=" << k << " s=" << stride << " p=" << pad;
    for (std::int64_t i = 0; i < out.numel(); ++i)
      EXPECT_NEAR(out[i], naive[static_cast<std::size_t>(i)], 1e-4);
  }
}

TEST(Im2col, PaddingProducesZeros) {
  const auto g = geom(1, 2, 2, 3, 1, 1);
  std::vector<float> img = {1, 2, 3, 4};
  std::vector<float> cols(
      static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(img.data(), g, cols.data());
  // First row = kernel position (0,0): for output (0,0) this samples input
  // (-1,-1) which is padding -> 0.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
}

TEST(Im2row, IsExactTransposeOfIm2col) {
  // im2row + gemm kNT replaces im2col + kNN in the serving fast path for
  // small spatial extents; the swap is sound only if the patch matrix is
  // the exact transpose of the column matrix (same values, bit for bit).
  Rng rng(5);
  for (const auto& [h, w, k, stride, pad] :
       std::vector<std::tuple<int, int, int, int, int>>{
           {7, 6, 3, 1, 1}, {6, 6, 3, 2, 1}, {4, 4, 1, 1, 0},
           {5, 5, 5, 1, 2}, {2, 2, 3, 2, 1},  // 1x1 output, all-pad edges
       }) {
    const auto g = geom(2, h, w, k, stride, pad);
    Tensor img = Tensor::randn(Shape{g.in_channels, g.in_h, g.in_w}, rng);
    const auto rows_n = g.col_rows(), cols_n = g.col_cols();
    std::vector<float> cols(static_cast<std::size_t>(rows_n * cols_n));
    std::vector<float> patches(cols.size(), -1.0f);
    im2col(img.data(), g, cols.data());
    im2row(img.data(), g, patches.data());
    for (std::int64_t r = 0; r < rows_n; ++r)
      for (std::int64_t c = 0; c < cols_n; ++c)
        ASSERT_EQ(patches[static_cast<std::size_t>(c * rows_n + r)],
                  cols[static_cast<std::size_t>(r * cols_n + c)])
            << "h=" << h << " w=" << w << " k=" << k << " s=" << stride
            << " p=" << pad << " row=" << r << " col=" << c;
  }
}

// Re-pack a row-major [k, n] matrix into the packed-B sliver layout
// documented on gemm_prepacked_b: value (p, j) at
// packed[(j / kNR) * (k * kNR) + p * kNR + j % kNR], ragged tail zeroed.
std::vector<float> sliver_pack(const float* b, std::int64_t k, std::int64_t n) {
  const auto NR = gemm::kNR;
  const auto slivers = (n + NR - 1) / NR;
  std::vector<float> packed(static_cast<std::size_t>(slivers * k * NR), 0.0f);
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = 0; j < n; ++j)
      packed[static_cast<std::size_t>((j / NR) * (k * NR) + p * NR + j % NR)] =
          b[p * n + j];
  return packed;
}

TEST(Im2colPacked, MatchesSliverPackOfIm2col) {
  // im2col_packed must write exactly what pack_b would emit from the plain
  // im2col matrix — that is the contract that lets gemm_prepacked_b skip
  // its own packing pass and stay bit-identical to gemm(kNN, ...).
  Rng rng(11);
  // (c, h, w, k, stride, pad) with spatial % kNR == 0 and col_rows <= kKC.
  for (const auto& [c, h, w, k, stride, pad] :
       std::vector<std::tuple<int, int, int, int, int, int>>{
           {3, 8, 8, 3, 1, 1},   // 8x8 stem geometry, spatial 64
           {8, 8, 8, 3, 1, 1},   // spatial 64, krows 72
           {2, 16, 4, 3, 1, 1},  // ow=4: one sliver spans four y-rows
           {3, 8, 8, 3, 2, 1},   // stride 2, spatial 16 (one sliver/image)
           {1, 4, 4, 1, 1, 0},   // 1x1 kernel, krows 1
           {28, 8, 8, 3, 1, 1},  // krows 252, just under the kKC panel cap
       }) {
    const auto g = geom(c, h, w, k, stride, pad);
    ASSERT_LE(g.col_rows(), gemm::kKC);
    ASSERT_EQ(g.col_cols() % gemm::kNR, 0);
    Tensor img = Tensor::randn(Shape{g.in_channels, g.in_h, g.in_w}, rng);
    std::vector<float> cols(
        static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    im2col(img.data(), g, cols.data());
    const auto expected = sliver_pack(cols.data(), g.col_rows(), g.col_cols());
    std::vector<float> packed(expected.size(), -1.0f);
    im2col_packed(img.data(), g, packed.data(), /*col0=*/0);
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(packed[i], expected[i])
          << "c=" << c << " h=" << h << " w=" << w << " k=" << k
          << " s=" << stride << " p=" << pad << " @" << i;
  }
}

TEST(Im2colPacked, Col0OffsetsIntoABatchedPackedMatrix) {
  // Two images lowered side by side (image i at col0 = i * spatial) must
  // equal the sliver pack of the batched column matrix — the layout the
  // serving engine would hand to one whole-batch gemm_prepacked_b call.
  Rng rng(12);
  const auto g = geom(3, 8, 8, 3, 1, 1);
  const auto krows = g.col_rows(), spatial = g.col_cols();
  Tensor imgs = Tensor::randn(Shape{2, g.in_channels, g.in_h, g.in_w}, rng);
  const auto per = g.in_channels * g.in_h * g.in_w;
  std::vector<float> cols(static_cast<std::size_t>(krows * 2 * spatial));
  for (std::int64_t i = 0; i < 2; ++i)
    im2col(imgs.data() + i * per, g, cols.data() + i * spatial, 2 * spatial);
  const auto expected = sliver_pack(cols.data(), krows, 2 * spatial);
  std::vector<float> packed(expected.size(), -1.0f);
  for (std::int64_t i = 0; i < 2; ++i)
    im2col_packed(imgs.data() + i * per, g, packed.data(), i * spatial);
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(packed[i], expected[i]) << "@" << i;
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // of the backward pass.
  Rng rng(2);
  const auto g = geom(2, 6, 5, 3, 2, 1);
  Tensor x = Tensor::randn(Shape{g.in_channels, g.in_h, g.in_w}, rng);
  const auto cols_n = static_cast<std::size_t>(g.col_rows() * g.col_cols());
  Tensor y = Tensor::randn(Shape{static_cast<std::int64_t>(cols_n)}, rng);

  std::vector<float> cols(cols_n);
  im2col(x.data(), g, cols.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols_n; ++i)
    lhs += static_cast<double>(cols[i]) * y[static_cast<std::int64_t>(i)];

  std::vector<float> xg(static_cast<std::size_t>(x.numel()), 0.0f);
  col2im(y.data(), g, xg.data());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * xg[static_cast<std::size_t>(i)];

  EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs) + 1e-3);
}

// Bounds-checked scatter-add, the loop col2im's hoisted ranges replaced.
void naive_col2im(const float* cols, const ConvGeometry& g, float* grad,
                  std::int64_t col_stride) {
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c)
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row)
        for (std::int64_t y = 0; y < g.out_h(); ++y)
          for (std::int64_t x = 0; x < g.out_w(); ++x) {
            const std::int64_t iy = y * g.stride + kh - g.pad;
            const std::int64_t ix = x * g.stride + kw - g.pad;
            if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
              grad[(c * g.in_h + iy) * g.in_w + ix] +=
                  cols[row * col_stride + y * g.out_w() + x];
          }
}

TEST(Col2im, BitwiseMatchesBoundsCheckedScatterIncludingStrided) {
  Rng rng(3);
  const ConvGeometry geoms[] = {
      geom(2, 6, 5, 3, 1, 1), geom(3, 7, 7, 3, 2, 1), geom(1, 9, 8, 5, 2, 2),
      geom(2, 4, 4, 1, 1, 0), geom(1, 3, 3, 5, 1, 3),  // pad > half kernel
      geom(2, 5, 6, 3, 3, 0)};
  for (const ConvGeometry& g : geoms) {
    for (std::int64_t extra : {0, 7}) {  // plain and strided column matrix
      const std::int64_t stride = g.col_cols() + extra;
      Tensor cols = Tensor::randn(Shape{g.col_rows() * stride}, rng);
      Tensor base =
          Tensor::randn(Shape{g.in_channels * g.in_h * g.in_w}, rng);
      Tensor got = base, want = base;
      if (extra == 0)
        col2im(cols.data(), g, got.data());
      else
        col2im(cols.data(), g, got.data(), stride);
      naive_col2im(cols.data(), g, want.data(), stride);
      for (std::int64_t i = 0; i < got.numel(); ++i)
        ASSERT_EQ(got[i], want[i]) << "k=" << g.kernel_h << " s=" << g.stride
                                   << " p=" << g.pad << " @" << i;
    }
  }
}

TEST(Col2im, AccumulatesIntoExistingGradient) {
  const auto g = geom(1, 3, 3, 1, 1, 0);
  std::vector<float> cols(9, 1.0f);
  std::vector<float> grad(9, 5.0f);
  col2im(cols.data(), g, grad.data());
  for (float v : grad) EXPECT_FLOAT_EQ(v, 6.0f);
}

}  // namespace
}  // namespace cq
