// Module protocol semantics: cache stacks, modes, parameter plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "core/threadpool.hpp"
#include "models/heads.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

TEST(Module, BackwardWithoutForwardThrows) {
  Rng rng(1);
  nn::Linear layer(3, 2, rng);
  EXPECT_THROW(layer.backward(Tensor(Shape{1, 2})), CheckError);
}

TEST(Module, EvalModePushesNoCaches) {
  Rng rng(2);
  nn::Linear layer(3, 2, rng);
  layer.set_mode(nn::Mode::kEval);
  layer.forward(Tensor::randn(Shape{4, 3}, rng));
  EXPECT_EQ(layer.pending_caches(), 0u);
  EXPECT_THROW(layer.backward(Tensor(Shape{4, 2})), CheckError);
}

TEST(Module, CacheStackLifoMultiBranch) {
  // Two forwards with different inputs, then two backwards in reverse
  // order: each backward must use its own branch's cached input.
  Rng rng(3);
  nn::Linear layer(2, 2, rng, /*bias=*/false);
  Tensor x1(Shape{1, 2}, {1.0f, 0.0f});
  Tensor x2(Shape{1, 2}, {0.0f, 1.0f});
  layer.forward(x1);
  layer.forward(x2);
  EXPECT_EQ(layer.pending_caches(), 2u);
  Tensor g(Shape{1, 2}, {1.0f, 1.0f});
  layer.backward(g);  // consumes x2's cache
  EXPECT_EQ(layer.pending_caches(), 1u);
  // Weight grad after first backward: outer(g, x2) -> column 1 populated.
  const Tensor grad_after_first = layer.weight().grad;
  EXPECT_FLOAT_EQ(grad_after_first.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_after_first.at(0, 1), 1.0f);
  layer.backward(g);  // consumes x1's cache, accumulates
  EXPECT_EQ(layer.pending_caches(), 0u);
  EXPECT_FLOAT_EQ(layer.weight().grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(layer.weight().grad.at(0, 1), 1.0f);
}

TEST(Module, ClearCacheDropsPendingForwards) {
  Rng rng(4);
  nn::Linear layer(2, 2, rng);
  layer.forward(Tensor::randn(Shape{1, 2}, rng));
  layer.forward(Tensor::randn(Shape{1, 2}, rng));
  layer.clear_cache();
  EXPECT_EQ(layer.pending_caches(), 0u);
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(5);
  nn::Linear layer(2, 3, rng);
  layer.forward(Tensor::randn(Shape{2, 2}, rng));
  layer.backward(Tensor::ones(Shape{2, 3}));
  EXPECT_GT(ops::norm(layer.weight().grad), 0.0f);
  layer.zero_grad();
  EXPECT_FLOAT_EQ(ops::norm(layer.weight().grad), 0.0f);
}

TEST(Module, ParameterCountLinear) {
  Rng rng(6);
  nn::Linear layer(5, 4, rng);
  EXPECT_EQ(layer.parameter_count(), 5 * 4 + 4);
  nn::Linear nobias(5, 4, rng, false);
  EXPECT_EQ(nobias.parameter_count(), 20);
}

TEST(Module, BiasExcludedFromDecay) {
  Rng rng(7);
  nn::Linear layer(2, 2, rng);
  auto params = layer.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_TRUE(params[0]->decay);   // weight
  EXPECT_FALSE(params[1]->decay);  // bias
}

TEST(Module, BatchNormParamsExcludedFromDecay) {
  nn::BatchNorm2d bn(4);
  for (auto* p : bn.parameters()) EXPECT_FALSE(p->decay);
}

TEST(Sequential, ForwardBackwardChains) {
  Rng rng(8);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(3, 4, rng, true, "l1");
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Linear>(4, 2, rng, true, "l2");
  Tensor x = Tensor::randn(Shape{2, 3}, rng);
  Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 2}));
  Tensor gx = seq.backward(Tensor::ones(Shape{2, 2}));
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_EQ(seq.parameters().size(), 4u);
}

TEST(Sequential, SetModePropagates) {
  Rng rng(9);
  nn::Sequential seq;
  auto& l1 = seq.emplace<nn::Linear>(2, 2, rng);
  seq.set_mode(nn::Mode::kEval);
  EXPECT_EQ(l1.mode(), nn::Mode::kEval);
  seq.set_mode(nn::Mode::kTrain);
  EXPECT_EQ(l1.mode(), nn::Mode::kTrain);
}

TEST(Sequential, EmplaceInheritsCurrentMode) {
  Rng rng(10);
  nn::Sequential seq;
  seq.set_mode(nn::Mode::kEval);
  auto& l1 = seq.emplace<nn::Linear>(2, 2, rng);
  EXPECT_EQ(l1.mode(), nn::Mode::kEval);
}

TEST(BatchNorm, NormalizesTrainBatch) {
  Rng rng(11);
  nn::BatchNorm2d bn(2);
  Tensor x = Tensor::randn(Shape{8, 2, 4, 4}, rng, 3.0f, 2.0f);
  Tensor y = bn.forward(x);
  // Per-channel output mean ~0, var ~1 (gamma=1, beta=0 at init).
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 8; ++n)
      for (std::int64_t h = 0; h < 4; ++h)
        for (std::int64_t w = 0; w < 4; ++w) {
          const double v = y.at(n, c, h, w);
          sum += v;
          sq += v * v;
          ++count;
        }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeAndDriveEval) {
  Rng rng(12);
  nn::BatchNorm2d bn(1, /*momentum=*/0.5f);
  Tensor x = Tensor::randn(Shape{16, 1, 4, 4}, rng, 2.0f, 1.0f);
  for (int i = 0; i < 30; ++i) {
    bn.forward(x);
    bn.clear_cache();
  }
  EXPECT_NEAR(bn.running_mean()[0], 2.0f, 0.2f);
  EXPECT_NEAR(bn.running_var()[0], 1.0f, 0.3f);
  bn.set_mode(nn::Mode::kEval);
  Tensor y = bn.forward(x);
  double sum = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) sum += y[i];
  EXPECT_NEAR(sum / y.numel(), 0.0, 0.2);
}

TEST(MaxPool, SelectsMaximaAndRoutesGradient) {
  nn::MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor g = pool.backward(Tensor::ones(Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 1.0f);  // gradient only at the argmax
  EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(GlobalAvgPool, AveragesSpatial) {
  nn::GlobalAvgPool pool;
  Tensor x(Shape{1, 2, 1, 2}, {1.0f, 3.0f, 10.0f, 20.0f});
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 15.0f);
}

TEST(CopyParameters, CopiesValuesAndBuffers) {
  Rng rng(13);
  nn::Sequential a, b;
  a.emplace<nn::Linear>(3, 3, rng);
  a.emplace<nn::BatchNorm2d>(3);
  b.emplace<nn::Linear>(3, 3, rng);
  b.emplace<nn::BatchNorm2d>(3);
  // Make a's BN running stats distinctive.
  std::vector<Tensor*> abuf;
  a.collect_buffers(abuf);
  abuf[0]->fill(7.0f);
  nn::copy_parameters(a, b);
  std::vector<Tensor*> bbuf;
  b.collect_buffers(bbuf);
  EXPECT_FLOAT_EQ((*bbuf[0])[0], 7.0f);
  EXPECT_FLOAT_EQ(a.parameters()[0]->value[0], b.parameters()[0]->value[0]);
}

TEST(EmaUpdate, InterpolatesTowardsSource) {
  Rng rng(14);
  nn::Sequential src, dst;
  src.emplace<nn::Linear>(2, 2, rng, false);
  dst.emplace<nn::Linear>(2, 2, rng, false);
  src.parameters()[0]->value.fill(1.0f);
  dst.parameters()[0]->value.fill(0.0f);
  nn::ema_update(src, dst, 0.9f);
  EXPECT_NEAR(dst.parameters()[0]->value[0], 0.1f, 1e-6);
  nn::ema_update(src, dst, 0.9f);
  EXPECT_NEAR(dst.parameters()[0]->value[0], 0.19f, 1e-6);
}

TEST(SnapshotRestore, RoundTripsState) {
  Rng rng(15);
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 3, rng);
  net.emplace<nn::BatchNorm2d>(3);
  const auto saved = nn::snapshot_state(net);
  const float w0 = net.parameters()[0]->value[0];
  net.parameters()[0]->value.fill(42.0f);
  std::vector<Tensor*> buf;
  net.collect_buffers(buf);
  buf[0]->fill(-3.0f);
  nn::restore_state(net, saved);
  EXPECT_FLOAT_EQ(net.parameters()[0]->value[0], w0);
  EXPECT_FLOAT_EQ((*buf[0])[0], 0.0f);
}

TEST(Init, HeUniformBounds) {
  Rng rng(16);
  Tensor w = nn::init::he_uniform(Shape{100, 9}, 9, rng);
  const float bound = std::sqrt(6.0f / 9.0f);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_GE(w[i], -bound);
    EXPECT_LE(w[i], bound);
  }
}

TEST(Init, HeNormalStddev) {
  Rng rng(17);
  Tensor w = nn::init::he_normal(Shape{200, 50}, 50, rng);
  double sq = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i)
    sq += static_cast<double>(w[i]) * w[i];
  EXPECT_NEAR(sq / w.numel(), 2.0 / 50.0, 0.005);
}

TEST(Conv2d, RejectsInvalidGroups) {
  Rng rng(18);
  EXPECT_THROW(nn::Conv2d({.in_channels = 3, .out_channels = 4, .kernel = 3,
                           .stride = 1, .pad = 1, .groups = 2},
                          rng),
               CheckError);
}

TEST(Conv2d, RejectsWrongInputChannels) {
  Rng rng(19);
  nn::Conv2d conv({.in_channels = 3, .out_channels = 4}, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 2, 8, 8})), CheckError);
}

TEST(Conv2d, OutputShape) {
  Rng rng(20);
  nn::Conv2d conv({.in_channels = 3, .out_channels = 8, .kernel = 3,
                   .stride = 2, .pad = 1},
                  rng);
  Tensor y = conv.forward(Tensor::randn(Shape{2, 3, 9, 9}, rng));
  EXPECT_EQ(y.shape(), Shape({2, 8, 5, 5}));
}

// ---- chunked conv training vs a per-image oracle ---------------------------

// Affine fake quantization, so Conv2d folds it into the GEMM's packing.
class PackQuant : public nn::WeightTransform {
 public:
  PackQuant() {
    q_.step = 1.0f / 16.0f;
    q_.inv_step = 16.0f;
    q_.identity = false;
  }
  bool active() const override { return true; }
  Tensor apply(const nn::Parameter& w) const override {
    Tensor out = w.value.like();
    for (std::int64_t i = 0; i < out.numel(); ++i)
      out[i] = gemm::quantize_value(w.value[i], q_);
    return out;
  }
  std::optional<gemm::QuantSpec> pack_spec(
      const nn::Parameter&) const override {
    return q_;
  }

 private:
  gemm::QuantSpec q_;
};

// Non-affine transform: Conv2d must materialize it through apply().
class Materialized : public nn::WeightTransform {
 public:
  bool active() const override { return true; }
  Tensor apply(const nn::Parameter& w) const override {
    Tensor out = w.value.like();
    for (std::int64_t i = 0; i < out.numel(); ++i)
      out[i] = 0.5f * w.value[i] * std::abs(w.value[i]) + 0.01f;
    return out;
  }
};

enum class Batch { kOne, kChunkMinus1, kChunk, kChunkPlus1, k33 };
enum class Transform { kNone, kPackQuant, kMaterialized };

struct ConvCase {
  const char* name;
  nn::Conv2dSpec spec;
  std::int64_t h, w;
  Batch batch;
  Transform transform = Transform::kNone;
};

void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

struct ConvResult {
  Tensor y, grad_in, grad_w, grad_b;
};

std::unique_ptr<nn::Conv2d> make_conv(const ConvCase& c) {
  Rng rng(77);
  auto conv = std::make_unique<nn::Conv2d>(c.spec, rng);
  if (c.transform == Transform::kPackQuant)
    conv->set_weight_transform(std::make_shared<PackQuant>());
  if (c.transform == Transform::kMaterialized)
    conv->set_weight_transform(std::make_shared<Materialized>());
  if (c.spec.bias) {
    std::vector<nn::Parameter*> ps;
    conv->collect_parameters(ps);
    for (std::int64_t i = 0; i < c.spec.out_channels; ++i)
      ps[1]->value[i] = 0.1f * static_cast<float>(i) - 0.2f;
  }
  return conv;
}

std::int64_t batch_of(const ConvCase& c) {
  const std::int64_t chunk = make_conv(c)->chunk_images(c.h, c.w);
  switch (c.batch) {
    case Batch::kOne:
      return 1;
    case Batch::kChunkMinus1:
      return std::max<std::int64_t>(1, chunk - 1);
    case Batch::kChunk:
      return chunk;
    case Batch::kChunkPlus1:
      return chunk + 1;
    case Batch::k33:
      return 33;
  }
  return 1;
}

// One train-mode forward + backward through the module under test.
ConvResult run_module(const ConvCase& c, const Tensor& x, const Tensor& go) {
  auto conv = make_conv(c);
  ConvResult r;
  r.y = conv->forward(x);
  r.grad_in = conv->backward(go);
  std::vector<nn::Parameter*> ps;
  conv->collect_parameters(ps);
  r.grad_w = ps[0]->grad;
  if (c.spec.bias) r.grad_b = ps[1]->grad;
  return r;
}

// The per-image lowering the chunked path replaced: one im2col and one GEMM
// per (image, group) in both passes, dW accumulated image by image.
ConvResult run_oracle(const ConvCase& c, const Tensor& x, const Tensor& go) {
  auto conv = make_conv(c);
  const nn::Conv2dSpec& s = c.spec;
  std::vector<nn::Parameter*> ps;
  conv->collect_parameters(ps);
  const nn::Parameter& weight = *ps[0];
  std::optional<gemm::QuantSpec> qs;
  Tensor w_used = weight.value;
  if (c.transform == Transform::kPackQuant) qs = PackQuant().pack_spec(weight);
  if (c.transform == Transform::kMaterialized)
    w_used = Materialized().apply(weight);
  const gemm::QuantSpec* q = qs ? &*qs : nullptr;

  ConvGeometry g{s.in_channels / s.groups, c.h, c.w, s.kernel, s.kernel,
                 s.stride, s.pad};
  const std::int64_t n = x.dim(0), spatial = g.out_h() * g.out_w();
  const std::int64_t krows = g.col_rows(), cout_g = s.out_channels / s.groups;
  const std::int64_t in_plane = c.h * c.w;
  ConvResult r;
  r.y = Tensor(Shape{n, s.out_channels, g.out_h(), g.out_w()});
  r.grad_in = Tensor(x.shape());
  r.grad_w = Tensor(weight.value.shape());
  if (s.bias) r.grad_b = Tensor(Shape{s.out_channels});
  std::vector<float> cols(krows * spatial), dcols(krows * spatial);
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t grp = 0; grp < s.groups; ++grp) {
      const std::int64_t in_off =
          (img * s.in_channels + grp * g.in_channels) * in_plane;
      const std::int64_t out_off = (img * s.out_channels + grp * cout_g) *
                                   spatial;
      const float* wg = w_used.data() + grp * cout_g * krows;
      im2col(x.data() + in_off, g, cols.data());
      gemm::Epilogue ep;
      if (s.bias) {
        ep.bias = ps[1]->value.data() + grp * cout_g;
        ep.bias_kind = gemm::Epilogue::Bias::kPerRow;
      }
      gemm::gemm(gemm::Trans::kNN, cout_g, spatial, krows, wg, cols.data(),
                 r.y.data() + out_off, false, ep, q, nullptr);
      const float* gog = go.data() + out_off;
      gemm::gemm(gemm::Trans::kNT, cout_g, krows, spatial, gog, cols.data(),
                 r.grad_w.data() + grp * cout_g * krows, true);
      gemm::gemm(gemm::Trans::kTN, krows, spatial, cout_g, wg, gog,
                 dcols.data(), false, gemm::Epilogue{}, q, nullptr);
      col2im(dcols.data(), g, r.grad_in.data() + in_off);
    }
    for (std::int64_t oc = 0; s.bias && oc < s.out_channels; ++oc) {
      double sum = 0.0;
      for (std::int64_t p = 0; p < spatial; ++p)
        sum += go[(img * s.out_channels + oc) * spatial + p];
      r.grad_b[oc] += static_cast<float>(sum);
    }
  }
  return r;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Maps are small enough that most cases pack several images per chunk;
// one_image_per_chunk covers maps wider than a whole chunk.
const ConvCase kConvCases[] = {
    {"batch1", {.in_channels = 3, .out_channels = 5}, 3, 3, Batch::kOne},
    {"chunk_minus1", {.in_channels = 3, .out_channels = 5}, 3, 3,
     Batch::kChunkMinus1},
    {"chunk", {.in_channels = 3, .out_channels = 5}, 3, 3, Batch::kChunk},
    {"chunk_plus1", {.in_channels = 3, .out_channels = 5}, 3, 3,
     Batch::kChunkPlus1},
    {"batch33", {.in_channels = 3, .out_channels = 5}, 3, 3, Batch::k33},
    {"stride2_pad", {.in_channels = 4, .out_channels = 6, .stride = 2}, 7, 7,
     Batch::k33},
    {"k5_stride2_pad2",
     {.in_channels = 2, .out_channels = 3, .kernel = 5, .stride = 2,
      .pad = 2},
     9, 9, Batch::kChunkPlus1},
    {"grouped_bias",
     {.in_channels = 4, .out_channels = 6, .groups = 2, .bias = true}, 5, 5,
     Batch::k33},
    {"depthwise",
     {.in_channels = 6, .out_channels = 6, .groups = 6}, 5, 5, Batch::k33},
    {"depthwise_bias_pack_quant",
     {.in_channels = 6, .out_channels = 6, .groups = 6, .bias = true}, 4, 4,
     Batch::kChunkPlus1, Transform::kPackQuant},
    {"pointwise_bias",
     {.in_channels = 8, .out_channels = 4, .kernel = 1, .pad = 0,
      .bias = true},
     3, 3, Batch::k33},
    {"pack_quant", {.in_channels = 3, .out_channels = 5}, 4, 4, Batch::k33,
     Transform::kPackQuant},
    {"materialized_bias",
     {.in_channels = 3, .out_channels = 5, .bias = true}, 4, 4, Batch::k33,
     Transform::kMaterialized},
    {"one_image_per_chunk", {.in_channels = 2, .out_channels = 3}, 18, 18,
     Batch::kChunkPlus1},
};

std::string case_name(const ::testing::TestParamInfo<ConvCase>& info) {
  return info.param.name;
}

class Conv2dChunked : public ::testing::TestWithParam<ConvCase> {};

// Forward output, input grad and bias grad keep the per-image summation
// order, so they match the oracle bit for bit. dW sums chunk-wide and then
// over chunks, a float reassociation of at most n * OH * OW terms per
// element; 1e-4 relative (plus 1e-4 absolute for near-zero sums) bounds it
// with wide margin at these sizes.
TEST_P(Conv2dChunked, MatchesPerImageOracle) {
  const ConvCase& c = GetParam();
  const std::int64_t n = batch_of(c);
  if (c.batch == Batch::kChunkMinus1)  // else it degenerates to batch 1
    ASSERT_GE(make_conv(c)->chunk_images(c.h, c.w), 3);
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{n, c.spec.in_channels, c.h, c.w}, rng);
  const Tensor go = Tensor::randn(make_conv(c)->forward(x).shape(), rng);
  const ConvResult got = run_module(c, x, go);
  const ConvResult want = run_oracle(c, x, go);

  EXPECT_TRUE(bitwise_equal(got.y, want.y));
  EXPECT_TRUE(bitwise_equal(got.grad_in, want.grad_in));
  if (c.spec.bias) EXPECT_TRUE(bitwise_equal(got.grad_b, want.grad_b));
  ASSERT_EQ(got.grad_w.shape(), want.grad_w.shape());
  for (std::int64_t i = 0; i < got.grad_w.numel(); ++i)
    EXPECT_NEAR(got.grad_w[i], want.grad_w[i],
                1e-4 + 1e-4 * std::abs(want.grad_w[i]))
        << "dW[" << i << "]";
}

INSTANTIATE_TEST_SUITE_P(Cases, Conv2dChunked, ::testing::ValuesIn(kConvCases),
                         case_name);

class Conv2dThreadSweep : public ::testing::TestWithParam<ConvCase> {};

// Chunks are fixed by the layer geometry and dW partials are reduced in
// chunk order, so every output and gradient is bitwise identical at any
// pool size.
TEST_P(Conv2dThreadSweep, BitwiseAcrossPoolSizes) {
  const ConvCase& c = GetParam();
  const std::int64_t n = batch_of(c);
  Rng rng(6);
  const Tensor x = Tensor::randn(Shape{n, c.spec.in_channels, c.h, c.w}, rng);
  core::ThreadPool& pool = core::ThreadPool::instance();
  const std::size_t saved = pool.size();
  pool.set_size(1);
  const Tensor go = Tensor::randn(make_conv(c)->forward(x).shape(), rng);
  const ConvResult ref = run_module(c, x, go);
  for (std::size_t threads : {2u, 3u, 8u}) {
    pool.set_size(threads);
    const ConvResult r = run_module(c, x, go);
    EXPECT_TRUE(bitwise_equal(r.y, ref.y)) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(r.grad_in, ref.grad_in)) << threads;
    EXPECT_TRUE(bitwise_equal(r.grad_w, ref.grad_w)) << threads;
    if (c.spec.bias) EXPECT_TRUE(bitwise_equal(r.grad_b, ref.grad_b));
  }
  pool.set_size(saved);
}

INSTANTIATE_TEST_SUITE_P(Cases, Conv2dThreadSweep,
                         ::testing::ValuesIn(kConvCases), case_name);

}  // namespace
}  // namespace cq
