// pretrain_cqc: offline CQ-C training through core::SimClrCqTrainer.
//
// The paper's own workload: resnet18, four branches per step at random
// precisions from 6..16 bits, batch 32, on a seeded 16x16 synth-cifar set.
// The run is split into independent trials (fresh data, encoder and
// trainer), so set-up is measured several times. In each trial the first
// epoch is warm-up and counts as set-up; the remaining epochs are timed.
// The trainer is called directly: the checkpoint cache is never involved.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/prof.hpp"
#include "core/simclr.hpp"
#include "data/synth.hpp"
#include "models/encoder.hpp"
#include "tensor/gemm.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kImages = 256;
constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kItersPerEpoch = kImages / kBatch;
constexpr int kTrials = 3;

cq::core::PretrainConfig cqc_config(std::uint64_t seed, std::int64_t epochs) {
  cq::core::PretrainConfig cfg;
  cfg.variant = cq::core::CqVariant::kCqC;
  cfg.precisions = cq::quant::PrecisionSet::range(6, 16);
  cfg.batch_size = kBatch;
  cfg.lr = 0.1f;
  cfg.warmup_epochs = 1;
  cfg.proj_hidden = 32;
  cfg.proj_dim = 16;
  cfg.tau = 0.5f;
  cfg.epochs = epochs;
  cfg.seed = seed;
  return cfg;
}

struct Trial {
  double setup_s = 0.0;           // data + model + trainer + warm-up epoch
  std::vector<double> step_ms;    // mean CQ-C step time of each timed epoch
  double timed_s = 0.0;           // wall time of the timed epochs
  double cpu_per_wall = 0.0;      // over train()
  cq::core::PretrainStats stats;
};

Trial run_trial(std::uint64_t seed, std::int64_t epochs) {
  Trial t;
  const std::uint64_t t0 = now_ns();
  cq::data::SynthConfig sc = cq::data::synth_cifar_config();
  sc.seed = seed * 7919 + 101;
  cq::Rng data_rng(seed * 1000003 + 1);
  const cq::data::Dataset ds =
      cq::data::make_synth_dataset(sc, kImages, data_rng);
  const std::uint64_t t1 = now_ns();
  cq::Rng init_rng(seed * 1000003 + 2);
  auto encoder = cq::models::make_encoder("resnet18", init_rng);
  cq::core::SimClrCqTrainer trainer(encoder, cqc_config(seed, epochs));
  const std::uint64_t t2 = now_ns();
  const double cpu0 = cpu_seconds();
  t.stats = trainer.train(ds);
  const std::uint64_t t3 = now_ns();
  t.cpu_per_wall =
      (cpu_seconds() - cpu0) / (static_cast<double>(t3 - t2) / 1e9);

  const std::uint64_t trial_id = spans::new_id();
  spans::record("data.make_synth_dataset", trial_id, trial_id, t0, t1);
  spans::record("models.make_encoder+trainer", trial_id, trial_id, t1, t2);
  spans::record("core.SimClrCqTrainer::train", trial_id, trial_id, t2, t3);
  spans::record("trial", 0, trial_id, t0, t3, trial_id);

  const auto& st = t.stats;
  gate(!st.diverged, "CQ-C pretraining diverged");
  gate(static_cast<std::int64_t>(st.epoch_loss.size()) == epochs &&
           st.iterations == epochs * kItersPerEpoch,
       "CQ-C pretraining ran an unexpected number of steps");
  for (float l : st.epoch_loss) gate(std::isfinite(l), "non-finite CQ-C loss");
  gate(st.final_loss < st.epoch_loss.front(),
       "CQ-C loss did not fall below its first-epoch value (first " +
           std::to_string(st.epoch_loss.front()) + ", final " +
           std::to_string(st.final_loss) + ")");

  t.setup_s = static_cast<double>(t2 - t0) / 1e9 + st.epoch_seconds.front();
  for (std::size_t e = 1; e < st.epoch_seconds.size(); ++e) {
    t.timed_s += st.epoch_seconds[e];
    t.step_ms.push_back(st.epoch_seconds[e] * 1e3 / kItersPerEpoch);
  }
  return t;
}

/// GEMM rate at a stage-2 training conv shape of this resnet18 at batch 32:
/// [32 out-ch x 288] * [288 x 32*8*8], called through gemm::gemm.
double gemm_gflops_at_training_shape() {
  const std::int64_t m = 32, k = 288, n = 32 * 8 * 8;
  cq::Rng rng(5);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  Samples us;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t s = now_ns();
    cq::gemm::gemm(cq::gemm::Trans::kNN, m, n, k, a.data(), b.data(),
                   c.data());
    us.add(static_cast<double>(now_ns() - s) / 1e3);
  }
  return 2.0 * m * n * k / (us.median() * 1e3);
}

}  // namespace

void run_pretrain_cqc(const Args& args, Report& report) {
  // Trial 0 runs one timed epoch to learn the epoch time; the remaining
  // trials split what is left of the time budget. With --trace 1 the last
  // trial is the traced one.
  const double budget = args.seconds;
  std::vector<Trial> trials;
  double timed = 0.0;
  std::vector<cq::prof::CounterSnapshot> traced_prof;
  for (int i = 0; i < kTrials; ++i) {
    std::int64_t epochs = 2;
    if (i > 0) {
      double epoch_s = 0.0;
      for (const auto& t : trials) epoch_s += t.timed_s;
      std::size_t n = 0;
      for (const auto& t : trials) n += t.step_ms.size();
      epoch_s /= static_cast<double>(n);
      const double left = std::max(0.0, budget - timed) / (kTrials - i);
      epochs = 1 + std::max<std::int64_t>(
                       1, std::llround(left / std::max(epoch_s, 1e-3)));
    }
    const bool traced = args.trace && i == kTrials - 1;
    if (traced) {
      cq::prof::reset();
      spans::enable(true);
    }
    trials.push_back(run_trial(args.seed + 1000 * i, epochs));
    if (traced) {
      spans::enable(false);
      traced_prof = cq::prof::snapshot();
    }
    timed += trials.back().timed_s;
  }

  Samples setup, step_ms, untraced_step, traced_step;
  double images = 0.0;
  std::string trial_json = "[";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    setup.add(t.setup_s);
    for (double s : t.step_ms) {
      step_ms.add(s);
      (args.trace && i + 1 == trials.size() ? traced_step : untraced_step)
          .add(s);
    }
    images += static_cast<double>(t.step_ms.size() * kImages);
    std::string losses = "[";
    for (float l : t.stats.epoch_loss)
      losses += (losses.size() > 1 ? ", " : "") + json_number(l);
    trial_json += (i ? ", " : "") +
                  JsonObj()
                      .num("setup_s", t.setup_s)
                      .num("timed_epochs",
                           static_cast<double>(t.step_ms.size()))
                      .num("timed_s", t.timed_s)
                      .num("iterations",
                           static_cast<double>(t.stats.iterations))
                      .raw("epoch_loss", losses + "]")
                      .num("cpu_per_wall", t.cpu_per_wall)
                      .done();
  }
  trial_json += "]";
  report.detail("trials", trial_json);
  std::uint64_t iterations = 0;
  for (const auto& t : trials) iterations += t.stats.iterations;
  report.count(iterations, 0);

  if (!args.trace) {
    report.metric("setup_s", setup.median(), "s");
    report.metric("throughput_per_s", images / timed, "1/s");
    report.metric("p50_ms", step_ms.median(), "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.detail("samples", JsonObj()
                                 .num("setup_n", setup.size())
                                 .num("step_epochs_n", step_ms.size())
                                 .num("step_ms_p90", step_ms.percentile(90.0))
                                 .num("step_ms_max", step_ms.max())
                                 .done());
    return;
  }

  // Per-layer numbers from the profiler counters the library keeps, over
  // the traced trial only (prof::reset() before it).
  const Trial& t = trials.back();
  const auto& p = traced_prof;
  const double iters = static_cast<double>(t.stats.iterations);
  auto per_iter = [&](const char* name) {
    return static_cast<double>(find_counter(p, name).total_ns) / 1e6 / iters;
  };
  const auto hits =
      static_cast<double>(find_counter(p, "quant.weight.memo_hit").calls);
  const auto misses =
      static_cast<double>(find_counter(p, "quant.weight.memo_miss").calls);
  const double pool_total =
      static_cast<double>(t.stats.pool_hits + t.stats.pool_misses);
  const double iter_ms = per_iter("simclr.iteration");
  const double explained = per_iter("simclr.augment") +
                           per_iter("simclr.forward") +
                           per_iter("simclr.loss") +
                           per_iter("simclr.backward") +
                           per_iter("simclr.step");
  report.metric("data.augment_ms_per_iter", per_iter("simclr.augment"), "ms");
  report.metric("nn.forward_ms_per_iter", per_iter("simclr.forward"), "ms");
  report.metric("nn.backward_ms_per_iter", per_iter("simclr.backward"), "ms");
  report.metric("core.loss_ms_per_iter", per_iter("simclr.loss"), "ms");
  report.metric("optim.step_ms_per_iter", per_iter("simclr.step"), "ms");
  // Weight fake-quantization runs as a lazy apply() or, on the fused path,
  // as the quantize kernel; either way it is quantizer work per iteration.
  report.metric("quant.quantize_ms_per_iter",
                per_iter("quant.weight.apply") + per_iter("kernels.quantize"),
                "ms");
  report.metric("quant.memo_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report.metric("tensor.gemm_ms_per_iter",
                per_iter("gemm") + per_iter("gemm.prepacked_b"), "ms");
  report.metric("tensor.gemm_gflops", gemm_gflops_at_training_shape(),
                "GFLOP/s");
  report.metric("tensor.im2col_ms_per_iter", per_iter("im2col"), "ms");
  report.metric("tensor.col2im_ms_per_iter", per_iter("col2im"), "ms");
  report.metric("tensor.pool_hit_ratio",
                pool_total > 0 ? t.stats.pool_hits / pool_total : 0.0,
                "ratio");
  report.metric("tensor.steady_allocs_per_iter",
                t.stats.steady_allocs_per_iteration, "count");
  report.metric("proc.cpu_per_wall", t.cpu_per_wall, "ratio");
  report.metric("trace.step_ms", iter_ms, "ms");
  report.metric("trace.unexplained_share",
                iter_ms > 0 ? (iter_ms - explained) / iter_ms : 0.0, "ratio");
  report.metric("trace.overhead_pct",
                untraced_step.empty()
                    ? 0.0
                    : (traced_step.median() / untraced_step.median() - 1.0) *
                          100.0,
                "%");
  report.detail("profile", cq::prof::json());
}

}  // namespace perfbench
