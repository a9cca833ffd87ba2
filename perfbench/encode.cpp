// encode_open: open-loop Poisson arrivals into serve::Engine.
//
// int8 resnet18 on 3x8x8 inputs, 2 workers, max_batch 32, max_wait 1 ms,
// queue capacity 1024. Each ladder rung gets a fresh engine, so its
// counters cover that rung alone and its construction is one set-up sample.
// One generator thread submits at the scheduled due times and polls the
// in-flight requests for completion. Latency runs from each request's due
// time, so a generator that falls behind adds to it.
#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "core/prof.hpp"
#include "core/threadpool.hpp"
#include "serve/engine.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kH = 8, kW = 8;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 32;
constexpr std::size_t kQueueCapacity = 1024;
constexpr double kRates[] = {2000, 4000, 6000};
constexpr double kNominalRate = 4000;
constexpr double kNominalShare = 0.5;  // of the run; other rungs split the rest
constexpr double kSloMs = 20.0;
constexpr double kLateBoundUs = 1000.0;  // generator counts as behind above
constexpr std::uint64_t kWindowNs = 500'000'000;  // 2000 requests at 4k rps
constexpr std::size_t kImages = 256;
constexpr int kExtraSetups = 4;
constexpr std::size_t kRing = 4096;  // > queue capacity + in-flight batches

struct Inputs {
  std::int64_t numel = 3 * kH * kW;
  std::int64_t feature_dim = 0;
  std::vector<float> images;  // [kImages, numel]
  std::vector<float> refs;    // [kImages, feature_dim], batch-1 forwards
  std::vector<std::uint32_t> pick;  // image index per request, seeded
};

cq::serve::EngineConfig engine_config(const std::string& ckpt) {
  cq::serve::EngineConfig cfg;
  cfg.checkpoint = ckpt;
  cfg.arch = "resnet18";
  cfg.in_h = kH;
  cfg.in_w = kW;
  cfg.instance = cq::serve::InstanceKind::kInt8;
  cfg.workers = kWorkers;
  cfg.max_batch = kMaxBatch;
  cfg.max_wait = std::chrono::microseconds(1000);
  cfg.queue_capacity = kQueueCapacity;
  return cfg;
}

struct Slot {
  cq::serve::Request req;
  std::vector<float> out;
  std::uint32_t img = 0;
  std::uint64_t due = 0, sub0 = 0, sub1 = 0;
  bool in_flight = false;  // submitted and not yet seen complete
};

struct Rung {
  double rate = 0.0;
  double seconds = 0.0;
  double setup_s = 0.0;
  PhaseCounts c;
  cq::serve::EngineStats stats;
  std::uint64_t mismatches = 0;
  std::uint64_t outstanding_mid = 0, outstanding_end = 0;
  bool growing = false;
  bool pass = false;
  std::string json() const {
    return JsonObj()
        .raw("phase", c.json(rate, kSloMs, pass))
        .num("seconds", seconds)
        .num("setup_s", setup_s)
        .num("mismatches", static_cast<double>(mismatches))
        .num("outstanding_mid", static_cast<double>(outstanding_mid))
        .num("outstanding_end", static_cast<double>(outstanding_end))
        .raw("backlog_growing", growing ? "true" : "false")
        .raw("generator_behind", c.lateness_ok(kLateBoundUs) ? "false" : "true")
        .num("batch_mean", stats.mean_batch_size)
        .done();
  }
};

Rung run_rung(const std::string& ckpt, const Inputs& in, double rate,
              double seconds, std::uint64_t seed) {
  Rung r;
  r.rate = rate;
  r.seconds = seconds;
  const std::uint64_t t0 = now_ns();
  auto engine = std::make_unique<cq::serve::Engine>(engine_config(ckpt));
  r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  const std::vector<std::uint64_t> sched =
      poisson_schedule(rate, seconds, seed);
  const std::size_t n = sched.size();
  const std::size_t row = static_cast<std::size_t>(in.feature_dim);
  std::vector<Slot> ring(kRing);
  for (Slot& s : ring) s.out.resize(row);
  // Ring slots still in flight.
  std::vector<std::size_t> outstanding;
  outstanding.reserve(kRing);
  PhaseCounts& c = r.c;

  // One thread both sends and observes completions, spinning rather than
  // sleeping: on a virtual machine a sleeping thread can wake milliseconds
  // late, which would show up as latency the engine never caused.
  const std::uint64_t base = now_ns() + 2'000'000;
  std::size_t i = 0;
  while (i < n || !outstanding.empty()) {
    // A slot is reused only once its previous request has been seen
    // complete; until then the generator polls.
    if (i < n && base + sched[i] <= now_ns() && !ring[i % kRing].in_flight) {
      Slot& s = ring[i % kRing];
      s.due = base + sched[i];
      s.img = in.pick[i % in.pick.size()];
      s.req.reset();
      s.req.input = in.images.data() + s.img * in.numel;
      s.req.output = s.out.data();
      s.sub0 = now_ns();
      const bool accepted = engine->submit(&s.req);
      s.sub1 = now_ns();
      ++c.sent;
      c.late_us.add(static_cast<double>(s.sub0 - s.due) / 1e3);
      s.in_flight = accepted;
      if (accepted) outstanding.push_back(i % kRing);
      else ++c.rejected;
      ++i;
      if (i == n / 2) r.outstanding_mid = outstanding.size();
      if (i == n) r.outstanding_end = outstanding.size();
      continue;
    }
    std::this_thread::yield();
    for (std::size_t k = 0; k < outstanding.size();) {
      Slot& s = ring[outstanding[k]];
      const cq::serve::Status st = s.req.status();
      if (st == cq::serve::Status::kPending) {
        ++k;
        continue;
      }
      const std::uint64_t done = now_ns();
      if (st == cq::serve::Status::kOk &&
          std::memcmp(s.out.data(), in.refs.data() + s.img * row,
                      row * sizeof(float)) == 0) {
        ++c.succeeded;
        c.add_latency(static_cast<double>(done - s.due) / 1e3,
                      (s.due - base) / kWindowNs);
      } else {
        ++c.failed;
        if (st == cq::serve::Status::kOk) {
          ++r.mismatches;
        }
      }
      if (spans::enabled()) {
        const std::uint64_t id = spans::new_id();
        spans::record("request", 0, id, s.due, done, id);
        spans::record("gen.late", id, id, s.due, s.sub0);
        spans::record("serve.Engine::submit", id, id, s.sub0, s.sub1);
        spans::record("serve.in_flight", id, id, s.sub1, done);
      }
      s.in_flight = false;
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
    }
  }
  r.stats = engine->stats();
  engine->stop();

  r.growing = r.outstanding_end >
              std::max<std::uint64_t>(2 * r.outstanding_mid,
                                      2 * kMaxBatch * kWorkers);
  r.pass = c.failed == 0 && c.rejected == 0 && !r.growing &&
           c.windowed(99.0) <= kSloMs * 1e3;
  return r;
}

/// Gate: a burst through a fresh engine (so batches of every width form)
/// must reproduce the batch-1 reference forwards bit for bit.
void gate_engine_outputs(const std::string& ckpt, const Inputs& in) {
  cq::serve::Engine engine(engine_config(ckpt));
  std::vector<cq::serve::Request> reqs(kImages);
  std::vector<float> out(kImages * static_cast<std::size_t>(in.feature_dim));
  for (std::size_t i = 0; i < kImages; ++i) {
    reqs[i].input = in.images.data() + i * in.numel;
    reqs[i].output = out.data() + i * in.feature_dim;
    gate(engine.submit(&reqs[i]), "encode gate: engine refused a request");
  }
  for (std::size_t i = 0; i < kImages; ++i)
    gate(reqs[i].wait() == cq::serve::Status::kOk,
         "encode gate: request did not complete kOk");
  engine.stop();
  gate(std::memcmp(out.data(), in.refs.data(), out.size() * sizeof(float)) ==
           0,
       "encode gate: engine outputs differ from batch-1 "
       "ModelInstance::forward");
}

}  // namespace

void run_encode_open(const Args& args, Report& report) {
  const std::size_t default_pool = use_serving_pool();
  TempCheckpoint ckpt(args.out_dir, "resnet18", kH, kW, args.seed);
  Inputs in;
  auto enc = load_encoder("resnet18", ckpt.path());
  in.feature_dim = enc.feature_dim;
  const cq::Shape sample{3, kH, kW};
  auto ref = cq::serve::make_instance(cq::serve::InstanceKind::kInt8,
                                      *enc.backbone, sample, kMaxBatch);
  {
    cq::Rng rng(args.seed * 7 + 3);
    const cq::Tensor imgs = cq::Tensor::uniform(
        cq::Shape{static_cast<std::int64_t>(kImages), 3, kH, kW}, rng, -1.0f,
        1.0f);
    in.images.assign(imgs.data(), imgs.data() + imgs.numel());
    for (std::size_t i = 0; i < kImages; ++i) {
      cq::Tensor one = cq::Tensor::empty(cq::Shape{1, 3, kH, kW});
      std::memcpy(one.data(), in.images.data() + i * in.numel,
                  in.numel * sizeof(float));
      const cq::Tensor& f = ref->forward(one);
      in.refs.insert(in.refs.end(), f.data(), f.data() + in.feature_dim);
    }
    for (int i = 0; i < 1 << 16; ++i)
      in.pick.push_back(static_cast<std::uint32_t>(rng.uniform_index(kImages)));
  }
  gate_engine_outputs(ckpt.path(), in);

  // Set-up samples: standalone constructions here, plus one per rung.
  Samples setup;
  for (int i = 0; i < kExtraSetups; ++i) {
    const std::uint64_t t0 = now_ns();
    cq::serve::Engine engine(engine_config(ckpt.path()));
    setup.add(static_cast<double>(now_ns() - t0) / 1e9);
    engine.stop();
  }
  std::string rungs_json = "[";
  auto add_rung = [&](const Rung& r) {
    setup.add(r.setup_s);
    rungs_json += (rungs_json.size() > 1 ? ", " : "") + r.json();
    report.count(r.c.sent, r.c.failed + r.c.rejected);
    gate(r.mismatches == 0, "encode: served outputs differ from reference");
    if (!r.c.lateness_ok(kLateBoundUs))
      std::printf("# WARNING: generator fell behind at %.0f rps (late p99 "
                  "%.0f us)\n",
                  r.rate, r.c.late_us.percentile(99.0));
  };

  if (!args.trace) {
    const double other = args.seconds * (1.0 - kNominalShare) /
                         (std::size(kRates) - 1);
    const Rung* nominal = nullptr;
    std::vector<Rung> rungs;
    rungs.reserve(std::size(kRates));
    for (std::size_t i = 0; i < std::size(kRates); ++i) {
      const double rate = kRates[i];
      const double secs =
          rate == kNominalRate ? args.seconds * kNominalShare : other;
      rungs.push_back(run_rung(ckpt.path(), in, rate, secs,
                               args.seed * 100 + i));
      add_rung(rungs.back());
    }
    double goodput = 0.0;
    for (const Rung& r : rungs) {
      if (r.rate == kNominalRate) nominal = &r;
      if (r.pass) goodput = static_cast<double>(r.c.succeeded) / r.seconds;
    }
    report.detail("rungs", rungs_json + "]");
    report.detail("samples", JsonObj()
                                 .num("setup_n", setup.size())
                                 .num("nominal_latency_n",
                                      nominal->c.latency_us.size())
                                 .num("nominal_p90_ms",
                                      nominal->c.latency_us.percentile(90.0) /
                                          1e3)
                                 .num("nominal_p99_ms",
                                      nominal->c.latency_us.percentile(99.0) /
                                          1e3)
                                 .num("nominal_windowed_p99_ms",
                                      nominal->c.windowed(99.0) / 1e3)
                                 .done());
    report.metric("setup_s", setup.median(), "s");
    report.metric("throughput_per_s", goodput, "1/s");
    report.metric("p50_ms", nominal->c.latency_us.median() / 1e3, "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: the nominal rung untraced, then traced, then direct probes
  // of the compiled forwards.
  const double half = args.seconds / 2.0;
  const Rung plain = run_rung(ckpt.path(), in, kNominalRate, half,
                              args.seed * 100 + 1);
  add_rung(plain);
  spans::enable(true);
  const Rung traced = run_rung(ckpt.path(), in, kNominalRate, half,
                               args.seed * 100 + 1);
  spans::enable(false);
  add_rung(traced);
  report.detail("rungs", rungs_json + "]");

  const auto& st = traced.stats;
  auto fp32 = cq::serve::make_instance(cq::serve::InstanceKind::kFp32,
                                       *enc.backbone, sample, kMaxBatch);
  const double b1 = forward_us(*ref, sample, 1, 300);
  const double b8 = forward_us(*ref, sample, 8, 200);
  const double b32 = forward_us(*ref, sample, 32, 100);
  const auto mean_width = std::clamp<std::int64_t>(
      std::llround(st.mean_batch_size), 1, kMaxBatch);
  const double b_mean = forward_us(*ref, sample, mean_width, 200);
  const double fp32_b32 = forward_us(*fp32, sample, 32, 100);
  cq::core::ThreadPool::instance().set_size(default_pool);
  const double b32_default_pool = forward_us(*ref, sample, 32, 100);
  cq::core::ThreadPool::instance().set_size(1);
  cq::prof::reset();
  (void)forward_us(*ref, sample, 32, 50);
  const auto snap = cq::prof::snapshot();
  const auto fwd_ns = static_cast<double>(
      std::max<std::uint64_t>(1, find_counter(snap, "graph.forward").total_ns));
  auto share = [&](const char* name) {
    return static_cast<double>(find_counter(snap, name).total_ns) / fwd_ns;
  };

  const Samples& lat = traced.c.latency_us;
  Samples submit_us;
  for (const Span& s : spans::collect())
    if (std::strcmp(s.name, "serve.Engine::submit") == 0)
      submit_us.add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  const double explained = traced.c.late_us.median() + submit_us.median() +
                           st.queue_latency.percentile(50.0) + b_mean;
  report.metric("serve.queue_wait_us_p50", st.queue_latency.percentile(50.0),
                "us");
  report.metric("serve.queue_wait_us_p99", st.queue_latency.percentile(99.0),
                "us");
  report.metric("serve.batch_mean", st.mean_batch_size, "count");
  report.metric("serve.batch_fill_ratio", st.mean_batch_size / kMaxBatch,
                "ratio");
  report.metric("serve.rejected_ratio",
                traced.c.sent ? static_cast<double>(traced.c.rejected) /
                                    static_cast<double>(traced.c.sent)
                              : 0.0,
                "ratio");
  report.metric("serve.steady_heap_allocs",
                static_cast<double>(st.steady_heap_allocs), "count");
  report.metric("graph.forward_us_b1", b1, "us");
  report.metric("graph.forward_us_b8", b8, "us");
  report.metric("graph.forward_us_b32", b32, "us");
  report.metric("graph.forward_fp32_us_b32", fp32_b32, "us");
  report.metric("graph.forward_us_b32_default_pool", b32_default_pool, "us");
  report.metric("graph.conv_int8_share",
                share("graph.node.conv_int8"), "ratio");
  report.metric("tensor.im2col_share", share("im2col"),
                "ratio");
  report.metric("tensor.igemm_share", share("igemm"), "ratio");
  report.metric("setup.compile_ms", setup.median() * 1e3, "ms");
  report.metric("gen.late_us_p99", traced.c.late_us.percentile(99.0), "us");
  report.metric("trace.overhead_pct",
                (lat.median() / plain.c.latency_us.median() - 1.0) * 100.0,
                "%");
  report.metric("trace.unexplained_share",
                (lat.median() - explained) / lat.median(), "ratio");
  report.detail("decomposition_p50_us",
                JsonObj()
                    .num("e2e", lat.median())
                    .num("gen_late", traced.c.late_us.median())
                    .num("submit", submit_us.median())
                    .num("queue_wait_engine_hist",
                         st.queue_latency.percentile(50.0))
                    .num("forward_at_mean_width", b_mean)
                    .num("mean_width", static_cast<double>(mean_width))
                    .done());
  report.detail("engine_stats", st.to_json());
}

}  // namespace perfbench
