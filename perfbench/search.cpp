// search_mixed: open-loop Poisson queries through search::Service while a
// writer ingests rows.
//
// int8 ViT encoder on 3x16x16 inputs (1 engine worker, max_batch 8,
// max_wait 0.5 ms) in front of a 1M-row, dim-32 index with 1-bit codes and
// stored embeddings. Base rows come from a seeded clustered mixture with
// uneven per-coordinate scales. Queries ask for k=10 with overfetch 8 and
// cosine rerank. Three caller threads take the next due query; a fourth
// thread adds 256 rows every 50 ms. The packed codes (8 MB) exceed a core's
// L2, so the scan streams from memory.
//
// The first add after the bulk load grows the index's arrays while holding
// the exclusive lock. It happens once per process, in an untimed warm-up
// phase that queries run through too; it is reported on its own
// (first_add_ms, add_us_max) and the ladder measures steady ingest.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "core/threadpool.hpp"
#include "search/service.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kImg = 16;
constexpr std::int64_t kDim = 32;
constexpr std::int64_t kRows = 1'000'000;
constexpr std::int64_t kClusters = 256;
constexpr std::int64_t kFitRows = 65'536;
constexpr double kRates[] = {125, 250, 400};
constexpr double kNominalRate = 250;
constexpr double kNominalShare = 0.6;
constexpr std::uint64_t kWindowNs = 4'000'000'000;  // 1000 queries at 250 qps
constexpr double kSloMs = 50.0;
constexpr double kLateBoundUs = 5000.0;
constexpr double kWarmupSeconds = 1.0;
constexpr int kCallers = 3;
constexpr std::int64_t kAddRows = 256;
constexpr std::uint64_t kAddPeriodNs = 50'000'000;
constexpr std::int64_t kTopK = 10;
constexpr int kSetups = 3;
constexpr int kRecallQueries = 100;
// 32-bit codes over 1M rows tie heavily, so recall@10 with overfetch 8 sits
// near 0.1; the floor catches a broken scan or rerank, the value is reported.
constexpr double kRecallFloor = 0.05;
constexpr std::size_t kImages = 64;

cq::search::QueryOptions query_options() {
  cq::search::QueryOptions o;
  o.k = kTopK;
  o.overfetch = 8;
  o.rerank = true;
  return o;
}

/// Clustered Gaussian mixture with per-coordinate scales spread over about
/// e^-1.2 .. e^1.2, so coordinates carry very different variance. The
/// mixture comes from `seed`; `stream` picks an independent row sequence
/// (base rows, ingested rows and held-out queries each have their own).
class Mixture {
 public:
  Mixture(std::uint64_t seed, std::uint64_t stream) : rng_(stream) {
    cq::Rng shape(seed);
    centers_.resize(kClusters * kDim);
    for (auto& c : centers_) c = static_cast<float>(shape.normal());
    scales_.resize(kDim);
    for (auto& s : scales_)
      s = static_cast<float>(std::exp(shape.uniform(-1.2, 1.2)));
  }
  void fill(float* out, std::int64_t rows) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* c = centers_.data() + rng_.uniform_index(kClusters) * kDim;
      for (std::int64_t d = 0; d < kDim; ++d)
        out[r * kDim + d] =
            (c[d] + 0.45f * static_cast<float>(rng_.normal())) * scales_[d];
    }
  }

 private:
  cq::Rng rng_;
  std::vector<float> centers_;
  std::vector<float> scales_;
};

cq::search::Index build_index(std::uint64_t seed) {
  Mixture mix(seed, seed * 3 + 1);
  std::vector<float> base(static_cast<std::size_t>(kRows * kDim));
  mix.fill(base.data(), kRows);
  std::vector<std::uint64_t> ids(kRows);
  for (std::int64_t r = 0; r < kRows; ++r)
    ids[r] = static_cast<std::uint64_t>(r);
  cq::search::IndexConfig cfg;
  cfg.dim = kDim;
  cfg.layout = cq::search::CodeLayout::k1Bit;
  cfg.store_embeddings = true;
  cq::search::Index index(
      cfg, cq::search::Binarizer::fit(base.data(), kFitRows, kDim,
                                      cq::search::CodeLayout::k1Bit));
  index.add(base.data(), ids.data(), kRows);
  return index;
}

cq::search::ServiceConfig service_config(const std::string& ckpt) {
  cq::search::ServiceConfig cfg;
  cfg.engine.checkpoint = ckpt;
  cfg.engine.arch = "vit";
  cfg.engine.in_h = kImg;
  cfg.engine.in_w = kImg;
  cfg.engine.instance = cq::serve::InstanceKind::kInt8;
  cfg.engine.workers = 1;
  cfg.engine.max_batch = 8;
  cfg.engine.max_wait = std::chrono::microseconds(500);
  return cfg;
}

/// Recall@10 of the service's reranked binary search against exact fp32
/// cosine top-10 over the stored (normalized) embeddings.
double recall_at_10(const cq::search::Service& svc, std::uint64_t seed) {
  Mixture held_out(seed, seed * 3 + 3);
  std::vector<float> q(static_cast<std::size_t>(kRecallQueries * kDim));
  held_out.fill(q.data(), kRecallQueries);
  const auto& emb = svc.index().embeddings();
  const std::int64_t rows = svc.index().size();
  std::vector<double> hit(kRecallQueries, 0.0);
  cq::core::ThreadPool::instance().parallel_for(
      kRecallQueries, [&](std::int64_t b, std::int64_t e) {
        cq::search::QueryScratch scratch;
        std::vector<cq::search::Result> got(kTopK);
        for (std::int64_t i = b; i < e; ++i) {
          const float* x = q.data() + i * kDim;
          double norm = 0.0;
          for (std::int64_t d = 0; d < kDim; ++d) norm += double(x[d]) * x[d];
          const float inv = static_cast<float>(1.0 / std::sqrt(norm));
          // Min-heap of (score, row) holding the exact top-k.
          std::vector<std::pair<float, std::int64_t>> best;
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* y = emb.data() + r * kDim;
            float dot = 0.0f;
            for (std::int64_t d = 0; d < kDim; ++d) dot += x[d] * y[d];
            dot *= inv;
            if (static_cast<std::int64_t>(best.size()) < kTopK) {
              best.emplace_back(dot, r);
              std::push_heap(best.begin(), best.end(), std::greater<>());
            } else if (dot > best.front().first) {
              std::pop_heap(best.begin(), best.end(), std::greater<>());
              best.back() = {dot, r};
              std::push_heap(best.begin(), best.end(), std::greater<>());
            }
          }
          const std::int64_t n =
              svc.search_features(x, query_options(), scratch, got.data());
          int found = 0;
          for (std::int64_t j = 0; j < n; ++j)
            for (const auto& [s, r] : best)
              if (got[j].id == static_cast<std::uint64_t>(r)) ++found;
          hit[i] = static_cast<double>(found) / kTopK;
        }
      });
  double sum = 0.0;
  for (double h : hit) sum += h;
  return sum / kRecallQueries;
}

struct Rung {
  double rate = 0.0;
  double seconds = 0.0;
  PhaseCounts c;
  Samples encode_us, scan_us;  // traced only
  std::uint64_t codes = 0, scan_us_total = 0;
  bool pass = false;
  std::string json() const {
    return JsonObj()
        .raw("phase", c.json(rate, kSloMs, pass))
        .num("seconds", seconds)
        .raw("generator_behind",
             c.lateness_ok(kLateBoundUs) ? "false" : "true")
        .done();
  }
};

/// One rung: kCallers threads take the next due query, spin until it is
/// due, and run it. Traced rungs split each query into its encode leg
/// (engine submit -> wait) and its scan leg (search_features on the same
/// embedding), each in its own span.
Rung run_rung(cq::search::Service& svc, const std::vector<float>& images,
              double rate, double seconds, std::uint64_t seed, bool traced) {
  Rung r;
  r.rate = rate;
  r.seconds = seconds;
  const std::vector<std::uint64_t> sched =
      poisson_schedule(rate, seconds, seed);
  const std::size_t n = sched.size();
  const auto before = svc.search_stats();
  const auto opts = query_options();
  std::atomic<std::size_t> next{0};
  std::vector<Rung> per(kCallers);
  const std::uint64_t base = now_ns() + 2'000'000;
  auto caller = [&](int k) {
    Rung& me = per[k];
    cq::search::Service::Context ctx;
    svc.prewarm(opts, ctx);
    cq::serve::Request req;
    std::vector<float> feat(kDim);
    std::vector<cq::search::Result> hits(kTopK);
    for (;;) {
      const std::size_t j = next.fetch_add(1);
      if (j >= n) break;
      const std::uint64_t due = base + sched[j];
      spin_until_ns(due);
      const std::uint64_t t0 = now_ns();
      const float* img = images.data() + (j % kImages) * 3 * kImg * kImg;
      std::int64_t got = 0;
      cq::serve::Status st;
      std::uint64_t t1 = t0;
      if (!traced) {
        st = svc.search(img, opts, ctx, hits.data(), &got);
      } else {
        req.reset();
        req.input = img;
        req.output = feat.data();
        st = svc.engine().submit(&req) ? req.wait()
                                           : cq::serve::Status::kRejectedFull;
        t1 = now_ns();
        if (st == cq::serve::Status::kOk)
          got = svc.search_features(feat.data(), opts, ctx.scratch,
                                        hits.data());
      }
      const std::uint64_t t2 = now_ns();
      ++me.c.sent;
      me.c.late_us.add(static_cast<double>(t0 - due) / 1e3);
      if (st == cq::serve::Status::kRejectedFull) {
        ++me.c.rejected;
      } else if (st == cq::serve::Status::kOk && got == kTopK) {
        ++me.c.succeeded;
        me.c.add_latency(static_cast<double>(t2 - due) / 1e3,
                         (due - base) / kWindowNs);
      } else {
        ++me.c.failed;
      }
      if (traced) {
        me.encode_us.add(static_cast<double>(t1 - t0) / 1e3);
        me.scan_us.add(static_cast<double>(t2 - t1) / 1e3);
        const std::uint64_t id = spans::new_id();
        spans::record("query", 0, id, due, t2, id);
        spans::record("gen.late", id, id, due, t0);
        spans::record("search.encode", id, id, t0, t1);
        spans::record("search.Service::search_features", id, id, t1, t2);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int k = 0; k < kCallers; ++k) threads.emplace_back(caller, k);
  for (auto& t : threads) t.join();
  for (const Rung& p : per) {
    r.c.merge(p.c);
    r.encode_us.append(p.encode_us);
    r.scan_us.append(p.scan_us);
  }
  const auto after = svc.search_stats();
  r.codes = after.codes_scanned - before.codes_scanned;
  r.scan_us_total = after.scan_micros - before.scan_micros;
  r.pass = r.c.failed == 0 && r.c.rejected == 0 &&
           r.c.windowed(99.0) <= kSloMs * 1e3;
  return r;
}

/// Ingest thread: kAddRows rows every kAddPeriodNs until stopped.
class Writer {
 public:
  Writer(cq::search::Service& svc, std::uint64_t seed, double max_seconds)
      : svc_(svc), mix_(seed, seed * 3 + 2) {
    const auto batches =
        static_cast<std::size_t>(max_seconds * 1e9 / kAddPeriodNs) + 2;
    rows_.resize(batches * kAddRows * kDim);
    mix_.fill(rows_.data(), static_cast<std::int64_t>(batches * kAddRows));
    thread_ = std::thread([this] { run(); });
  }
  ~Writer() { stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  const Samples& add_us() const { return add_us_; }
  const Samples& due_us() const { return due_us_; }
  double first_add_ms() const { return first_add_ms_; }
  std::uint64_t adds() const { return adds_; }

 private:
  void run() {
    const std::size_t batches = rows_.size() / (kAddRows * kDim);
    std::vector<std::uint64_t> ids(kAddRows);
    const std::uint64_t base = now_ns();
    for (std::size_t b = 0; b < batches && !stop_.load(); ++b) {
      const std::uint64_t due = base + b * kAddPeriodNs;
      sleep_until_ns(due);
      if (stop_.load()) break;
      for (std::int64_t i = 0; i < kAddRows; ++i)
        ids[i] = static_cast<std::uint64_t>(kRows + b * kAddRows + i);
      const std::uint64_t t0 = now_ns();
      svc_.add(rows_.data() + b * kAddRows * kDim, ids.data(), kAddRows);
      const std::uint64_t t1 = now_ns();
      if (b == 0) first_add_ms_ = static_cast<double>(t1 - t0) / 1e6;
      add_us_.add(static_cast<double>(t1 - t0) / 1e3);
      due_us_.add(static_cast<double>(t1 - due) / 1e3);
      ++adds_;
      if (spans::enabled()) {
        const std::uint64_t id = spans::new_id();
        spans::record("write", 0, id, due, t1, id);
        spans::record("search.Service::add", id, id, t0, t1);
      }
    }
  }

  cq::search::Service& svc_;
  Mixture mix_;
  std::vector<float> rows_;
  Samples add_us_, due_us_;
  double first_add_ms_ = 0.0;
  std::uint64_t adds_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the members it uses
};

/// Gate: sampled service searches equal Index::query on the embedding a
/// batch-1 reference forward produces, and that embedding equals the one
/// the service encoded.
void gate_results(cq::search::Service& svc, cq::serve::ModelInstance& ref,
                  const std::vector<float>& images, const char* when) {
  const auto opts = query_options();
  cq::search::Service::Context ctx;
  svc.prewarm(opts, ctx);
  cq::search::QueryScratch scratch;
  std::vector<cq::search::Result> got(kTopK), want(kTopK);
  const std::int64_t numel = 3 * kImg * kImg;
  for (std::size_t i = 0; i < 16; ++i) {
    const float* img = images.data() + i * numel;
    std::int64_t n = 0;
    gate(svc.search(img, opts, ctx, got.data(), &n) == cq::serve::Status::kOk,
         std::string("search gate (") + when + "): search failed");
    cq::Tensor one = cq::Tensor::empty(cq::Shape{1, 3, kImg, kImg});
    std::memcpy(one.data(), img, numel * sizeof(float));
    const cq::Tensor& emb = ref.forward(one);
    gate(std::memcmp(emb.data(), ctx.feature.data(), kDim * sizeof(float)) ==
             0,
         std::string("search gate (") + when +
             "): served embedding differs from batch-1 forward");
    const std::int64_t m = svc.index().query(emb.data(), opts, scratch,
                                             want.data());
    bool same = n == m && n == kTopK;
    for (std::int64_t j = 0; same && j < n; ++j)
      same = got[j].id == want[j].id && got[j].dist == want[j].dist &&
             got[j].score == want[j].score;
    gate(same, std::string("search gate (") + when +
                   "): results differ from Index::query");
  }
}

}  // namespace

void run_search_mixed(const Args& args, Report& report) {
  use_serving_pool();
  TempCheckpoint ckpt(args.out_dir, "vit", kImg, kImg, args.seed);
  std::vector<float> images;
  {
    cq::Rng rng(args.seed * 11 + 5);
    const cq::Tensor t = cq::Tensor::uniform(
        cq::Shape{static_cast<std::int64_t>(kImages), 3, kImg, kImg}, rng,
        -1.0f, 1.0f);
    images.assign(t.data(), t.data() + t.numel());
  }

  // Set-up, several times: index build (data generation, fit, bulk add)
  // and the service (checkpoint load, compile, prewarm). The last one
  // serves.
  Samples setup, compile_ms, index_s;
  std::unique_ptr<cq::search::Service> svc;
  for (int i = 0; i < kSetups; ++i) {
    svc.reset();
    const std::uint64_t t0 = now_ns();
    cq::search::Index index = build_index(args.seed);
    const std::uint64_t t1 = now_ns();
    svc = std::make_unique<cq::search::Service>(service_config(ckpt.path()),
                                                std::move(index));
    const std::uint64_t t2 = now_ns();
    index_s.add(static_cast<double>(t1 - t0) / 1e9);
    compile_ms.add(static_cast<double>(t2 - t1) / 1e6);
    setup.add(static_cast<double>(t2 - t0) / 1e9);
  }

  auto enc = load_encoder("vit", ckpt.path());
  const cq::Shape sample{3, kImg, kImg};
  auto ref = cq::serve::make_instance(cq::serve::InstanceKind::kInt8,
                                      *enc.backbone, sample, 8);
  gate_results(*svc, *ref, images, "before load");
  const double recall = recall_at_10(*svc, args.seed);
  gate(recall >= kRecallFloor,
       "search: recall@10 " + std::to_string(recall) + " below the floor");

  std::vector<Rung> rungs;
  std::string rungs_json = "[";
  auto add_rung = [&](Rung r) {
    rungs_json += (rungs_json.size() > 1 ? ", " : "") + r.json();
    report.count(r.c.sent, r.c.failed + r.c.rejected);
    if (!r.c.lateness_ok(kLateBoundUs))
      std::printf("# WARNING: generator fell behind at %.0f qps (late p99 "
                  "%.0f us)\n",
                  r.rate, r.c.late_us.percentile(99.0));
    rungs.push_back(std::move(r));
  };

  const double total = kWarmupSeconds + args.seconds + 1.0;
  Writer writer(*svc, args.seed, total);
  const Rung warm = run_rung(*svc, images, kNominalRate, kWarmupSeconds,
                             args.seed * 100 + 99, false);
  report.detail("warmup", warm.json());
  report.count(warm.c.sent, warm.c.failed + warm.c.rejected);

  if (!args.trace) {
    const double other = args.seconds * (1.0 - kNominalShare) /
                         (std::size(kRates) - 1);
    for (std::size_t i = 0; i < std::size(kRates); ++i) {
      const double secs =
          kRates[i] == kNominalRate ? args.seconds * kNominalShare : other;
      add_rung(run_rung(*svc, images, kRates[i], secs, args.seed * 100 + i,
                        false));
    }
  } else {
    add_rung(run_rung(*svc, images, kNominalRate, args.seconds / 2.0,
                      args.seed * 100 + 1, false));
    spans::enable(true);
    add_rung(run_rung(*svc, images, kNominalRate, args.seconds / 2.0,
                      args.seed * 100 + 1, true));
  }
  writer.stop();
  spans::enable(false);
  report.count(writer.adds(), 0);
  gate_results(*svc, *ref, images, "after load");
  report.detail("rungs", rungs_json + "]");
  double p_write = 0.0;
  const double write_tail_ms = writer.due_us().tail(&p_write) / 1e3;
  report.detail("writes", JsonObj()
                              .num("adds", static_cast<double>(writer.adds()))
                              .num("first_add_ms", writer.first_add_ms())
                              .num("add_us_p50", writer.add_us().median())
                              .num("add_us_max", writer.add_us().max())
                              .num("write_tail_pct", p_write)
                              .num("write_tail_ms", write_tail_ms)
                              .num("index_rows",
                                   static_cast<double>(svc->index().size()))
                              .done());
  report.detail("recall_at_10", json_number(recall));
  report.detail("service_stats", svc->stats_json());

  if (!args.trace) {
    double goodput = 0.0;
    const Rung* nominal = nullptr;
    for (const Rung& r : rungs) {
      if (r.rate == kNominalRate) nominal = &r;
      if (r.pass) goodput = static_cast<double>(r.c.succeeded) / r.seconds;
    }
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
    svc->stop();
    return;
  }

  const Rung& plain = rungs[0];
  const Rung& traced = rungs[1];
  const Samples& lat = traced.c.latency_us;
  const double explained = traced.c.late_us.median() +
                           traced.encode_us.median() +
                           traced.scan_us.median();
  report.metric("search.encode_us_p50", traced.encode_us.median(), "us");
  report.metric("search.encode_us_p99", traced.encode_us.percentile(99.0),
                "us");
  report.metric("search.scan_us_p50", traced.scan_us.median(), "us");
  report.metric("search.scan_us_p99", traced.scan_us.percentile(99.0), "us");
  report.metric("search.scan_codes_per_s",
                traced.scan_us_total
                    ? static_cast<double>(traced.codes) * 1e6 /
                          static_cast<double>(traced.scan_us_total)
                    : 0.0,
                "1/s");
  report.metric("search.add_us_p50", writer.add_us().median(), "us");
  report.metric("search.add_us_max", writer.add_us().max(), "us");
  report.metric("search.first_add_ms", writer.first_add_ms(), "ms");
  report.metric("search.write_tail_ms", write_tail_ms, "ms");
  report.metric("search.recall_at_10", recall, "ratio");
  report.metric("graph.vit_forward_us_b1", forward_us(*ref, sample, 1, 300),
                "us");
  report.metric("graph.vit_forward_us_b8", forward_us(*ref, sample, 8, 200),
                "us");
  report.metric("setup.compile_ms", compile_ms.median(), "ms");
  report.metric("setup.index_build_s", index_s.median(), "s");
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
                    .num("encode", traced.encode_us.median())
                    .num("scan", traced.scan_us.median())
                    .done());
  svc->stop();
}

}  // namespace perfbench
