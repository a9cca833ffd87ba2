#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/prof.hpp"

namespace cq::serve {

std::size_t LatencyHistogram::bucket_index(std::uint64_t micros) {
  if (micros <= 1) return 0;  // 0 µs is filed with 1 µs
  // Bucket i holds [bucket_lower(i), bucket_lower(i + 1)) — the range
  // percentile() interpolates over — so index = floor(log2(micros) * 4).
  // log2 is rounded, so settle the last step against the bucket edges
  // themselves: a value a rounding error from an edge still lands in the
  // bucket whose range contains it.
  const double v = static_cast<double>(micros);
  auto i = std::min(static_cast<std::size_t>(
                        std::log2(v) * static_cast<double>(kBucketsPerOctave)),
                    kBuckets - 1);
  if (v < bucket_lower(i))
    --i;
  else if (i + 1 < kBuckets && v >= bucket_lower(i + 1))
    ++i;
  return i;
}

double LatencyHistogram::bucket_lower(std::size_t index) {
  // Tabulated once: record() looks up two edges per sample.
  static const std::array<double, kBuckets + 1> edges = [] {
    std::array<double, kBuckets + 1> e{};
    for (std::size_t i = 0; i < e.size(); ++i)
      e[i] = std::exp2(static_cast<double>(i) /
                       static_cast<double>(kBucketsPerOctave));
    return e;
  }();
  return edges[index];
}

void LatencyHistogram::record(std::uint64_t micros) {
  ++buckets_[bucket_index(micros)];
  ++count_;
  sum_ += micros;
  if (micros > max_) max_ = micros;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest rank (1-based). p * count is exact for integral p, so the
  // division only rounds quotients that are far from an integer.
  const double rank = std::max(
      1.0, std::ceil(p * static_cast<double>(count_) / 100.0));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const auto next = seen + buckets_[i];
    if (static_cast<double>(next) >= rank) {
      // Interpolate by rank within the bucket holding the rank-th sample,
      // at the rank's midpoint so the estimate stays strictly inside the
      // bucket's [lower, upper) range.
      const double lo = bucket_lower(i);
      const double hi = bucket_lower(i + 1);
      const double frac = (rank - static_cast<double>(seen) - 0.5) /
                          static_cast<double>(buckets_[i]);
      return std::min(lo + (hi - lo) * frac, static_cast<double>(max_));
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

namespace {

void json_latency(std::ostringstream& os, const char* key,
                  const LatencyHistogram& h) {
  os << "\"" << key << "\": {\"count\": " << h.count()
     << ", \"mean_us\": " << h.mean_micros()
     << ", \"p50_us\": " << h.percentile(50.0)
     << ", \"p90_us\": " << h.percentile(90.0)
     << ", \"p95_us\": " << h.percentile(95.0)
     << ", \"p99_us\": " << h.percentile(99.0)
     << ", \"max_us\": " << h.max_micros() << "}";
}

/// Emit [n1, n2, ...] trimmed at the last non-zero bucket (bucket i = batch
/// size i+1), so an idle worker renders as [] rather than 64 zeros.
void json_batch_hist(std::ostringstream& os, const BatchHist& h) {
  std::size_t last = 0;
  for (std::size_t i = 0; i < h.size(); ++i)
    if (h[i] != 0) last = i + 1;
  os << "[";
  for (std::size_t i = 0; i < last; ++i) {
    if (i) os << ", ";
    os << h[i];
  }
  os << "]";
}

}  // namespace

std::string EngineStats::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"submitted\": " << submitted << ",\n"
     << "  \"served\": " << served << ",\n"
     << "  \"rejected_full\": " << rejected_full << ",\n"
     << "  \"timed_out\": " << timed_out << ",\n"
     << "  \"shutdown_failed\": " << shutdown_failed << ",\n"
     << "  \"batches\": " << batches << ",\n"
     << "  \"stolen\": " << stolen << ",\n"
     << "  \"mean_batch_size\": " << mean_batch_size << ",\n"
     << "  \"max_batch_seen\": " << max_batch_seen << ",\n"
     << "  \"queue_depth\": " << queue_depth << ",\n"
     << "  \"queue_peak_depth\": " << queue_peak_depth << ",\n"
     << "  \"warmup_heap_allocs\": " << warmup_heap_allocs << ",\n"
     << "  \"steady_heap_allocs\": " << steady_heap_allocs << ",\n"
     << "  \"uptime_seconds\": " << uptime_seconds << ",\n"
     << "  \"throughput_rps\": " << throughput_rps << ",\n  ";
  os << "\"batch_hist\": ";
  json_batch_hist(os, batch_hist);
  os << ",\n  \"workers\": [";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerSnapshot& w = workers[i];
    if (i) os << ", ";
    os << "{\"served\": " << w.served << ", \"batches\": " << w.batches
       << ", \"timed_out\": " << w.timed_out << ", \"stolen\": " << w.stolen
       << ", \"mean_batch_size\": " << w.mean_batch_size
       << ", \"queue_depth\": " << w.queue_depth
       << ", \"queue_peak_depth\": " << w.queue_peak_depth
       << ", \"batch_hist\": ";
    json_batch_hist(os, w.batch_hist);
    os << "}";
  }
  os << "],\n  ";
  json_latency(os, "queue_latency", queue_latency);
  os << ",\n  ";
  json_latency(os, "forward_latency", forward_latency);
  os << ",\n  ";
  json_latency(os, "total_latency", total_latency);
  // Aggregate profiler table: per-op wall time over every instrumented
  // scope the process ran (serve pipeline phases, GEMM, lowering, ...).
  os << ",\n  \"profile\": " << prof::json();
  os << "\n}";
  return os.str();
}

}  // namespace cq::serve
