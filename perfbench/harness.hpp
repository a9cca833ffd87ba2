// Shared pieces of the repository benchmark: arguments, correctness gates,
// percentiles over raw samples, the open-loop arrival schedule, the span
// recorder, process/hardware facts, and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/prof.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out_dir;
};

/// A correctness gate failed: the run exits non-zero and prints no metrics.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

/// Raw samples (any unit). Percentiles interpolate linearly between order
/// statistics, as numpy's default does.
class Samples {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  void append(const Samples& other);
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double max() const { return percentile(100.0); }
  /// The highest of p99/p95/p90/p50 with at least ten samples beyond it
  /// (the tail a sample of this size supports). Writes the percentile used.
  double tail(double* p_used) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// Poisson arrival offsets (ns from phase start) at `rate` per second over
/// `seconds`, deterministic in `seed`.
std::vector<std::uint64_t> poisson_schedule(double rate, double seconds,
                                            std::uint64_t seed);

/// Sleep until `due_ns` (steady clock). Returns immediately when past due.
void sleep_until_ns(std::uint64_t due_ns);
/// Wait until `due_ns` by spinning, yielding the CPU to any runnable thread
/// on each turn. A sleeping thread on a virtual machine can wake
/// milliseconds late; this one cannot, as long as it is not preempted.
void spin_until_ns(std::uint64_t due_ns);

// ---- span recorder ---------------------------------------------------------

/// Spans from the benchmark's own code around each call into the library.
/// Spans of one request share `request`; `parent` is the enclosing span's id
/// (0 for a root). Kept in per-thread memory while enabled and written out
/// at exit.
struct Span {
  const char* name = nullptr;  // string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

namespace spans {
void enable(bool on);
bool enabled();
std::uint64_t new_id();
/// Record a finished span; a no-op while disabled. Returns its id.
std::uint64_t record(const char* name, std::uint64_t parent,
                     std::uint64_t request, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t id = 0);
std::vector<Span> collect();

struct LayerTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // duration minus the part its children cover
};
/// Per-name totals and self times, sorted by self time descending.
std::vector<LayerTime> self_times(const std::vector<Span>& all);
/// chrome://tracing JSON ("X" events; id/parent/request under args).
void write_chrome(const std::vector<Span>& all, const std::string& path);
}  // namespace spans

/// The named counter of a profiler snapshot (core/prof.hpp); all zeros when
/// nothing was recorded under that name.
cq::prof::CounterSnapshot find_counter(
    const std::vector<cq::prof::CounterSnapshot>& snap, const char* name);

// ---- process and hardware --------------------------------------------------

double peak_rss_mb();
/// User + system CPU seconds of this process so far.
double cpu_seconds();
std::string cpu_model();
std::size_t hardware_cores();

// ---- report ----------------------------------------------------------------

/// Collects the run's metrics plus a free-form detail object. print() writes
/// the human table and the detail JSON, then the result line last.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  /// Raw JSON value under `key` in the detail object.
  void detail(const std::string& key, const std::string& json);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Prints the report; the last stdout line is the result JSON. Also
  /// writes the detail JSON to `detail_path`.
  void print(const std::string& detail_path) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Minimal JSON object builder for the detail section.
class JsonObj {
 public:
  JsonObj& num(const std::string& key, double v);
  JsonObj& str(const std::string& key, const std::string& v);
  JsonObj& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_number(double v);
std::string json_string(const std::string& s);

/// Per-phase accounting of an open-loop phase (one ladder rung).
struct PhaseCounts {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;    // non-kOk terminal status or wrong output
  std::uint64_t rejected = 0;  // refused at submission
  Samples latency_us;          // from due time, succeeded requests only
  Samples late_us;             // generator lateness: actual - due send time
  /// latency_us again, split into consecutive windows of the phase by due
  /// time, so one bad stretch of a run moves only its own window.
  std::vector<Samples> window_us;
  void add_latency(double us, std::size_t window);
  void merge(const PhaseCounts& other);
  /// Median over windows of each window's p-th percentile.
  double windowed(double p) const;
  /// Generator fell behind: lateness p99 above the bound, see lateness_ok().
  bool lateness_ok(double bound_us) const;
  std::string json(double rate, double slo_ms, bool pass) const;
};

}  // namespace perfbench
