#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

namespace perfbench {

// ---- samples ---------------------------------------------------------------

void Samples::append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_ = false;
}

double Samples::percentile(double p) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double pos = p / 100.0 * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

double Samples::tail(double* p_used) const {
  double p = 50.0;
  for (double cand : {99.0, 95.0, 90.0}) {
    if (static_cast<double>(v_.size()) * (100.0 - cand) / 100.0 >= 10.0) {
      p = cand;
      break;
    }
  }
  if (p_used != nullptr) *p_used = p;
  return percentile(p);
}

// ---- schedule --------------------------------------------------------------

std::vector<std::uint64_t> poisson_schedule(double rate, double seconds,
                                            std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<std::uint64_t> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = gap(gen);
  while (t < seconds) {
    due.push_back(static_cast<std::uint64_t>(t * 1e9));
    t += gap(gen);
  }
  return due;
}

void sleep_until_ns(std::uint64_t due_ns) {
  if (now_ns() < due_ns)
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(due_ns)));
}

void spin_until_ns(std::uint64_t due_ns) {
  while (now_ns() < due_ns) std::this_thread::yield();
}

// ---- spans -----------------------------------------------------------------

namespace spans {
namespace {

struct Buffer {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

Buffer& local_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    buf = g_buffers.back().get();
    buf->tid = static_cast<std::uint32_t>(g_buffers.size());
    buf->spans.reserve(1 << 14);
  }
  return *buf;
}

}  // namespace

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool enabled() { return g_on.load(std::memory_order_relaxed); }

std::uint64_t new_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t record(const char* name, std::uint64_t parent,
                     std::uint64_t request, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t id) {
  if (!enabled()) return 0;
  if (id == 0) id = new_id();
  Buffer& b = local_buffer();
  b.spans.push_back({name, id, parent, request, start_ns, end_ns, b.tid});
  return id;
}

// Buffers are read only after every recording thread has been joined.
std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.end_ns > b.end_ns;
  });
  return all;
}

std::vector<LayerTime> self_times(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) by_id[all[i].id] = i;
  // Child intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      all.size());
  for (const Span& s : all) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = all[it->second];
    const std::uint64_t a = std::max(s.start_ns, p.start_ns);
    const std::uint64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::map<std::string, LayerTime> acc;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (cur_b <= a) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    LayerTime& lt = acc[s.name];
    lt.name = s.name;
    ++lt.count;
    lt.total_ms += static_cast<double>(dur) / 1e6;
    lt.self_ms += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : acc) out.push_back(lt);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

void write_chrome(const std::vector<Span>& all, const std::string& path) {
  std::ofstream f(path);
  if (!f) return;
  const std::uint64_t t0 = all.empty() ? 0 : all.front().start_ns;
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
      << "\"tid\": " << s.tid << ", \"ts\": "
      << json_number(static_cast<double>(s.start_ns - t0) / 1e3)
      << ", \"dur\": "
      << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
      << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"request\": " << s.request << "}}"
      << (i + 1 < all.size() ? ",\n" : "\n");
  }
  f << "]}\n";
}

}  // namespace spans

cq::prof::CounterSnapshot find_counter(
    const std::vector<cq::prof::CounterSnapshot>& snap, const char* name) {
  for (const auto& c : snap)
    if (c.name == name) return c;
  return {};
}

// ---- process and hardware --------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::size_t hardware_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---- JSON ------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonObj::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(k) + ": ";
}

JsonObj& JsonObj::num(const std::string& k, double v) {
  key(k);
  body_ += json_number(v);
  return *this;
}

JsonObj& JsonObj::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_string(v);
  return *this;
}

JsonObj& JsonObj::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

// ---- report ----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  for (const Entry& e : metrics_)
    if (e.name == name) return true;
  return false;
}

void Report::detail(const std::string& key, const std::string& json) {
  std::string one_line = json;  // the detail JSON is printed as one line
  std::replace(one_line.begin(), one_line.end(), '\n', ' ');
  details_.emplace_back(key, one_line);
}

void Report::print(const std::string& detail_path) const {
  JsonObj d;
  for (const auto& [k, v] : details_) d.raw(k, v);
  const std::string detail = d.done();
  if (!detail_path.empty()) {
    std::ofstream f(detail_path);
    f << detail << "\n";
  }
  std::printf("# metrics\n");
  for (const Entry& e : metrics_)
    std::printf("#   %-34s %14.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  std::printf("# detail %s\n", detail.c_str());
  std::string m;
  for (const Entry& e : metrics_) {
    if (!m.empty()) m += ", ";
    m += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
         ", \"unit\": " + json_string(e.unit) + "}";
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), m.c_str());
  std::fflush(stdout);
}

// ---- phases ----------------------------------------------------------------

void PhaseCounts::add_latency(double us, std::size_t window) {
  latency_us.add(us);
  if (window_us.size() <= window) window_us.resize(window + 1);
  window_us[window].add(us);
}

void PhaseCounts::merge(const PhaseCounts& o) {
  sent += o.sent;
  succeeded += o.succeeded;
  failed += o.failed;
  rejected += o.rejected;
  latency_us.append(o.latency_us);
  late_us.append(o.late_us);
  if (window_us.size() < o.window_us.size())
    window_us.resize(o.window_us.size());
  for (std::size_t i = 0; i < o.window_us.size(); ++i)
    window_us[i].append(o.window_us[i]);
}

double PhaseCounts::windowed(double p) const {
  Samples per_window;
  for (const Samples& w : window_us)
    if (!w.empty()) per_window.add(w.percentile(p));
  return per_window.median();
}

bool PhaseCounts::lateness_ok(double bound_us) const {
  return late_us.empty() || late_us.percentile(99.0) <= bound_us;
}

std::string PhaseCounts::json(double rate, double slo_ms, bool pass) const {
  std::string windows = "[";
  for (const Samples& w : window_us)
    windows += (windows.size() > 1 ? ", " : "") +
               json_number(w.percentile(99.0) / 1e3);
  double p_tail = 0.0;
  const double tail = latency_us.tail(&p_tail);
  return JsonObj()
      .num("rate", rate)
      .num("sent", static_cast<double>(sent))
      .num("succeeded", static_cast<double>(succeeded))
      .num("failed", static_cast<double>(failed))
      .num("rejected", static_cast<double>(rejected))
      .num("latency_n", static_cast<double>(latency_us.size()))
      .num("p50_ms", latency_us.median() / 1e3)
      .num("p90_ms", latency_us.percentile(90.0) / 1e3)
      .num("p95_ms", latency_us.percentile(95.0) / 1e3)
      .num("p99_ms", latency_us.percentile(99.0) / 1e3)
      .num("max_ms", latency_us.max() / 1e3)
      .num("windows", static_cast<double>(window_us.size()))
      .num("windowed_p50_ms", windowed(50.0) / 1e3)
      .num("windowed_p99_ms", windowed(99.0) / 1e3)
      .raw("window_p99_ms", windows + "]")
      .num("tail_pct", p_tail)
      .num("tail_ms", tail / 1e3)
      .num("late_us_p50", late_us.median())
      .num("late_us_p99", late_us.percentile(99.0))
      .num("late_n", static_cast<double>(late_us.size()))
      .num("slo_ms", slo_ms)
      .raw("meets_slo", pass ? "true" : "false")
      .done();
}

}  // namespace perfbench
