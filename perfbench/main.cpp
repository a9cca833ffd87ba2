// Repository benchmark: one binary, three workloads.
//
//   cq_perfbench --workload <pretrain_cqc|encode_open|search_mixed>
//                --seed N --seconds S --trace <0|1> --out-dir DIR
//
// Prints a human-readable table and a detail JSON line (hardware, phases,
// request counts), then the result JSON as the last stdout line. A failed
// correctness gate exits 3 without printing a result. Normally started by
// perfbench/run.py, which builds it first.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/threadpool.hpp"
#include "harness.hpp"
#include "tensor/kernels/igemm.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atoi(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds >= 1 &&
         !a.out_dir.empty();
}

// Every per-layer metric, in BENCHMARK.json order. A traced run reports all
// of them; a layer its workload bypasses reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"data.augment_ms_per_iter", "ms"},
    {"nn.forward_ms_per_iter", "ms"},
    {"nn.backward_ms_per_iter", "ms"},
    {"core.loss_ms_per_iter", "ms"},
    {"optim.step_ms_per_iter", "ms"},
    {"quant.quantize_ms_per_iter", "ms"},
    {"quant.memo_hit_ratio", "ratio"},
    {"tensor.gemm_ms_per_iter", "ms"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tensor.im2col_ms_per_iter", "ms"},
    {"tensor.col2im_ms_per_iter", "ms"},
    {"tensor.pool_hit_ratio", "ratio"},
    {"tensor.steady_allocs_per_iter", "count"},
    {"proc.cpu_per_wall", "ratio"},
    {"trace.step_ms", "ms"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.batch_mean", "count"},
    {"serve.batch_fill_ratio", "ratio"},
    {"serve.rejected_ratio", "ratio"},
    {"serve.steady_heap_allocs", "count"},
    {"graph.forward_us_b1", "us"},
    {"graph.forward_us_b8", "us"},
    {"graph.forward_us_b32", "us"},
    {"graph.forward_fp32_us_b32", "us"},
    {"graph.forward_us_b32_default_pool", "us"},
    {"graph.conv_int8_share", "ratio"},
    {"tensor.im2col_share", "ratio"},
    {"tensor.igemm_share", "ratio"},
    {"search.encode_us_p50", "us"},
    {"search.encode_us_p99", "us"},
    {"search.scan_us_p50", "us"},
    {"search.scan_us_p99", "us"},
    {"search.scan_codes_per_s", "1/s"},
    {"search.add_us_p50", "us"},
    {"search.add_us_max", "us"},
    {"search.first_add_ms", "ms"},
    {"search.write_tail_ms", "ms"},
    {"search.recall_at_10", "ratio"},
    {"graph.vit_forward_us_b1", "us"},
    {"graph.vit_forward_us_b8", "us"},
    {"setup.compile_ms", "ms"},
    {"setup.index_build_s", "s"},
    {"gen.late_us_p99", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.unexplained_share", "ratio"},
};

/// Traced runs: the per-layer span table (self time = duration minus the
/// part its child spans cover) and the chrome trace file.
void report_spans(const Args& args, Report& report) {
  const std::vector<Span> all = spans::collect();
  std::string table = "[";
  std::printf("# spans: %-34s %10s %12s %12s\n", "name", "count", "total_ms",
              "self_ms");
  for (const auto& lt : spans::self_times(all)) {
    std::printf("#        %-34s %10llu %12.3f %12.3f\n", lt.name.c_str(),
                static_cast<unsigned long long>(lt.count), lt.total_ms,
                lt.self_ms);
    table += (table.size() > 1 ? ", " : "") +
             JsonObj()
                 .str("name", lt.name)
                 .num("count", static_cast<double>(lt.count))
                 .num("total_ms", lt.total_ms)
                 .num("self_ms", lt.self_ms)
                 .done();
  }
  report.detail("span_self_times", table + "]");
  const std::string path = args.out_dir + "/trace_" + args.workload + "_" +
                           std::to_string(args.seed) + ".json";
  spans::write_chrome(all, path);
  report.detail("trace_file", json_string(path));
}

std::string hardware_json() {
  const char* env = std::getenv("CQ_THREADS");
  return JsonObj()
      .num("cores", static_cast<double>(hardware_cores()))
      .num("pool_size",  // as the workload ran it
           static_cast<double>(cq::core::ThreadPool::instance().size()))
      .str("cq_threads_env", env != nullptr ? env : "")
      .str("cpu_model", cpu_model())
      .str("igemm_backend", cq::igemm::backend())
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: cq_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR\n");
    return 2;
  }
  Report report;
  report.detail("workload", json_string(args.workload));
  report.detail("seed", json_number(static_cast<double>(args.seed)));
  report.detail("seconds", json_number(args.seconds));
  report.detail("trace", args.trace ? "true" : "false");
  try {
    if (args.workload == "pretrain_cqc") run_pretrain_cqc(args, report);
    else if (args.workload == "encode_open") run_encode_open(args, report);
    else if (args.workload == "search_mixed") run_search_mixed(args, report);
    else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "CORRECTNESS GATE FAILED: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 4;
  }
  report.detail("hardware", hardware_json());
  if (args.trace) {
    report_spans(args, report);
    for (const LayerMetric& m : kPerLayer)
      if (!report.has(m.name)) report.metric(m.name, 0.0, m.unit);
  }
  report.print(args.out_dir + "/result_" + args.workload + "_" +
               std::to_string(args.seed) + (args.trace ? "_trace" : "") +
               ".json");
  return 0;
}
