#!/usr/bin/env python3
"""Build and run the repository benchmark (workloads in BENCHMARK.json).

    python3 perfbench/run.py --workload pretrain_cqc --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
libraries and the benchmark binary under .bench_build/ (build output goes to
stderr); later calls rebuild incrementally. The binary's standard output is
passed through unchanged, so its last line is the result JSON. The exit code
is non-zero, with no result printed, when the build fails, a correctness
gate fails, the result does not name exactly the metrics BENCHMARK.json
lists, or the run does not finish in time.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("pretrain_cqc", "encode_open", "search_mixed")
BUILD_DIR = os.path.join(".bench_build", "cmake")
OUT_DIR = os.path.join(".bench_build", "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Knobs of the repository's own bench harnesses. Clearing them keeps a run
# hermetic: CQ_CACHE_DIR would turn training into a checkpoint load, and
# CQ_THREADS would override the thread pool's default size.
SCRUBBED_ENV = ("CQ_SCALE", "CQ_EPOCHS", "CQ_FT_EPOCHS", "CQ_CACHE_DIR",
                "CQ_THREADS")


def run_group(cmd, timeout, env=None, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: timed out after {timeout}s: {' '.join(cmd)}",
              file=sys.stderr)
        return 124, None


def check_result(stdout, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = stdout.strip().splitlines()
    got = set(json.loads(lines[-1])["metrics"]) if lines else set()
    if got != want:
        print(f"perfbench: metrics {sorted(got ^ want)} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return False
    return True


def build(src_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc, _ = run_group(["cmake", "-S", src_dir, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release",
                           f"-DCQ_BENCH_JOBS={jobs}"],
                          BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            return rc
    rc, _ = run_group(["cmake", "--build", BUILD_DIR, "--parallel", jobs],
                      BUILD_TIMEOUT_S, stdout=sys.stderr)
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src_dir = os.path.dirname(os.path.abspath(__file__))
    rc = build(src_dir)
    if rc != 0:
        print(f"perfbench: build failed (exit {rc})", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    rc, out = run_group([os.path.join(BUILD_DIR, "cq_perfbench"),
                         "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace),
                         "--out-dir", OUT_DIR],
                        RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE)
    if rc != 0:
        if out:
            sys.stderr.write(out.decode())
        return rc
    if not check_result(out.decode(), args.trace):
        return 5
    sys.stdout.write(out.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
