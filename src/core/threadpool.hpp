// Work-stealing thread pool driving every multi-core path in the repo: the
// GEMM macro loops (fp32 and int8), batched im2col lowering, the graph
// executor's per-op batch splits, and the serve engine's sharded workers all
// dispatch through ThreadPool::parallel_for.
//
// Design (DESIGN.md §14):
//  * One process-wide pool (ThreadPool::instance()), sized from the
//    CQ_THREADS environment variable at first use (default: hardware
//    concurrency) and resizable at runtime via set_size(). Size 1 means NO
//    worker threads: every parallel_for runs inline on the caller — exactly
//    the pre-threadpool behaviour, with zero dispatch overhead and zero
//    allocation.
//  * Work-stealing deques: each worker owns a fixed-capacity deque of task
//    descriptors. parallel_for chunks its index range, deals the chunks
//    round-robin across the deques, and the caller participates: it executes
//    chunks of ITS OWN job (stolen from any deque) until none remain, then
//    sleeps on the job latch. Workers pop LIFO from their own deque and
//    steal FIFO from siblings. The deques are mutex-guarded — at chunk
//    granularity (thousands of micro-kernel tiles per chunk) the lock is
//    noise; the LOCK-FREE structure in this PR is the serve RequestQueue,
//    which sits on the request hot path.
//  * Determinism: the pool never changes WHAT a chunk computes, only WHERE
//    it runs. Callers partition output tiles so every chunk writes a
//    disjoint region and each tile's accumulation order is independent of
//    the partition — results are bitwise-identical at every pool size,
//    enforced by the parallel-vs-serial fuzz suites in tests/.
//  * Nesting: a parallel_for issued from inside a pool worker, or from
//    inside a SerialScope, runs inline (serially). This keeps one level of
//    parallelism — the outermost dispatch — and makes the pool
//    deadlock-free by construction.
//  * No allocation per dispatch: task descriptors are POD, the job latch
//    lives on the caller's stack, and the deques are preallocated. A
//    steady-state serving forward stays at zero heap allocations with the
//    pool engaged (pinned by the ZeroAllocSteadyState tests).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace cq::core {

class ThreadPool {
 public:
  /// The process-wide pool. First call reads CQ_THREADS (clamped to
  /// [1, kMaxThreads]; unset/invalid -> hardware concurrency) and spawns
  /// size-1 workers.
  static ThreadPool& instance();

  /// Parallelism degree (worker threads + the participating caller). 1 means
  /// fully inline execution.
  std::size_t size() const { return size_; }

  /// Resize the pool: joins existing workers and spawns n-1 fresh ones.
  /// Not safe to call concurrently with parallel_for from other threads;
  /// intended for startup configuration and tests.
  void set_size(std::size_t n);

  /// True on a pool worker thread (used to run nested dispatches inline).
  static bool on_worker_thread();

  /// True when a parallel_for issued from this thread runs inline: on a pool
  /// worker, or inside a SerialScope.
  static bool runs_inline();

  /// While alive, every parallel_for issued from the constructing thread
  /// runs inline, exactly as it would on a pool worker. A caller that
  /// dispatches its own coarse chunks opens one inside each chunk body, so
  /// the work within a chunk stays serial wherever the chunk runs —
  /// including on the dispatching thread, which executes chunks of its own
  /// job while it waits, or when the whole range runs inline.
  class SerialScope {
   public:
    SerialScope();
    ~SerialScope();
    SerialScope(const SerialScope&) = delete;
    SerialScope& operator=(const SerialScope&) = delete;
  };

  /// Invoke fn(begin, end) over disjoint sub-ranges covering [0, total).
  /// Chunks are at least `grain` indices (the last may be smaller); at most
  /// kChunksPerThread chunks per pool thread are created. Runs inline when
  /// the pool has size 1, when the range fits one grain, or when called
  /// from a pool worker. Returns after every chunk has executed.
  /// fn must be safe to run concurrently on disjoint ranges.
  template <typename F>
  void parallel_for(std::int64_t total, std::int64_t grain, F&& fn) {
    if (total <= 0) return;
    if (grain < 1) grain = 1;
    if (size_ <= 1 || total <= grain || runs_inline()) {
      fn(std::int64_t{0}, total);
      return;
    }
    const auto invoke = [](void* ctx, std::int64_t b, std::int64_t e) {
      (*static_cast<std::remove_reference_t<F>*>(ctx))(b, e);
    };
    run_job(total, grain, invoke, &fn);
  }

  /// parallel_for with an automatic grain: one chunk per pool thread times
  /// kChunksPerThread, each at least `min_grain`.
  template <typename F>
  void parallel_for(std::int64_t total, F&& fn) {
    parallel_for(total, std::int64_t{1}, static_cast<F&&>(fn));
  }

  static constexpr std::size_t kMaxThreads = 256;
  static constexpr std::int64_t kChunksPerThread = 4;

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  using InvokeFn = void (*)(void*, std::int64_t, std::int64_t);

  /// Completion latch for one parallel_for, living on the caller's stack.
  struct Job {
    InvokeFn invoke;
    void* ctx;
    std::atomic<std::int64_t> remaining;  // chunks not yet finished
    std::mutex done_mu;
    std::condition_variable done_cv;
  };

  /// One chunk of one job. POD so deque slots never allocate.
  struct Task {
    Job* job = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  /// Fixed-capacity work-stealing deque. Owner pops LIFO at the bottom
  /// (cache-warm chunks first), thieves steal FIFO at the top. Guarded by a
  /// per-deque mutex; see the header comment for why that is the right
  /// trade at chunk granularity.
  struct Deque {
    std::mutex mu;
    std::vector<Task> slots;
    std::size_t top = 0;     // next steal position
    std::size_t bottom = 0;  // next push position
  };

  ThreadPool();  // sized from CQ_THREADS / hardware concurrency

  void start_workers();
  void stop_workers();
  void worker_main(std::size_t index);
  void run_job(std::int64_t total, std::int64_t grain, InvokeFn invoke,
               void* ctx);
  bool try_pop(std::size_t index, Task& out);    // LIFO from own deque
  bool try_steal(std::size_t avoid, Task& out);  // FIFO from any other
  /// Steal a chunk belonging to `job` from any deque (the caller helping
  /// drain its own dispatch).
  bool try_steal_job(const Job* job, Task& out);
  static void finish(Task& t);

  std::size_t size_ = 1;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<Deque>> deques_;
  // Sleep/wake for idle workers. pending_ counts queued (unexecuted) tasks:
  // incremented before a pusher acquires wake_mu_ to notify, decremented
  // under the owning deque's mutex at pop. A worker evaluates the wait
  // predicate while holding wake_mu_, and a pusher notifies while holding
  // it, so the worker either sees pending_ > 0 or blocks before the pusher
  // can acquire the lock — no missed wakeups.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<std::int64_t> pending_{0};
  bool stop_ = false;  // guarded by wake_mu_
};

/// The pool size CQ_THREADS requests: the parsed value clamped to
/// [1, kMaxThreads], or hardware_concurrency() (min 1) when unset/invalid.
std::size_t configured_threads();

/// Convenience forwarding to the global pool.
template <typename F>
inline void parallel_for(std::int64_t total, std::int64_t grain, F&& fn) {
  ThreadPool::instance().parallel_for(total, grain, static_cast<F&&>(fn));
}

}  // namespace cq::core
