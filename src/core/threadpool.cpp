#include "core/threadpool.hpp"

#include <cstdlib>
#include <string>

namespace cq::core {
namespace {

// Set for the lifetime of each pool worker thread; parallel_for consults it
// to run nested dispatches inline (one level of parallelism, no deadlocks).
thread_local bool t_on_worker = false;
// Open SerialScope count on this thread.
thread_local int t_serial_depth = 0;

// Per-worker deque capacity. Pushers never block on a full deque — run_job
// executes overflow chunks inline on the caller — so this only needs to
// cover the common case: kChunksPerThread chunks per job times a handful of
// concurrent jobs.
constexpr std::size_t kDequeSlots = 64;

}  // namespace

std::size_t configured_threads() {
  const char* env = std::getenv("CQ_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<std::size_t>(
          v > static_cast<long>(ThreadPool::kMaxThreads)
              ? ThreadPool::kMaxThreads
              : v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 1) return 1;
  return hw > ThreadPool::kMaxThreads ? ThreadPool::kMaxThreads : hw;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : size_(configured_threads()) { start_workers(); }

ThreadPool::~ThreadPool() { stop_workers(); }

bool ThreadPool::on_worker_thread() { return t_on_worker; }

bool ThreadPool::runs_inline() { return t_on_worker || t_serial_depth > 0; }

ThreadPool::SerialScope::SerialScope() { ++t_serial_depth; }
ThreadPool::SerialScope::~SerialScope() { --t_serial_depth; }

void ThreadPool::set_size(std::size_t n) {
  if (n < 1) n = 1;
  if (n > kMaxThreads) n = kMaxThreads;
  if (n == size_) return;
  stop_workers();
  size_ = n;
  start_workers();
}

void ThreadPool::start_workers() {
  if (size_ <= 1) return;
  stop_ = false;
  pending_.store(0, std::memory_order_relaxed);
  deques_.clear();
  deques_.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i) {
    deques_.push_back(std::make_unique<Deque>());
    deques_.back()->slots.resize(kDequeSlots);
  }
  threads_.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

void ThreadPool::stop_workers() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  deques_.clear();
}

bool ThreadPool::try_pop(std::size_t index, Task& out) {
  Deque& dq = *deques_[index];
  std::lock_guard<std::mutex> lk(dq.mu);
  if (dq.bottom == dq.top) return false;
  --dq.bottom;
  out = dq.slots[dq.bottom % kDequeSlots];
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::try_steal(std::size_t avoid, Task& out) {
  const std::size_t n = deques_.size();
  for (std::size_t k = 1; k <= n; ++k) {
    const std::size_t i = (avoid + k) % n;
    if (i == avoid) continue;
    Deque& dq = *deques_[i];
    std::lock_guard<std::mutex> lk(dq.mu);
    if (dq.bottom == dq.top) continue;
    out = dq.slots[dq.top % kDequeSlots];
    ++dq.top;
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool ThreadPool::try_steal_job(const Job* job, Task& out) {
  for (std::size_t i = 0; i < deques_.size(); ++i) {
    Deque& dq = *deques_[i];
    std::lock_guard<std::mutex> lk(dq.mu);
    // Scan from the bottom so the caller drains its (LIFO-recent) chunks
    // before workers would reach them.
    for (std::size_t p = dq.bottom; p != dq.top; --p) {
      Task& slot = dq.slots[(p - 1) % kDequeSlots];
      if (slot.job != job) continue;
      out = slot;
      // Close the gap by shifting the stack above the hole down one slot.
      for (std::size_t q = p; q != dq.bottom; ++q) {
        dq.slots[(q - 1) % kDequeSlots] = dq.slots[q % kDequeSlots];
      }
      --dq.bottom;
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::finish(Task& t) {
  Job* job = t.job;
  // Decrement under done_mu so the caller cannot observe remaining == 0 and
  // destroy the stack-allocated Job while this thread still touches it.
  std::lock_guard<std::mutex> lk(job->done_mu);
  if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    job->done_cv.notify_all();
  }
}

void ThreadPool::worker_main(std::size_t index) {
  t_on_worker = true;
  for (;;) {
    Task t;
    if (try_pop(index, t) || try_steal(index, t)) {
      t.job->invoke(t.job->ctx, t.begin, t.end);
      finish(t);
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_mu_);
    wake_cv_.wait(lk, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_) return;
  }
}

void ThreadPool::run_job(std::int64_t total, std::int64_t grain,
                         InvokeFn invoke, void* ctx) {
  const std::int64_t max_chunks =
      static_cast<std::int64_t>(size_) * kChunksPerThread;
  std::int64_t chunks = (total + grain - 1) / grain;
  if (chunks > max_chunks) chunks = max_chunks;

  Job job;
  job.invoke = invoke;
  job.ctx = ctx;
  job.remaining.store(chunks, std::memory_order_relaxed);

  // Deal chunks round-robin across the worker deques. The partition is a
  // pure function of (total, chunks): chunk ci covers base indices plus one
  // extra for the first `total % chunks` chunks, so the ranges — and thus
  // the results — never depend on scheduling.
  const std::int64_t base = total / chunks;
  const std::int64_t rem = total % chunks;
  std::int64_t begin = 0;
  std::int64_t queued = 0;
  const std::size_t n = deques_.size();
  for (std::int64_t ci = 0; ci < chunks; ++ci) {
    const std::int64_t len = base + (ci < rem ? 1 : 0);
    Task t{&job, begin, begin + len};
    begin += len;
    bool pushed = false;
    for (std::size_t k = 0; k < n && !pushed; ++k) {
      Deque& dq = *deques_[(static_cast<std::size_t>(ci) + k) % n];
      std::lock_guard<std::mutex> lk(dq.mu);
      if (dq.bottom - dq.top < kDequeSlots) {
        dq.slots[dq.bottom % kDequeSlots] = t;
        ++dq.bottom;
        pushed = true;
      }
    }
    if (pushed) {
      ++queued;
    } else {
      // Every deque full: run the chunk inline rather than blocking.
      invoke(ctx, t.begin, t.end);
      finish(t);
    }
  }

  if (queued > 0) {
    pending_.fetch_add(queued, std::memory_order_release);
    // Empty critical section pairs with the worker's predicate evaluation
    // under wake_mu_ (see header): no missed wakeups.
    { std::lock_guard<std::mutex> lk(wake_mu_); }
    wake_cv_.notify_all();
  }

  // The caller participates: execute chunks of THIS job until none are
  // queued, then wait for in-flight chunks on worker threads.
  Task t;
  while (try_steal_job(&job, t)) {
    invoke(ctx, t.begin, t.end);
    finish(t);
  }
  std::unique_lock<std::mutex> lk(job.done_mu);
  job.done_cv.wait(lk, [&job] {
    return job.remaining.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace cq::core
