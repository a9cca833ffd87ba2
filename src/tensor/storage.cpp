#include "tensor/storage.hpp"

#include <bit>
#include <mutex>
#include <new>
#include <vector>

#include "core/prof.hpp"
#include "util/check.hpp"

namespace cq {

namespace {

// Feed the aggregate profiler's per-scope heap-allocation deltas from this
// thread's pool-miss counter (prof lives below the tensor layer and cannot
// call alloc_stats() itself). Static-init registration: prof's registry is a
// Meyers singleton, so the order is safe.
const bool kProfAllocSourceRegistered = [] {
  prof::set_alloc_source(
      [] { return tensor::alloc_stats().cumulative_allocations; });
  return true;
}();

/// Smallest bucket, in floats. Sub-32-element tensors (scalars, per-channel
/// vectors) all share one size class.
constexpr std::int64_t kMinBucketFloats = 32;
constexpr int kNumBuckets = 48;  // 2^5 .. 2^52 floats — far beyond any tensor

std::int64_t bucket_capacity(std::int64_t numel) {
  const auto need =
      static_cast<std::uint64_t>(numel < kMinBucketFloats ? kMinBucketFloats
                                                          : numel);
  return static_cast<std::int64_t>(std::bit_ceil(need));
}

int bucket_index(std::int64_t capacity) {
  return std::bit_width(static_cast<std::uint64_t>(capacity)) - 1;
}

// Every pool miss on any thread; see tensor::process_allocations().
std::atomic<std::uint64_t> g_process_allocations{0};

struct Pool {
  std::vector<void*> free_lists[kNumBuckets];  // parked Header blocks
  tensor::AllocStats stats;
};

// Heap-allocated and intentionally never destroyed: Storage handles may
// legally outlive normal thread_local destruction order (e.g. statics).
// Every pool is anchored in a global registry — a TLS pointer alone stops
// being a reachability root once its thread exits, and the profiler's
// alloc-source hook (above) means any thread that records a span owns a
// pool, so exited short-lived threads would otherwise read as leaks under
// LeakSanitizer. The registry itself leaks by design for the same reason.
// tensor::trim_pool() exists for explicit release of parked blocks.
std::mutex& pool_registry_mutex() {
  static std::mutex m;
  return m;
}

std::vector<Pool*>& pool_registry() {
  static std::vector<Pool*>* r = new std::vector<Pool*>();
  return *r;
}

Pool& pool() {
  thread_local Pool* p = [] {
    auto* fresh = new Pool;
    std::lock_guard<std::mutex> lock(pool_registry_mutex());
    pool_registry().push_back(fresh);
    return fresh;
  }();
  return *p;
}

}  // namespace

Storage Storage::acquire(std::int64_t numel) {
  CQ_CHECK_MSG(numel >= 0, "Storage::acquire(" << numel << ")");
  const auto capacity = bucket_capacity(numel);
  const int idx = bucket_index(capacity);
  Pool& p = pool();
  const auto bytes = static_cast<std::int64_t>(capacity) *
                     static_cast<std::int64_t>(sizeof(float));
  Header* h = nullptr;
  auto& list = p.free_lists[idx];
  if (!list.empty()) {
    h = static_cast<Header*>(list.back());
    list.pop_back();
    h->refs.store(1, std::memory_order_relaxed);
    ++p.stats.pool_hits;
    p.stats.pooled_bytes -= bytes;
  } else {
    void* raw =
        ::operator new(sizeof(Header) + static_cast<std::size_t>(bytes));
    h = ::new (raw) Header{{1}, capacity};
    ++p.stats.pool_misses;
    ++p.stats.cumulative_allocations;
    g_process_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  p.stats.live_bytes += bytes;
  if (p.stats.live_bytes > p.stats.peak_live_bytes)
    p.stats.peak_live_bytes = p.stats.live_bytes;
  return Storage(h);
}

void Storage::release() {
  if (h_ == nullptr) return;
  // acq_rel: the last owner must observe every write the other owners made
  // to the payload before it republishes the block through a free list.
  if (h_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Fallback path for cross-thread hand-off: the block parks in the
    // *releasing* thread's pool, whichever thread that is.
    Pool& p = pool();
    const auto bytes = h_->capacity * static_cast<std::int64_t>(sizeof(float));
    p.stats.live_bytes -= bytes;
    p.stats.pooled_bytes += bytes;
    p.free_lists[bucket_index(h_->capacity)].push_back(h_);
  }
  h_ = nullptr;
}

namespace tensor {

AllocStats alloc_stats() { return pool().stats; }

std::uint64_t process_allocations() {
  return g_process_allocations.load(std::memory_order_relaxed);
}

void reset_alloc_counters() {
  Pool& p = pool();
  p.stats.pool_hits = 0;
  p.stats.pool_misses = 0;
}

std::int64_t trim_pool() {
  Pool& p = pool();
  std::int64_t freed = 0;
  for (auto& list : p.free_lists) {
    for (void* block : list) {
      freed += static_cast<detail::StorageHeader*>(block)->capacity *
               static_cast<std::int64_t>(sizeof(float));
      ::operator delete(block);
    }
    list.clear();
  }
  p.stats.pooled_bytes -= freed;
  return freed;
}

}  // namespace tensor
}  // namespace cq
