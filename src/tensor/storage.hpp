// Storage: ref-counted float buffer behind Tensor, backed by a size-bucketed
// thread-local free-list pool.
//
// Why: the CQ pipelines push 2-4 encoder branches per iteration through the
// same modules, so every training step used to re-allocate the whole
// activation set (forward outputs, LIFO backward caches, im2col buffers,
// fake-quantized weights) several times over. Buffers released here are
// parked in per-size-class free lists instead of returning to the heap, so a
// steady-state iteration re-acquires the same blocks it released one branch
// ago. Capacities are rounded up to the next power of two (min 32 floats),
// which lets differently-shaped tensors of similar size share a bucket.
//
// Thread model: the pool and its counters are thread-local, but the refcount
// is atomic, so Storage handles (and therefore Tensors) may be handed across
// threads — the serving engine's workers receive batches assembled from
// client-thread data and free scratch on whichever thread tears the engine
// down. The rules (audited for src/serve/, see DESIGN.md Sec. 10):
//   * Hand-off (move or copy of a handle to another thread) is safe: the
//     atomic refcount makes the last-owner decision race-free.
//   * Concurrent *mutation* of one Tensor is still the caller's problem —
//     COW detaching (non-const data()) from two threads at once is a race on
//     the payload, exactly like any shared buffer.
//   * A buffer released on a thread other than its allocator parks in the
//     *releasing* thread's pool (the fallback path: blocks never cross back,
//     they are simply adopted). Consequence: per-thread byte gauges
//     (live_bytes / pooled_bytes) are home-thread approximations — a thread
//     that frees foreign buffers can show live_bytes < 0 while the allocating
//     thread's stays high. Hit/miss/cumulative counters are exact per thread.
//
// Accounting (cq::tensor::alloc_stats()):
//   pool_hits / pool_misses  — acquires served from a free list vs the heap
//   cumulative_allocations   — lifetime heap allocations (never reset)
//   process_allocations()    — the same, summed over every thread
//   live_bytes               — bytes held by outstanding Storage handles
//   pooled_bytes             — bytes parked in free lists, ready for reuse
#pragma once

#include <atomic>
#include <cstdint>

namespace cq {

namespace detail {
/// Intrusive block header; the float payload follows immediately. The
/// refcount is atomic so handles can be handed across threads; capacity is
/// immutable after allocation.
struct StorageHeader {
  std::atomic<std::uint64_t> refs;
  std::int64_t capacity;  // floats
};
}  // namespace detail

class Storage {
 public:
  Storage() = default;
  ~Storage() { release(); }

  Storage(const Storage& other) : h_(other.h_) {
    if (h_ != nullptr) h_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Storage& operator=(const Storage& other) {
    if (this != &other) {
      release();
      h_ = other.h_;
      if (h_ != nullptr) h_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  Storage(Storage&& other) noexcept : h_(other.h_) { other.h_ = nullptr; }
  Storage& operator=(Storage&& other) noexcept {
    if (this != &other) {
      release();
      h_ = other.h_;
      other.h_ = nullptr;
    }
    return *this;
  }

  /// Pool-backed buffer holding at least `numel` floats. Contents are
  /// unspecified (recycled blocks keep their previous bytes).
  static Storage acquire(std::int64_t numel);

  float* data() { return h_ != nullptr ? payload(h_) : nullptr; }
  const float* data() const { return h_ != nullptr ? payload(h_) : nullptr; }

  /// Usable capacity in floats (the bucket size, >= the requested numel).
  std::int64_t capacity() const { return h_ != nullptr ? h_->capacity : 0; }

  std::uint64_t use_count() const {
    return h_ != nullptr ? h_->refs.load(std::memory_order_relaxed) : 0;
  }
  bool unique() const {
    return h_ != nullptr && h_->refs.load(std::memory_order_acquire) == 1;
  }
  explicit operator bool() const { return h_ != nullptr; }

  void reset() {
    release();
    h_ = nullptr;
  }

 private:
  using Header = detail::StorageHeader;

  static float* payload(Header* h) { return reinterpret_cast<float*>(h + 1); }

  explicit Storage(Header* h) : h_(h) {}
  void release();

  Header* h_ = nullptr;
};

namespace tensor {

/// Snapshot of the calling thread's pool counters.
struct AllocStats {
  std::uint64_t pool_hits = 0;    // acquires served from a free list
  std::uint64_t pool_misses = 0;  // acquires that had to hit the heap
  /// Lifetime heap allocations; unlike hits/misses this survives
  /// reset_alloc_counters(), so "flat after warm-up" is directly testable.
  std::uint64_t cumulative_allocations = 0;
  std::int64_t live_bytes = 0;    // held by outstanding Storage handles
  std::int64_t pooled_bytes = 0;  // parked in free lists
  std::int64_t peak_live_bytes = 0;
};

AllocStats alloc_stats();

/// Lifetime heap allocations made by EVERY thread's pool — the calling
/// thread, pool workers running a caller's chunks, serve workers. The
/// process-wide twin of AllocStats::cumulative_allocations: a delta of zero
/// across a window proves no thread left pooled storage in it.
std::uint64_t process_allocations();

/// Zero pool_hits / pool_misses (cumulative_allocations and the byte gauges
/// are left alone).
void reset_alloc_counters();

/// Free every parked block back to the heap; returns the bytes released.
/// Live Storage handles are unaffected.
std::int64_t trim_pool();

}  // namespace tensor
}  // namespace cq
