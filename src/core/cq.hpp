// Contrastive Quant: variant taxonomy and pretraining configuration.
//
// The paper's Fig. 1 pipelines:
//   Vanilla  — plain SimCLR/BYOL, full precision:  NCE(f, f+)
//   CQ-A     — sequential augmentation (Eq. 5):
//                f = F_q1(Aug1(x)), f+ = F_q2(Aug2(x)), NCE(f, f+)
//   CQ-B     — per-precision view consistency (Eq. 6-8):
//                NCE(f1, f1+) + NCE(f2, f2+)
//   CQ-C     — CQ-B plus cross-precision consistency (Eq. 9):
//                + NCE(f1, f2) + NCE(f1+, f2+)
//   CQ-Quant — quantization as the *only* augmentation (Sec. 4.5):
//                NCE(f1, f2) with identity input augmentation
#pragma once

#include <string>
#include <vector>

#include "data/augment.hpp"
#include "quant/policy.hpp"

namespace cq::core {

enum class CqVariant { kVanilla, kCqA, kCqB, kCqC, kCqQuant };

std::string variant_name(CqVariant variant);
/// Parses "simclr"/"vanilla", "cq-a", "cq-b", "cq-c", "cq-quant".
CqVariant parse_variant(const std::string& name);
/// Number of encoder branches per iteration (2 for vanilla/CQ-A/CQ-Quant,
/// 4 for CQ-B/CQ-C).
int branches_per_iteration(CqVariant variant);

struct PretrainConfig {
  CqVariant variant = CqVariant::kVanilla;
  /// Bit-width pool for (q1, q2); ignored by kVanilla. The paper's sets are
  /// PrecisionSet::range(4,16) / (6,16) / (8,16).
  quant::PrecisionSet precisions;
  /// Whether q1 != q2 is enforced when sampling the per-iteration pair
  /// (ablation; the paper's "differently augmented" wording implies true).
  bool distinct_pair = true;
  /// How the per-iteration precisions are chosen:
  ///  kRandomPair — the paper's scheme (uniform from the precision set);
  ///  kCyclic     — CPT-style (Fu et al., the paper's ref [3]) triangular
  ///                schedule across the set; q2 mirrors q1 within the set.
  enum class PrecisionSampling { kRandomPair, kCyclic };
  PrecisionSampling precision_sampling = PrecisionSampling::kRandomPair;
  /// Number of triangular cycles over the whole run (kCyclic only).
  std::int64_t precision_cycles = 4;
  float tau = 0.5f;
  std::int64_t epochs = 10;
  std::int64_t batch_size = 32;
  float lr = 0.2f;
  float momentum = 0.9f;
  float weight_decay = 5e-4f;
  std::int64_t warmup_epochs = 1;
  std::int64_t proj_hidden = 64;
  std::int64_t proj_dim = 32;
  data::AugmentConfig augment;
  /// BYOL only: target-network EMA momentum and predictor hidden width.
  float byol_ema = 0.99f;
  std::int64_t pred_hidden = 32;
  /// MoCo only: negative-queue length.
  std::int64_t moco_queue = 256;
  std::uint64_t seed = 7;

  /// Stable string key covering every field (used for checkpoint caching).
  std::string cache_key() const;
};

/// The (q1, q2) of a CPT-style triangular schedule at `step` of
/// `total_steps` with `cycles` full triangles: q1 walks low->high->low
/// through the sorted set; q2 is q1's mirror within the set.
std::pair<int, int> cyclic_precision_pair(const quant::PrecisionSet& set,
                                          std::int64_t step,
                                          std::int64_t total_steps,
                                          std::int64_t cycles);

struct PretrainStats {
  std::vector<float> epoch_loss;
  float final_loss = 0.0f;
  float max_grad_norm = 0.0f;
  /// Loss went non-finite or the gradient norm exploded; training stopped.
  bool diverged = false;
  std::int64_t iterations = 0;
  double seconds = 0.0;

  // ---- allocation accounting ----
  // Heap-allocation counts are tensor::process_allocations() deltas, so they
  // include pool workers running conv chunks; pool hit/miss totals are the
  // calling thread's tensor::alloc_stats() deltas.
  /// Heap allocations performed by the very first training iteration, while
  /// the tensor pool is cold. This approximates pre-pool per-iteration
  /// allocation behavior and is the baseline for the steady-state reduction
  /// reported by bench/pipeline_alloc.
  std::uint64_t first_iteration_heap_allocs = 0;
  /// New heap allocations per epoch (pool misses; ~0 once the pool is warm).
  std::vector<std::uint64_t> epoch_heap_allocs;
  /// Pool hit/miss totals over the whole run.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Heap allocations per iteration averaged over the final epoch.
  double steady_allocs_per_iteration = 0.0;
  /// Wall-clock seconds per epoch (for ms/iteration reporting).
  std::vector<double> epoch_seconds;

  /// Aggregate profiler table (core/prof.hpp json()) captured when the run
  /// finished. Cumulative across the process — callers wanting a per-run
  /// view call prof::reset() before train().
  std::string profile_json;
};

/// Captures allocation-counter deltas over a pretraining run so every
/// runner (SimCLR / BYOL / MoCo) reports identical allocation accounting.
/// Heap allocations are counted process-wide (every thread's pool misses):
/// training work also runs on pool workers, and a per-thread count would
/// miss their allocations.
/// Construct at the start of train(), call end_first_iteration() once after
/// the first optimizer step, end_epoch() per epoch, and finish() before
/// returning stats.
class AllocTracker {
 public:
  AllocTracker();
  void end_first_iteration();
  void end_epoch(double seconds, std::int64_t iterations);
  void finish(PretrainStats& stats) const;

  /// Cumulative heap allocations (tensor-pool misses) made by the CALLING
  /// thread. A delta of zero across a window proves the window ran entirely
  /// off pooled storage; the serving engine samples this per worker to
  /// report its zero-allocation steady state.
  static std::uint64_t thread_allocs();

 private:
  std::uint64_t base_allocs_ = 0;
  std::uint64_t base_hits_ = 0;
  std::uint64_t base_misses_ = 0;
  std::uint64_t first_iter_allocs_ = 0;
  std::uint64_t epoch_start_allocs_ = 0;
  std::vector<std::uint64_t> epoch_allocs_;
  std::vector<double> epoch_seconds_;
  std::int64_t last_epoch_iterations_ = 0;
};

}  // namespace cq::core
