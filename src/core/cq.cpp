#include "core/cq.hpp"

#include <cmath>
#include <sstream>

#include "core/prof.hpp"
#include "tensor/storage.hpp"
#include "util/check.hpp"

namespace cq::core {

AllocTracker::AllocTracker() {
  const auto s = tensor::alloc_stats();
  base_allocs_ = tensor::process_allocations();
  base_hits_ = s.pool_hits;
  base_misses_ = s.pool_misses;
  epoch_start_allocs_ = base_allocs_;
}

void AllocTracker::end_first_iteration() {
  first_iter_allocs_ = tensor::process_allocations() - base_allocs_;
}

void AllocTracker::end_epoch(double seconds, std::int64_t iterations) {
  const auto now = tensor::process_allocations();
  epoch_allocs_.push_back(now - epoch_start_allocs_);
  epoch_seconds_.push_back(seconds);
  epoch_start_allocs_ = now;
  last_epoch_iterations_ = iterations;
}

std::uint64_t AllocTracker::thread_allocs() {
  return tensor::alloc_stats().cumulative_allocations;
}

void AllocTracker::finish(PretrainStats& stats) const {
  const auto s = tensor::alloc_stats();
  stats.first_iteration_heap_allocs = first_iter_allocs_;
  stats.epoch_heap_allocs = epoch_allocs_;
  stats.epoch_seconds = epoch_seconds_;
  stats.pool_hits = s.pool_hits - base_hits_;
  stats.pool_misses = s.pool_misses - base_misses_;
  if (!epoch_allocs_.empty() && last_epoch_iterations_ > 0)
    stats.steady_allocs_per_iteration =
        static_cast<double>(epoch_allocs_.back()) /
        static_cast<double>(last_epoch_iterations_);
  stats.profile_json = prof::json();
}

std::string variant_name(CqVariant variant) {
  switch (variant) {
    case CqVariant::kVanilla:
      return "vanilla";
    case CqVariant::kCqA:
      return "cq-a";
    case CqVariant::kCqB:
      return "cq-b";
    case CqVariant::kCqC:
      return "cq-c";
    case CqVariant::kCqQuant:
      return "cq-quant";
  }
  return "?";
}

CqVariant parse_variant(const std::string& name) {
  if (name == "vanilla" || name == "simclr" || name == "byol")
    return CqVariant::kVanilla;
  if (name == "cq-a") return CqVariant::kCqA;
  if (name == "cq-b") return CqVariant::kCqB;
  if (name == "cq-c") return CqVariant::kCqC;
  if (name == "cq-quant") return CqVariant::kCqQuant;
  CQ_CHECK_MSG(false, "unknown CQ variant '" << name << "'");
}

int branches_per_iteration(CqVariant variant) {
  switch (variant) {
    case CqVariant::kVanilla:
    case CqVariant::kCqA:
    case CqVariant::kCqQuant:
      return 2;
    case CqVariant::kCqB:
    case CqVariant::kCqC:
      return 4;
  }
  return 0;
}

std::pair<int, int> cyclic_precision_pair(const quant::PrecisionSet& set,
                                          std::int64_t step,
                                          std::int64_t total_steps,
                                          std::int64_t cycles) {
  CQ_CHECK(!set.empty() && total_steps > 0 && cycles > 0);
  CQ_CHECK(step >= 0 && step < total_steps);
  const auto n = static_cast<std::int64_t>(set.size());
  // Triangular wave position in [0, 1].
  const double phase =
      std::fmod(static_cast<double>(step * cycles) /
                    static_cast<double>(total_steps),
                1.0);
  const double pos = phase < 0.5 ? 2.0 * phase : 2.0 - 2.0 * phase;
  const auto idx = static_cast<std::int64_t>(
      pos * static_cast<double>(n - 1) + 0.5);
  const auto mirror = (n - 1) - idx;
  return {set.bits()[static_cast<std::size_t>(idx)],
          set.bits()[static_cast<std::size_t>(mirror)]};
}

std::string PretrainConfig::cache_key() const {
  std::ostringstream os;
  os << variant_name(variant) << "|p=" << precisions.str()
     << "|dp=" << distinct_pair
     << "|ps=" << static_cast<int>(precision_sampling)
     << "|pc=" << precision_cycles << "|tau=" << tau
     << "|e=" << epochs << "|b=" << batch_size << "|lr=" << lr
     << "|m=" << momentum << "|wd=" << weight_decay << "|w=" << warmup_epochs
     << "|ph=" << proj_hidden << "|pd=" << proj_dim
     << "|aug=" << augment.min_crop_scale << "," << augment.flip_prob << ","
     << augment.jitter_strength << "," << augment.jitter_prob << ","
     << augment.grayscale_prob << "," << augment.noise_sigma << ","
     << augment.cutout_prob << "," << augment.cutout_frac << ","
     << augment.identity << "|ema=" << byol_ema << "|predh=" << pred_hidden
     << "|mq=" << moco_queue
     << "|seed=" << seed;
  return os.str();
}

}  // namespace cq::core
