// Pieces shared by the two serving workloads: seeded checkpoints on unique
// per-process paths, the reference encoder load, and direct forward timing
// of a compiled instance.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "models/encoder.hpp"
#include "serve/model.hpp"

namespace perfbench {

/// A checkpoint of a seeded `arch` encoder (BatchNorm statistics warmed on
/// random [4, 3, h, w] batches), written under `dir` with a name unique to
/// this process and removed again on destruction.
class TempCheckpoint {
 public:
  TempCheckpoint(const std::string& dir, const std::string& arch,
                 std::int64_t h, std::int64_t w, std::uint64_t seed);
  ~TempCheckpoint();
  TempCheckpoint(const TempCheckpoint&) = delete;
  TempCheckpoint& operator=(const TempCheckpoint&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Loads a checkpoint the way serve::Engine does: fresh `arch` encoder,
/// full-precision policy, eval mode.
cq::models::Encoder load_encoder(const std::string& arch,
                                 const std::string& path);

/// The serving workloads run the process-wide thread pool at size 1: the
/// engine workers and callers are the parallelism. At the pool's default
/// size every small-batch forward fans out over all cores, and on a shared
/// host one slow core then stalls every request: p50 swung 1.5 -> 8.8 ms
/// between consecutive encode_open runs, against 1.5 -> 1.8 ms at size 1.
/// Returns the default size, for probes that measure it.
std::size_t use_serving_pool();

/// Median wall time (µs) of `reps` ModelInstance::forward calls at batch
/// `n` on uniform inputs of `sample` shape, after two warm-up calls.
double forward_us(cq::serve::ModelInstance& inst, const cq::Shape& sample,
                  std::int64_t n, int reps);

}  // namespace perfbench
