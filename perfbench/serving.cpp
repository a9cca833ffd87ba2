#include "serving.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "core/threadpool.hpp"
#include "harness.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

TempCheckpoint::TempCheckpoint(const std::string& dir, const std::string& arch,
                               std::int64_t h, std::int64_t w,
                               std::uint64_t seed) {
  static std::atomic<int> serial{0};
  path_ = (std::filesystem::path(dir) /
           ("ckpt_" + arch + "_" + std::to_string(getpid()) + "_" +
            std::to_string(serial.fetch_add(1)) + ".bin"))
              .string();
  cq::Rng rng(seed);
  auto enc = cq::models::make_encoder(arch, rng);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(cq::nn::Mode::kTrain);
  for (int i = 0; i < 6; ++i) {
    enc.forward(cq::Tensor::uniform(cq::Shape{4, 3, h, w}, rng, -1.0f, 1.0f));
    enc.backbone->clear_cache();
  }
  enc.backbone->set_mode(cq::nn::Mode::kEval);
  cq::models::save_module(path_, *enc.backbone);
}

TempCheckpoint::~TempCheckpoint() { std::remove(path_.c_str()); }

cq::models::Encoder load_encoder(const std::string& arch,
                                 const std::string& path) {
  cq::Rng rng(1);
  auto enc = cq::models::make_encoder(arch, rng);
  cq::models::load_module(path, *enc.backbone);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(cq::nn::Mode::kEval);
  return enc;
}

std::size_t use_serving_pool() {
  auto& pool = cq::core::ThreadPool::instance();
  const std::size_t default_size = pool.size();
  pool.set_size(1);
  return default_size;
}

double forward_us(cq::serve::ModelInstance& inst, const cq::Shape& sample,
                  std::int64_t n, int reps) {
  cq::Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  std::vector<std::int64_t> dims{n};
  for (std::size_t i = 0; i < sample.rank(); ++i) dims.push_back(sample[i]);
  const cq::Tensor x =
      cq::Tensor::uniform(cq::Shape(dims), rng, -1.0f, 1.0f);
  for (int i = 0; i < 2; ++i) (void)inst.forward(x);
  Samples us;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t s = now_ns();
    (void)inst.forward(x);
    us.add(static_cast<double>(now_ns() - s) / 1e3);
  }
  return us.median();
}

}  // namespace perfbench
