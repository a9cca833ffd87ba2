// End-to-end serving: pretrain a small CQ encoder, checkpoint it, stand up
// the inference engine, push a burst of concurrent requests through the
// dynamic batcher, and print the stats JSON.
//
// Usage: ./examples/serve_demo [fp32|int8]
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/simclr.hpp"
#include "data/synth.hpp"
#include "models/encoder.hpp"
#include "serve/engine.hpp"

int main(int argc, char** argv) {
  using namespace cq;
  const std::string kind = argc > 1 ? argv[1] : "fp32";

  // 1. Pretrain a small contrastive-quant encoder on the synthetic set.
  const auto synth_cfg = data::synth_cifar_config();
  Rng data_rng(61);
  const auto ssl_set = data::make_synth_dataset(synth_cfg, 128, data_rng);
  const auto serve_set = data::make_synth_dataset(synth_cfg, 32, data_rng);

  Rng model_rng(42);
  auto encoder = models::make_encoder("resnet18", model_rng);
  core::PretrainConfig pretrain;
  pretrain.variant = core::CqVariant::kCqA;
  pretrain.precisions = quant::PrecisionSet::range(6, 16);
  pretrain.epochs = 2;
  pretrain.batch_size = 32;
  std::printf("pretraining resnet18 with CQ-A...\n");
  core::SimClrCqTrainer trainer(encoder, pretrain);
  trainer.train(ssl_set);

  // 2. Checkpoint: the engine owns its own copy of the model from here on.
  const std::string checkpoint =
      (std::filesystem::temp_directory_path() / "cq_serve_demo_ckpt.bin")
          .string();
  encoder.backbone->set_mode(nn::Mode::kEval);
  models::save_module(checkpoint, *encoder.backbone);
  std::printf("checkpointed to %s\n", checkpoint.c_str());

  // 3. Serve: one worker, micro-batches of whatever is queued, up to 8.
  serve::EngineConfig cfg;
  cfg.checkpoint = checkpoint;
  cfg.in_h = synth_cfg.height;
  cfg.in_w = synth_cfg.width;
  cfg.instance =
      kind == "int8" ? serve::InstanceKind::kInt8 : serve::InstanceKind::kFp32;
  cfg.workers = 1;
  cfg.max_batch = 8;
  serve::Engine engine(cfg);
  std::printf("engine up: %s instance, feature_dim=%lld\n",
              serve::instance_kind_name(cfg.instance),
              static_cast<long long>(engine.feature_dim()));

  // 4. A burst of concurrent clients, two requests each.
  const std::size_t clients = 8;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<float> out(
          static_cast<std::size_t>(engine.feature_dim()));
      serve::Request r;
      for (int i = 0; i < 2; ++i) {
        r.reset();
        r.input = serve_set.images[c].data();
        r.output = out.data();
        r.deadline = serve::Clock::now() + std::chrono::seconds(5);
        if (!engine.submit(&r)) return;
        if (r.wait() != serve::Status::kOk) return;
      }
      std::printf("client %zu: feature[0..3] = %.4f %.4f %.4f %.4f\n", c,
                  out[0], out[1], out[2], out[3]);
    });
  }
  for (auto& t : threads) t.join();

  // 5. Stats out, engine down.
  std::printf("\n%s\n", engine.stats_json().c_str());
  engine.stop();
  return 0;
}
