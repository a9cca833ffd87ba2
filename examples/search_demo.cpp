// End-to-end binary-embedding vector search: pretrain a small CQ encoder,
// extract features for a corpus, build a packed 1-bit index with fitted
// per-coordinate thresholds, stand up search::Service (encode -> binarize ->
// Hamming top-k with cosine rerank), query it from concurrent clients, and
// print the merged engine+search stats JSON.
//
// Usage: ./examples/search_demo [1bit|2bit]
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/simclr.hpp"
#include "data/synth.hpp"
#include "eval/classifier.hpp"
#include "models/encoder.hpp"
#include "search/service.hpp"

int main(int argc, char** argv) {
  using namespace cq;
  const std::string kind = argc > 1 ? argv[1] : "1bit";
  const auto layout = kind == "2bit" ? search::CodeLayout::k2Bit
                                     : search::CodeLayout::k1Bit;

  // 1. Pretrain a small contrastive-quant encoder on the synthetic set.
  const auto synth_cfg = data::synth_cifar_config();
  Rng data_rng(61);
  const auto ssl_set = data::make_synth_dataset(synth_cfg, 128, data_rng);
  const auto corpus = data::make_synth_dataset(synth_cfg, 96, data_rng);
  const auto queries = data::make_synth_dataset(synth_cfg, 4, data_rng);

  Rng model_rng(42);
  auto encoder = models::make_encoder("resnet18", model_rng);
  core::PretrainConfig pretrain;
  pretrain.variant = core::CqVariant::kCqC;
  pretrain.precisions = quant::PrecisionSet::range(6, 16);
  pretrain.epochs = 2;
  pretrain.batch_size = 32;
  std::printf("pretraining resnet18 with CQ-C...\n");
  core::SimClrCqTrainer trainer(encoder, pretrain);
  trainer.train(ssl_set);

  // 2. Corpus features -> fitted binarizer -> packed index. fit() picks
  //    per-coordinate medians (tertiles for 2-bit), which beats a global
  //    sign split on heterogeneous contrastive coordinates.
  const Tensor features = eval::extract_features(encoder, corpus, 32);
  const auto rows = features.dim(0);
  const auto dim = features.dim(1);
  auto binarizer =
      search::Binarizer::fit(features.data(), rows, dim, layout);
  search::IndexConfig index_cfg;
  index_cfg.dim = dim;
  index_cfg.layout = layout;
  index_cfg.store_embeddings = true;  // enables exact-cosine rerank
  search::Index index(index_cfg, std::move(binarizer));
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 1000 + i;
  index.add(features.data(), ids.data(), rows);
  std::printf("indexed %lld codes, %s, %lld words/row\n",
              static_cast<long long>(index.size()), kind.c_str(),
              static_cast<long long>(index.words_per_row()));

  // 3. Checkpoint the encoder and stand the service up behind it.
  const std::string checkpoint =
      (std::filesystem::temp_directory_path() / "cq_search_demo_ckpt.bin")
          .string();
  encoder.backbone->set_mode(nn::Mode::kEval);
  models::save_module(checkpoint, *encoder.backbone);
  search::ServiceConfig cfg;
  cfg.engine.checkpoint = checkpoint;
  cfg.engine.in_h = synth_cfg.height;
  cfg.engine.in_w = synth_cfg.width;
  cfg.engine.workers = 1;
  cfg.engine.max_batch = 8;
  search::Service service(cfg, std::move(index));

  // 4. Concurrent clients: encode + scan, overfetch 4x, cosine rerank.
  search::QueryOptions opts;
  opts.k = 5;
  opts.overfetch = 4;
  opts.rerank = true;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < queries.images.size(); ++c) {
    clients.emplace_back([&, c] {
      search::Service::Context ctx;  // one per querying thread
      service.prewarm(opts, ctx);    // -> 0-alloc steady state
      search::Result hits[5];
      std::int64_t n = 0;
      const auto st = service.search(
          queries.images[c].data(), opts, ctx, hits, &n,
          serve::Clock::now() + std::chrono::seconds(5));
      if (st != serve::Status::kOk) return;
      std::printf("query %zu:", c);
      for (std::int64_t i = 0; i < n; ++i)
        std::printf("  id=%llu d=%u cos=%.3f",
                    static_cast<unsigned long long>(hits[i].id), hits[i].dist,
                    hits[i].score);
      std::printf("\n");
    });
  }
  for (auto& t : clients) t.join();

  // 5. Incremental add is safe against live queries (exclusive lock).
  service.add(features.data(), ids.data(), 1);
  std::printf("after add: %lld codes\n",
              static_cast<long long>(service.index().size()));

  std::printf("\n%s\n", service.stats_json().c_str());
  service.stop();
  return 0;
}
