// Quickstart: generate a small synthetic benchmark, train Firzen, and
// evaluate it under both the warm-start and the strict cold-start protocol.
//
//   ./build/examples/quickstart
//
// This is the 60-second tour of the public API:
//   GenerateSyntheticDataset -> FirzenModel::Fit -> RunStrictColdProtocol.
#include <cstdio>
#include <thread>
#include <vector>

#include "src/core/firzen_model.h"
#include "src/data/synthetic.h"
#include "src/eval/admission.h"
#include "src/eval/serving.h"
#include "src/models/registry.h"
#include "src/util/logging.h"
#include "src/util/table_printer.h"

int main() {
  using namespace firzen;  // NOLINT(build/namespaces)
  SetLogLevel(LogLevel::kInfo);

  // 1. Build a small Amazon-Beauty-like benchmark (strict cold split,
  //    text/image features, knowledge graph) — see data/synthetic.h.
  SyntheticConfig config = BeautySConfig(/*scale=*/0.4);
  Dataset dataset = GenerateSyntheticDataset(config);
  std::printf("dataset %s: %lld users, %lld items (%zu cold), %zu train\n",
              dataset.name.c_str(), static_cast<long long>(dataset.num_users),
              static_cast<long long>(dataset.num_items),
              dataset.ColdItems().size(), dataset.train.size());

  // 2. Configure and train Firzen.
  FirzenOptions firzen_options;  // paper defaults: lambda_k=.36, lambda_m=1.1
  FirzenModel model(firzen_options);

  TrainOptions train;
  train.embedding_dim = 32;
  train.epochs = 20;
  train.eval_every = 5;
  train.verbose = true;
  train.pool = ThreadPool::Global();

  // 3. Run the paper's full protocol: warm test -> cold expansion -> cold
  //    test -> harmonic mean.
  const ProtocolResult result = RunStrictColdProtocol(&model, dataset, train);

  TablePrinter table({"Setting", "R@20", "M@20", "N@20", "H@20", "P@20"});
  auto add = [&table](const char* name, const MetricBundle& m) {
    table.BeginRow();
    table.AddCell(name);
    table.AddCell(100.0 * m.recall);
    table.AddCell(100.0 * m.mrr);
    table.AddCell(100.0 * m.ndcg);
    table.AddCell(100.0 * m.hit);
    table.AddCell(100.0 * m.precision);
  };
  add("Cold", result.cold.metrics);
  add("Warm", result.warm.metrics);
  add("HM", result.hm);
  table.Print();
  std::printf("fit took %.1fs; modality importances (beta): text=%.3f image=%.3f\n",
              result.fit_seconds, model.betas()[0], model.betas()[1]);

  // 4. Serve live top-K through the block-streaming engine: scores stream
  //    in bounded item panels fused with ranking, so serving memory does
  //    not grow with the catalog. Train-seen items are excluded by default.
  //    The engine is thread-safe — ONE shared instance answers concurrent
  //    request threads (per-thread scoring scratch lives in pooled arenas),
  //    which is the production pattern: never mint one engine per thread.
  const ServingEngine engine(&model, dataset);
  RecRequest request;
  request.user = 0;
  request.k = 5;
  const RecResponse response = engine.Recommend(request);
  std::printf("user 0 top-5: ");
  for (const Recommendation& rec : response.items) {
    std::printf("%lld(%.3f) ", static_cast<long long>(rec.item), rec.score);
  }
  std::printf("\n");

  // Concurrent request threads sent to an admission controller in front of
  // the same engine: concurrent singles fuse into one batched scoring pass
  // (one catalog stream instead of one per request). The answers are
  // bit-identical to serial, un-fused calls no matter how the threads
  // interleave or which requests share a fused batch — scores are
  // batch-size-invariant. Call engine.Recommend instead to serve the same
  // traffic unbatched.
  const AdmissionController admission(&engine);
  std::vector<RecResponse> concurrent(4);
  std::vector<std::thread> servers;
  for (Index u = 0; u < 4; ++u) {
    servers.emplace_back([&admission, &concurrent, u] {
      RecRequest r;
      r.user = u;
      r.k = 3;
      concurrent[static_cast<size_t>(u)] = admission.Recommend(r);
    });
  }
  for (std::thread& t : servers) t.join();
  for (const RecResponse& res : concurrent) {
    std::printf("user %lld top-3 (served concurrently): ",
                static_cast<long long>(res.user));
    for (const Recommendation& rec : res.items) {
      std::printf("%lld(%.3f) ", static_cast<long long>(rec.item), rec.score);
    }
    std::printf("\n");
  }
  std::printf("admission coalesced %llu requests into %llu fused batches\n",
              static_cast<unsigned long long>(admission.admitted_requests()),
              static_cast<unsigned long long>(admission.fused_batches()));
  return 0;
}
