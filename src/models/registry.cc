#include "src/models/registry.h"

#include "src/core/firzen_model.h"
// Known back-edge: harmonic model selection is part of the training-time
// protocol the registry drives (see registry.h).
// firzen-lint: allow(include-layering)
#include "src/eval/harmonic.h"
#include "src/models/bm3.h"
#include "src/models/bpr_mf.h"
#include "src/models/cke.h"
#include "src/models/clcrec.h"
#include "src/models/dragon.h"
#include "src/models/dropoutnet.h"
#include "src/models/kgat.h"
#include "src/models/kgcn.h"
#include "src/models/lightgcn.h"
#include "src/models/mkgat.h"
#include "src/models/mmssl.h"
#include "src/models/sgl.h"
#include "src/models/simplex.h"
#include "src/models/vbpr.h"
#include "src/util/stopwatch.h"

namespace firzen {

std::vector<ModelInfo> AllModels() {
  // {name, category, needs_features, needs_kg}
  return {
      {"BPR", "CF", false, false},        {"LightGCN", "CF", false, false},
      {"SGL", "CF", false, false},        {"SimpleX", "CF", false, false},
      {"CKE", "KG", false, true},         {"KGAT", "KG", false, true},
      {"KGCN", "KG", false, true},        {"KGNNLS", "KG", false, true},
      {"VBPR", "MM", true, false},        {"DRAGON", "MM", true, false},
      {"BM3", "MM", true, false},         {"MMSSL", "MM", true, false},
      {"DropoutNet", "CS", true, false},  {"CLCRec", "CS", true, false},
      {"MKGAT", "MM+KG", true, true},     {"Firzen", "Ours", true, false},
  };
}

std::unique_ptr<Recommender> CreateModel(const std::string& name) {
  if (name == "BPR") return std::make_unique<BprMf>();
  if (name == "LightGCN") return std::make_unique<LightGcn>();
  if (name == "SGL") return std::make_unique<Sgl>();
  if (name == "SimpleX") return std::make_unique<SimpleX>();
  if (name == "CKE") return std::make_unique<Cke>();
  if (name == "KGAT") return std::make_unique<Kgat>();
  if (name == "KGCN") return std::make_unique<Kgcn>();
  if (name == "KGNNLS") return std::make_unique<KgnnLs>();
  if (name == "VBPR") return std::make_unique<Vbpr>();
  if (name == "DRAGON") return std::make_unique<Dragon>();
  if (name == "BM3") return std::make_unique<Bm3>();
  if (name == "MMSSL") return std::make_unique<Mmssl>();
  if (name == "DropoutNet") return std::make_unique<DropoutNet>();
  if (name == "CLCRec") return std::make_unique<ClcRec>();
  if (name == "MKGAT") return std::make_unique<Mkgat>();
  if (name == "Firzen") return std::make_unique<FirzenModel>();
  return nullptr;
}

ProtocolResult RunStrictColdProtocol(Recommender* model,
                                     const Dataset& dataset,
                                     const TrainOptions& options) {
  ProtocolResult result;
  Stopwatch fit_watch;
  model->Fit(dataset, options);
  result.fit_seconds = fit_watch.ElapsedSeconds();

  EvalOptions eval_options;
  eval_options.pool = options.pool;
  // Scorers snapshot inference state at mint time, so re-mint after the
  // cold-inference rebuild.
  result.warm = EvaluateRanking(dataset, dataset.warm_test,
                                EvalSetting::kWarm, *model->MakeScorer(),
                                eval_options);
  model->PrepareColdInference(dataset);
  result.cold = EvaluateRanking(dataset, dataset.cold_test,
                                EvalSetting::kCold, *model->MakeScorer(),
                                eval_options);
  result.hm = HarmonicMean(result.cold.metrics, result.warm.metrics);
  return result;
}

EvalResult RunNormalColdEval(Recommender* model, const Dataset& dataset,
                             const TrainOptions& options) {
  model->PrepareNormalColdInference(dataset);
  EvalOptions eval_options;
  eval_options.pool = options.pool;
  return EvaluateRanking(dataset, dataset.cold_test, EvalSetting::kCold,
                         *model->MakeScorer(), eval_options);
}

}  // namespace firzen
