// Model registry: create any of the paper's sixteen recommenders by name,
// and run the paper's strict cold-start evaluation protocol.
#ifndef FIRZEN_MODELS_REGISTRY_H_
#define FIRZEN_MODELS_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

// Known back-edge: the registry's training loops report validation metrics
// through EvaluateRanking, so models depends on eval here by design (the
// protocol lives with the models that run it).
// firzen-lint: allow(include-layering)
#include "src/eval/evaluator.h"
#include "src/models/recommender.h"

namespace firzen {

/// Name + paper category ("CF", "KG", "MM", "CS", "MM+KG", "Ours").
struct ModelInfo {
  std::string name;
  std::string category;
  /// Trains on item features: the dataset needs at least one modality.
  bool needs_features = false;
  /// Trains on knowledge-graph triples: the dataset needs a non-empty KG.
  bool needs_kg = false;
};

/// All models in the paper's Table II row order.
std::vector<ModelInfo> AllModels();

/// Factory. Returns nullptr for unknown names.
std::unique_ptr<Recommender> CreateModel(const std::string& name);

/// Outcome of the full §IV-A protocol for one model on one dataset.
struct ProtocolResult {
  EvalResult warm;
  EvalResult cold;
  MetricBundle hm;
  double fit_seconds = 0.0;
};

/// Fit -> warm test eval -> PrepareColdInference -> cold test eval -> HM.
ProtocolResult RunStrictColdProtocol(Recommender* model,
                                     const Dataset& dataset,
                                     const TrainOptions& options);

/// Table VI variant: evaluation on the unknown halves with revealed links
/// (dataset must come from MakeNormalColdProtocol).
EvalResult RunNormalColdEval(Recommender* model, const Dataset& dataset,
                             const TrainOptions& options);

}  // namespace firzen

#endif  // FIRZEN_MODELS_REGISTRY_H_
