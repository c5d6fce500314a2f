// Firzen (paper §III): the unified framework for strict cold-start and
// warm-start item recommendation over frozen heterogeneous and homogeneous
// graphs. Composition:
//   FrozenGraphs  ->  SAHGL (behavior / modality / knowledge branches,
//   importance-aware fusion with discriminator-driven beta momentum)
//   ->  MSHGL (item-item + user-user homogeneous propagation, multi-head
//   dependency fusion)  ->  multi-task optimization (BPR + adversarial +
//   contrastive, alternating with the TransR KG objective).
// At inference the item-item graphs are expanded to all items with the
// cold-isolation mask (Eqs. 34-35).
#ifndef FIRZEN_CORE_FIRZEN_MODEL_H_
#define FIRZEN_CORE_FIRZEN_MODEL_H_

#include <memory>
#include <vector>

#include "src/core/discriminator.h"
#include "src/core/frozen_graphs.h"
#include "src/core/mshgl.h"
#include "src/core/sahgl.h"
#include "src/models/embedding_model.h"

namespace firzen {

struct FirzenOptions {
  // Fusion weights. lambda_k follows the paper's tuned value; lambda_m is
  // retuned for the synthetic substrate (the paper uses 1.10 on Amazon
  // features — our generated features carry more signal per unit norm, so
  // the warm/cold balance point sits lower; see EXPERIMENTS.md, Fig. 6b).
  Real lambda_k = 0.36;
  Real lambda_m = 0.20;
  Real beta_momentum = 0.999;  // eta (Eq. 16-17)
  Index knn_k = 10;            // K (Eq. 2 / Fig. 6d)
  Index user_topk = 10;

  int behavior_layers = 2;
  int knowledge_layers = 1;
  int item_layers = 1;   // L_{i-i}
  int user_layers = 1;   // L_{u-u}
  Index attention_heads = 2;

  // Multi-task loss weights (Eq. 32).
  Real lambda_adv = 0.2;
  Real lambda_contr = 0.05;
  Real adv_temperature = 0.5;  // tau (Eq. 23)
  Real aux_gamma = 0.1;        // gamma (Eq. 23)
  Index adv_batch = 128;
  Real d_lr = 1e-3;
  Real feature_dropout = 0.1;

  /// Ablation of the paper's namesake design decision: when true, the
  /// item-item graphs are NOT frozen — they are rebuilt every epoch from the
  /// current learned modality projections (LATTICE-style dynamic graphs,
  /// the approach the paper argues against). Default false = frozen.
  bool dynamic_item_graphs = false;

  // Component gates: ablations (Table IV) and inference-time contribution
  // analysis (Table VIII). use_text and use_image gate the modalities
  // named "text" and "image"; the MA ablation turns both off.
  bool use_behavior = true;    // BA
  bool use_knowledge = true;   // KA
  bool use_mshgl = true;       // MS
  bool use_text = true;        // TA
  bool use_image = true;       // VA
};

class FirzenModel : public EmbeddingModel {
 public:
  explicit FirzenModel(FirzenOptions options = FirzenOptions())
      : options_(options) {}

  std::string Name() const override { return "Firzen"; }
  void Fit(const Dataset& dataset, const TrainOptions& options) override;

  /// Strict cold inference: expand + mask the item-item graphs (Eqs. 34-35)
  /// and recompute final representations over all items. Reuses the
  /// knowledge attention Fit left current: Eq. 34 adds no CKG link.
  void PrepareColdInference(const Dataset& dataset) override;

  /// Normal cold protocol: revealed links additionally join the behavior
  /// and CKG pathways. Attends over the merged CKG for its own pass, then
  /// restores the training-CKG attention for PrepareColdInference.
  void PrepareNormalColdInference(const Dataset& dataset) override;

  /// Recomputes final embeddings with modified inference-time gates
  /// (Table VIII / Fig. 7). Does not retrain; `cold_expanded` selects the
  /// strict-cold (masked, all-items) graphs vs. the training graphs.
  void RecomputeFinal(const Dataset& dataset, const FirzenOptions& gates,
                      bool cold_expanded);

  /// Current modality importance weights (beta_t, beta_i ... per modality).
  const std::vector<Real>& betas() const { return betas_; }

  const FirzenOptions& options() const { return options_; }

 private:
  void ComputeFinalFrom(const FrozenGraphs& graphs, const Dataset& dataset,
                        const SahglOptions& gates);

  FirzenOptions options_;
  TrainOptions train_options_;
  Sahgl sahgl_;
  Mshgl mshgl_;
  Discriminator discriminator_;
  std::vector<Real> betas_;
  FrozenGraphs train_graphs_;
  FrozenGraphOptions graph_options_;
};

}  // namespace firzen

#endif  // FIRZEN_CORE_FIRZEN_MODEL_H_
