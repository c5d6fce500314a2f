// LightGCN (He et al., 2020): linear propagation over the normalized
// user-item bipartite graph with layer mean-pooling (paper Eqs. 5-6).
// Strict cold items have zero degree, so their propagated component is zero
// and their final embedding stays at the (uninformative) initialization.
#ifndef FIRZEN_MODELS_LIGHTGCN_H_
#define FIRZEN_MODELS_LIGHTGCN_H_

#include <memory>

#include "src/models/embedding_model.h"
#include "src/tensor/csr.h"

namespace firzen {

class LightGcn : public EmbeddingModel {
 public:
  std::string Name() const override { return "LightGCN"; }
  void Fit(const Dataset& dataset, const TrainOptions& options) override;

  /// Normal cold-start (Table VI): rebuild the propagation graph with the
  /// revealed cold links and recompute final embeddings.
  void PrepareNormalColdInference(const Dataset& dataset) override;

  /// Mean-pooled L-layer propagation of `table` over `graph` (Eqs. 5-6).
  /// The one propagation of every joint-table model (LightGCN, SGL, BM3,
  /// DRAGON, MMSSL): training steps and final tables both run it, and the
  /// final tables split the result with ops::SliceRows.
  static Tensor Propagate(const std::shared_ptr<const CsrMatrix>& graph,
                          const Tensor& table, int num_layers);

 private:
  /// Propagates the joint table over `graph` into final_user_/final_item_.
  void ComputeFinal(const std::shared_ptr<const CsrMatrix>& graph);

  Tensor joint_table_;  // (U + I) x d parameter table
  Index num_users_ = 0;
  Index num_items_ = 0;
  int num_layers_ = 2;
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_LIGHTGCN_H_
