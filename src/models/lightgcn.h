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

  /// Mean-pooled L-layer propagation of `table` over `graph`.
  static Tensor Propagate(const std::shared_ptr<const CsrMatrix>& graph,
                          const Tensor& table, int num_layers);

  /// Propagate without the tape, split into the first `num_users` rows
  /// (users) and the rest (items).
  static void PropagateFinal(const CsrMatrix& graph, const Matrix& table,
                             int num_layers, Index num_users, Matrix* users,
                             Matrix* items);

 private:
  Tensor joint_table_;  // (U + I) x d parameter table
  Index num_users_ = 0;
  Index num_items_ = 0;
  int num_layers_ = 2;
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_LIGHTGCN_H_
