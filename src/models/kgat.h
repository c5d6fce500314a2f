// KGAT (Wang et al., 2019): attentive multi-layer propagation over the
// collaborative knowledge graph with the bi-interaction aggregator, trained
// jointly with a TransR objective. Attention coefficients are recomputed
// outside the tape after each epoch's KG phase, as in the reference
// implementation, so validation and the final representations use current
// attention.
//
// Cold-start behaviour: strict cold items still carry KG edges (brand,
// category, features), so propagation reaches them — this is why KGAT is the
// strongest cold baseline in the paper's Table II.
#ifndef FIRZEN_MODELS_KGAT_H_
#define FIRZEN_MODELS_KGAT_H_

#include <memory>
#include <vector>

#include "src/graph/collaborative_kg.h"
#include "src/models/embedding_model.h"
#include "src/models/kg_common.h"

namespace firzen {

class Kgat : public EmbeddingModel {
 public:
  std::string Name() const override { return "KGAT"; }
  void Fit(const Dataset& dataset, const TrainOptions& options) override;
  void PrepareNormalColdInference(const Dataset& dataset) override;

 protected:
  /// Hook for MKGAT: returns the KG to build the CKG from (possibly with
  /// extra multimodal entities) and may seed extra entity rows.
  virtual KnowledgeGraph AugmentKg(const Dataset& dataset) {
    return dataset.kg;
  }

  /// Hook for MKGAT: initial embedding rows for augmented entities.
  virtual void SeedEntityRows(const Dataset& dataset, Matrix* entity_init) {
    (void)dataset;
    (void)entity_init;
  }

 private:
  Tensor PropagateAll(const std::shared_ptr<const CsrMatrix>& attention);
  void ComputeFinal(const CollaborativeKg& ckg,
                    const std::shared_ptr<const CsrMatrix>& attention);

  KgEmbeddings kg_;
  std::vector<Tensor> w1_;
  std::vector<Tensor> w2_;
  int num_layers_ = 2;
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_KGAT_H_
