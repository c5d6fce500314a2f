// KGCN (Wang et al., 2019): user-specific aggregation over each item's
// sampled KG neighborhood — relation attention scores are user-conditioned
// softmax(e_u . e_r). Single propagation layer with the sum aggregator.
// KGNN-LS derives from this class and adds a smoothness regularizer.
#ifndef FIRZEN_MODELS_KGCN_H_
#define FIRZEN_MODELS_KGCN_H_

#include <vector>

#include "src/models/embedding_model.h"

namespace firzen {

class Kgcn : public EmbeddingModel {
 public:
  struct Options {
    Index neighbor_samples = 8;  // S: sampled neighbors per item
  };

  Kgcn() = default;
  explicit Kgcn(Options options) : kgcn_options_(options) {}

  std::string Name() const override { return "KGCN"; }
  void Fit(const Dataset& dataset, const TrainOptions& options) override;

  using Recommender::MakeScorer;

  /// User-conditioned scoring: the item tower depends on the querying user,
  /// so there is no factorized dot-product path. The scorer evaluates item
  /// towers natively per block (the projected entity table is computed once
  /// at mint time), keeping streamed scoring O(users * block) like the
  /// factorized models. The tanh tower has no Gemm hot loop to quantize, so
  /// `precision` is ignored: the quant quality gate compares the fp32
  /// scorer against itself and trivially passes.
  std::unique_ptr<Scorer> MakeScorer(ScoringPrecision precision) const override;

  Matrix ItemEmbeddings() const override;

  /// KGCN scores are user-conditioned (not a plain dot product), so there is
  /// no servable static user matrix.
  Matrix UserEmbeddings() const override { return Matrix(); }

 protected:
  /// Label-smoothness style regularization weight (0 disables; KGNN-LS
  /// overrides). Applied as an embedding-smoothness penalty over the
  /// positive items' neighborhoods (DESIGN.md §2 substitution).
  virtual Real SmoothnessWeight() const { return 0.0; }

 private:
  Options kgcn_options_;
  // Frozen neighbor samples per item (tails and relations, S per item).
  std::vector<Index> neighbor_tails_;
  std::vector<Index> neighbor_rels_;
  Index num_items_ = 0;
  Index dim_ = 0;
  // Trained tables snapshotted for scoring.
  Matrix user_emb_;
  Matrix entity_emb_;
  Matrix relation_emb_;
  Matrix w_;       // d x d sum-aggregator weight
  Matrix bias_;    // 1 x d
};

class KgnnLs : public Kgcn {
 public:
  struct Options {
    Real smoothness_weight = 0.5;
  };

  KgnnLs() = default;
  explicit KgnnLs(Options options)
      : smoothness_weight_(options.smoothness_weight) {}

  std::string Name() const override { return "KGNNLS"; }

 protected:
  Real SmoothnessWeight() const override { return smoothness_weight_; }

 private:
  Real smoothness_weight_ = 0.5;
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_KGCN_H_
