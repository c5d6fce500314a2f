// DropoutNet (Volkovs et al., 2017): train item towers on a mix of behavior
// and content inputs while randomly dropping the behavior part, so the model
// learns to reconstruct relevance from content alone — exactly the strict
// cold-start situation at inference.
#ifndef FIRZEN_MODELS_DROPOUTNET_H_
#define FIRZEN_MODELS_DROPOUTNET_H_

#include "src/models/embedding_model.h"

namespace firzen {

class DropoutNet : public EmbeddingModel {
 public:
  struct Options {
    Real behavior_dropout = 0.5;  // P(zero the behavior input of a row)
  };

  DropoutNet() = default;
  explicit DropoutNet(Options options) : options_(options) {}

  std::string Name() const override { return "DropoutNet"; }
  void Fit(const Dataset& dataset, const TrainOptions& options) override;

  /// Strict cold: recompute item towers with zeroed behavior inputs for
  /// cold items.
  void PrepareColdInference(const Dataset& dataset) override;

  /// Normal cold (Table VI): cold items get the mean embedding of their
  /// revealed users as the behavior input.
  void PrepareNormalColdInference(const Dataset& dataset) override;

 private:
  /// User tower: tanh(e_u W_u + b_u) over the given user rows.
  Tensor UserTower(const Tensor& user_rows) const;

  /// Item tower: tanh(b W_b + f W_c + b_i) over behavior rows `behavior`
  /// and their content rows `content`.
  Tensor ItemTower(const Tensor& behavior, const Tensor& content) const;

  /// final_item_ from the item tower over all items. With
  /// `cold_behavior`, strict cold items' behavior rows are replaced: by the
  /// mean user embedding of their revealed links when `use_known_links`,
  /// else by zeros.
  void RecomputeItems(const Dataset& dataset, bool cold_behavior,
                      bool use_known_links);

  Options options_;
  Tensor features_;  // constant: standardized concat modal features
  Tensor user_table_;
  Tensor item_table_;
  Tensor w_user_;      // d x d
  Tensor w_behavior_;  // d x d
  Tensor w_content_;   // F x d
  Tensor bias_user_;
  Tensor bias_item_;
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_DROPOUTNET_H_
