// Trained-model serialization: persist the final user/item representations
// produced by any Recommender so they can be served without retraining
// (offline training -> online serving, the standard production split).
//
// Format (little-endian binary):
//   magic "FZEM" | u32 version | i64 rows | i64 cols | rows*cols f64
// repeated twice (user block, then item block), plus a trailing metadata
// string (model name).
#ifndef FIRZEN_MODELS_SERIALIZE_H_
#define FIRZEN_MODELS_SERIALIZE_H_

#include <memory>
#include <string>

#include "src/models/recommender.h"
#include "src/util/status.h"

namespace firzen {

/// A Recommender backed by fixed, pre-trained embedding matrices. Scores by
/// dot product; Fit() is a no-op (FailedPrecondition to call).
class StaticRecommender : public Recommender {
 public:
  StaticRecommender(std::string name, Matrix user_emb, Matrix item_emb);

  std::string Name() const override { return name_; }
  void Fit(const Dataset& dataset, const TrainOptions& options) override;
  using Recommender::MakeScorer;
  /// kInt8 quantizes the loaded item table once at mint — the production
  /// .fzem serving path behind firzen_cli's --precision flag.
  std::unique_ptr<Scorer> MakeScorer(ScoringPrecision precision) const override;
  Matrix ItemEmbeddings() const override { return item_emb_; }

  const Matrix& user_embeddings() const { return user_emb_; }

 private:
  std::string name_;
  Matrix user_emb_;
  Matrix item_emb_;
};

/// Writes the model's final representations. The model must expose item
/// embeddings and be scorable (i.e. trained).
Status SaveEmbeddings(const Recommender& model, const Matrix& user_emb,
                      const Matrix& item_emb, const std::string& path);

/// Reads a serialized model back as a servable StaticRecommender.
Result<std::unique_ptr<StaticRecommender>> LoadEmbeddings(
    const std::string& path);

}  // namespace firzen

#endif  // FIRZEN_MODELS_SERIALIZE_H_
