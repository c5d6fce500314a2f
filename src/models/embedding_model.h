// Shared base for models that score via a dot product of final user/item
// embedding matrices, plus common training-loop helpers (BPR loss, batch L2
// regularization, quick validation for early stopping).
#ifndef FIRZEN_MODELS_EMBEDDING_MODEL_H_
#define FIRZEN_MODELS_EMBEDDING_MODEL_H_

#include <vector>

#include "src/models/recommender.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace firzen {

class EmbeddingModel : public Recommender {
 public:
  using Recommender::MakeScorer;

  /// Streaming dot-product scorer over the final tables: an item block is a
  /// zero-copy row slice of final_item_ fed to GemmBT (kInt8: of a
  /// once-quantized copy, see docs/quantization.md). The model must outlive
  /// the scorer.
  std::unique_ptr<Scorer> MakeScorer(ScoringPrecision precision) const override;

  Matrix ItemEmbeddings() const override { return final_item_; }

  Matrix UserEmbeddings() const override { return final_user_; }

 protected:
  /// Mean BPR loss over a batch: -mean(log sigmoid(s+ - s-)) (Eq. 33).
  static Tensor BprLoss(const Tensor& user_emb, const Tensor& pos_emb,
                        const Tensor& neg_emb);

  /// reg/batch * sum of squared norms of the given batch tensors.
  static Tensor BatchL2(const std::vector<Tensor>& parts, Real reg,
                        Index batch_size);

  /// Warm-validation MRR@20 of the current final embeddings, used as the
  /// early-stopping signal.
  static Real ValidationMrr(const Dataset& dataset, const Matrix& user_emb,
                            const Matrix& item_emb, ThreadPool* pool);

  /// Keeps the best-so-far snapshot according to early stopping.
  void SnapshotIfImproved(bool improved);
  void RestoreBestSnapshot();

  Matrix final_user_;  // num_users x d
  Matrix final_item_;  // num_items x d

 private:
  Matrix best_user_;
  Matrix best_item_;
  bool has_snapshot_ = false;
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_EMBEDDING_MODEL_H_
