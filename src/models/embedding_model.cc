#include "src/models/embedding_model.h"

// Known back-edge: training-time validation metrics (see registry.h).
// firzen-lint: allow(include-layering)
#include "src/eval/evaluator.h"
#include "src/util/check.h"

namespace firzen {

std::unique_ptr<Scorer> EmbeddingModel::MakeScorer(
    ScoringPrecision precision) const {
  FIRZEN_CHECK(!final_user_.empty());
  FIRZEN_CHECK(!final_item_.empty());
  return std::make_unique<DotProductScorer>(final_user_, final_item_,
                                            /*pool=*/nullptr, precision);
}

Tensor EmbeddingModel::BprLoss(const Tensor& user_emb, const Tensor& pos_emb,
                               const Tensor& neg_emb) {
  using namespace ops;  // NOLINT(build/namespaces)
  Tensor diff = Sub(RowDot(user_emb, pos_emb), RowDot(user_emb, neg_emb));
  return Scale(ReduceMean(LogSigmoid(diff)), -1.0);
}

Tensor EmbeddingModel::BatchL2(const std::vector<Tensor>& parts, Real reg,
                               Index batch_size) {
  FIRZEN_CHECK(!parts.empty());
  FIRZEN_CHECK_GT(batch_size, 0);
  using namespace ops;  // NOLINT(build/namespaces)
  Tensor total = SumSquares(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    total = Add(total, SumSquares(parts[i]));
  }
  return Scale(total, reg / static_cast<Real>(batch_size));
}

Real EmbeddingModel::ValidationMrr(const Dataset& dataset,
                                   const Matrix& user_emb,
                                   const Matrix& item_emb, ThreadPool* pool) {
  if (dataset.warm_val.empty()) return 0.0;
  const DotProductScorer scorer(user_emb, item_emb);
  EvalOptions options;
  options.pool = pool;
  const EvalResult result = EvaluateRanking(dataset, dataset.warm_val,
                                            EvalSetting::kWarm, scorer,
                                            options);
  return result.metrics.mrr;
}

void EmbeddingModel::SnapshotIfImproved(bool improved) {
  if (!improved) return;
  best_user_ = final_user_;
  best_item_ = final_item_;
  has_snapshot_ = true;
}

void EmbeddingModel::RestoreBestSnapshot() {
  if (!has_snapshot_) return;
  final_user_ = best_user_;
  final_item_ = best_item_;
}

}  // namespace firzen
