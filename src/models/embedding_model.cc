#include "src/models/embedding_model.h"

// Known back-edge: training-time validation metrics (see registry.h).
// firzen-lint: allow(include-layering)
#include "src/eval/evaluator.h"
#include "src/models/sampler.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace firzen {
namespace {

// Warm-validation MRR@20 of the scorer `model` serves with.
Real ValidationMrr(const Recommender& model, const Dataset& dataset,
                   ThreadPool* pool) {
  if (dataset.warm_val.empty()) return 0.0;
  EvalOptions options;
  options.pool = pool;
  return EvaluateRanking(dataset, dataset.warm_val, EvalSetting::kWarm,
                         *model.MakeScorer(ScoringPrecision::kFp32), options)
      .metrics.mrr;
}

}  // namespace

std::unique_ptr<Scorer> EmbeddingModel::MakeScorer(
    ScoringPrecision precision) const {
  FIRZEN_CHECK(!final_user_.empty());
  FIRZEN_CHECK(!final_item_.empty());
  return std::make_unique<DotProductScorer>(final_user_, final_item_,
                                            /*pool=*/nullptr, precision);
}

void EmbeddingModel::RunEpochs(const Dataset& dataset,
                               const TrainOptions& options,
                               const EpochLoop& loop) {
  FIRZEN_CHECK_GE(options.eval_every, 1);
  FIRZEN_CHECK_GE(options.batch_size, 1);
  const int steps = options.steps_per_epoch > 0
                        ? options.steps_per_epoch
                        : static_cast<int>(dataset.train.size() /
                                               options.batch_size +
                                           1);
  BprSampler sampler(dataset, options.seed + 1);
  EarlyStopper stopper(options.patience);
  Matrix best_user;
  Matrix best_item;
  bool has_best = false;
  std::vector<Index> users;
  std::vector<Index> pos;
  std::vector<Index> neg;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    if (loop.begin_epoch) loop.begin_epoch(epoch);
    Real epoch_loss = 0.0;
    for (int step = 0; step < steps; ++step) {
      sampler.SampleBatch(options.batch_size, &users, &pos, &neg);
      epoch_loss += loop.step({step, users, pos, neg, &sampler});
    }
    if (loop.end_epoch) loop.end_epoch();
    if ((epoch + 1) % options.eval_every != 0) continue;
    loop.compute_final();
    const Real mrr = ValidationMrr(*this, dataset, options.pool);
    const bool stop = stopper.Update(mrr);
    if (loop.keep_best && stopper.improved()) {
      if (loop.save_best) {
        loop.save_best();
      } else {
        best_user = final_user_;
        best_item = final_item_;
      }
      has_best = true;
    }
    if (options.verbose) {
      Logf(LogLevel::kInfo, "[%s] epoch %d loss=%.4f val-mrr=%.4f%s",
           Name().c_str(), epoch, epoch_loss / steps, mrr,
           loop.log_suffix ? loop.log_suffix().c_str() : "");
    }
    if (stop) break;
  }
  loop.compute_final();
  if (!has_best) return;
  if (loop.restore_best) {
    loop.restore_best();
  } else {
    final_user_ = best_user;
    final_item_ = best_item;
  }
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

}  // namespace firzen
