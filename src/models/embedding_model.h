// Shared base for models that score via a dot product of final user/item
// embedding matrices, and the one training protocol every model runs.
//
// RunEpochs is the epoch driver: it draws BPR batches from one BprSampler
// (seeded options.seed + 1), sums the step losses, validates warm MRR@20
// every options.eval_every epochs, stops on options.patience, and ends on
// the best validated state. A model's Fit initializes its parameters, then
// hands RunEpochs an EpochLoop: its step body and how it computes its final
// tables, plus optional hooks at the start and end of each epoch, a custom
// validation metric, a custom best-state snapshot and a log-line suffix.
// The base also holds the loss helpers the step bodies share (BPR loss,
// batch L2).
#ifndef FIRZEN_MODELS_EMBEDDING_MODEL_H_
#define FIRZEN_MODELS_EMBEDDING_MODEL_H_

#include <functional>
#include <string>
#include <vector>

#include "src/models/recommender.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace firzen {

class BprSampler;

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
  /// One step's BPR batch as RunEpochs drew it. A step may draw more from
  /// `sampler` (adversarial users, extra negatives): it is the same stream.
  struct BprBatch {
    int step;  // within the epoch
    const std::vector<Index>& users;
    const std::vector<Index>& pos;
    const std::vector<Index>& neg;
    BprSampler* sampler;
  };

  /// The per-model parts of a training run. `step` and `compute_final` are
  /// required; every other hook may stay empty.
  struct EpochLoop {
    /// One optimization step on `batch`; returns the step's loss.
    std::function<Real(const BprBatch& batch)> step;
    /// Writes final_user_ and final_item_ from the current parameters: before
    /// each validation and once after the last epoch.
    std::function<void()> compute_final;
    /// Runs at the start of each epoch, before its first step.
    std::function<void(int epoch)> begin_epoch;
    /// Runs after each epoch's steps, before its validation.
    std::function<void()> end_epoch;
    /// The early-stopping metric, read after compute_final. Default: warm
    /// validation MRR@20 of final_user_ . final_item_.
    std::function<Real()> validate;
    /// Whether the run ends on the best validated state (true) or the last.
    bool keep_best = true;
    /// Copy and bring back the best state. Default: final_user_ and
    /// final_item_. restore_best runs after the last compute_final.
    std::function<void()> save_best;
    std::function<void()> restore_best;
    /// Appended to the verbose per-validation log line.
    std::function<std::string()> log_suffix;
  };

  /// Runs options.epochs epochs of `loop` and leaves the final tables set.
  /// Steps per epoch: options.steps_per_epoch, or |train| / batch_size + 1
  /// when that is 0. epochs = 0 runs no step and no validation and computes
  /// the final tables once.
  void RunEpochs(const Dataset& dataset, const TrainOptions& options,
                 const EpochLoop& loop);

  /// Mean BPR loss over a batch: -mean(log sigmoid(s+ - s-)) (Eq. 33).
  static Tensor BprLoss(const Tensor& user_emb, const Tensor& pos_emb,
                        const Tensor& neg_emb);

  /// reg/batch * sum of squared norms of the given batch tensors.
  static Tensor BatchL2(const std::vector<Tensor>& parts, Real reg,
                        Index batch_size);

  Matrix final_user_;  // num_users x d
  Matrix final_item_;  // num_items x d
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_EMBEDDING_MODEL_H_
