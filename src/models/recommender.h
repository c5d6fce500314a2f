// Common interface implemented by Firzen and all baseline recommenders.
#ifndef FIRZEN_MODELS_RECOMMENDER_H_
#define FIRZEN_MODELS_RECOMMENDER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/scorer.h"
#include "src/tensor/matrix.h"
#include "src/util/thread_pool.h"

namespace firzen {

/// Shared training hyperparameters. Model-specific knobs live in each
/// model's own Options struct (RocksDB-style configuration).
struct TrainOptions {
  Index embedding_dim = 32;
  int epochs = 60;
  int batch_size = 512;
  Real lr = 5e-3;
  Real reg = 1e-4;       // L2 weight on the sampled batch embeddings
  int num_layers = 2;    // GNN propagation depth L
  int steps_per_epoch = 0;  // 0 = ceil(|train| / batch_size)
  int eval_every = 5;       // epochs between early-stopping validations
  int patience = 3;         // early-stop patience (validation MRR@20)
  uint64_t seed = 42;
  bool verbose = false;
  ThreadPool* pool = nullptr;
};

/// Abstract recommender. Lifecycle: Fit() -> [PrepareColdInference()] ->
/// MakeScorer() -> ScoreBlock()/ScoreCandidates(), each through a
/// caller-owned ScoringArena. Scoring streams bounded item panels; the
/// evaluator and the serving engine fuse ranking with the stream so no
/// users x num_items matrix ever materializes.
class Recommender {
 public:
  virtual ~Recommender();

  virtual std::string Name() const = 0;

  /// Trains on dataset.train (strict cold items never appear there).
  virtual void Fit(const Dataset& dataset, const TrainOptions& options) = 0;

  /// Mints a streaming scorer over the model's current inference state
  /// (post Fit / PrepareColdInference). The model must outlive the scorer,
  /// and the scorer reflects the state at mint time: re-mint after
  /// Prepare*ColdInference. Scorers are logically const and safely shared
  /// across threads (per-call scratch lives in caller ScoringArenas), so
  /// one mint serves any number of concurrent scoring streams — there is
  /// no reason to mint per thread. kInt8 is honored by models whose scores
  /// are dot products over frozen final tables (EmbeddingModel descendants,
  /// StaticRecommender); KGCN's tanh tower has no Gemm hot loop to quantize
  /// and scores in fp32 at either precision.
  virtual std::unique_ptr<Scorer> MakeScorer(
      ScoringPrecision precision) const = 0;

  /// The fp32 mint. Not virtual: a class overriding MakeScorer(precision)
  /// hides this name and re-exposes it with `using Recommender::MakeScorer;`.
  std::unique_ptr<Scorer> MakeScorer() const {
    return MakeScorer(ScoringPrecision::kFp32);
  }

  /// Full-matrix scoring: resizes `scores` to users.size() x num_items and
  /// fills it with one catalog-wide ScoreBlock through a local arena. Kept
  /// only for perfbench/'s materialize-then-rank gate; new code streams
  /// through MakeScorer() + ScoreBlock.
  void Score(const std::vector<Index>& users, Matrix* scores) const;

  /// Rebuilds inference-time structures that may include strict cold items
  /// (e.g. expanded + masked item-item graphs, Eqs. 34-35). Default: no-op.
  virtual void PrepareColdInference(const Dataset& dataset);

  /// Normal cold-start protocol (Table VI): `dataset.cold_known` holds the
  /// revealed links. Default: delegates to PrepareColdInference.
  virtual void PrepareNormalColdInference(const Dataset& dataset);

  /// Final item embeddings for visualization (Fig. 8). Default: empty.
  virtual Matrix ItemEmbeddings() const;

  /// Final user embeddings for serialization/serving. Empty for models
  /// whose scores are not a user-vector dot product (e.g. KGCN).
  virtual Matrix UserEmbeddings() const;
};

/// Early-stopping tracker on a to-be-maximized validation metric.
class EarlyStopper {
 public:
  explicit EarlyStopper(int patience) : patience_(patience) {}

  /// Records a validation score; returns true when training should stop.
  bool Update(Real metric);

  bool improved() const { return improved_; }
  Real best() const { return best_; }

 private:
  int patience_;
  int strikes_ = 0;
  Real best_ = -1.0;
  bool improved_ = false;
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_RECOMMENDER_H_
