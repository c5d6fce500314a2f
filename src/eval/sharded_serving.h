// Sharded-catalog serving: partition the item id space into contiguous
// shards, score every shard in parallel through per-shard scorer views, and
// merge the per-shard top-K lists into one global ranking that is
// BIT-EXACT and ORDER-IDENTICAL to the single-engine answer for any shard
// count. Catalogs whose item table no longer fits one engine's working set
// scale out horizontally behind this front end without any observable
// change in responses.
//
// Why the merge is exact: per-item scores do not depend on how the catalog
// is partitioned (the Scorer block-invariance contract, pinned by
// tests/scorer_parity_test.cc), and ranking uses the strict total order
// RanksBefore (descending score, ties by ascending item id — see
// src/eval/topk.h). Every item in the global top-k lies inside its own
// shard's top-k (fewer than k items beat it anywhere, so fewer than k beat
// it in its shard), hence sorting the concatenated per-shard lists and
// truncating to k reproduces the single-engine ranking element for
// element, score bit for score bit. tests/sharded_serving_test.cc locks
// this in for every registered model and shard counts {1, 2, 3, 7,
// num_items}.
//
// Thread safety: identical to ServingEngine — share ONE
// ShardedServingEngine across any number of request threads. The base
// scorer is minted once and shared by all shard views (mint-time work is
// never duplicated), per-call scratch is leased from an internal arena
// pool, and exclusion/cold-shelf state lives in one ServingSharedState
// shared by every shard — and shareable with sibling engines over the same
// catalog.
//
// Caveat — FullScoreAdapter-backed scorers: that adapter caches full
// users x num_items score rows PER ARENA and keys them by user batch. When
// shards rank concurrently (at least one shard per pool worker; each shard
// leases a private arena) S shards evaluate and hold S copies of the full
// rows — S x the single engine's scoring cost and peak transient. The
// sequential placement (fewer shards than workers) shares one arena, so a
// batch with a single user-batch shape (all full-catalog, or all explicit
// pools) computes the rows once; a MIXED batch alternates the streamed and
// explicit user batches inside every shard and still re-evaluates per
// shard. Sharding pays off for block-native scorers (DotProductScorer,
// KGCN) whose per-shard cost is proportional to the shard; for
// full-row-fallback models, prefer the single engine.
#ifndef FIRZEN_EVAL_SHARDED_SERVING_H_
#define FIRZEN_EVAL_SHARDED_SERVING_H_

#include <memory>
#include <vector>

#include "src/eval/serving.h"
#include "src/eval/topk.h"

namespace firzen {

/// Splits [0, num_items) into `num_shards` contiguous ranges whose sizes
/// differ by at most one (the first num_items % num_shards shards get the
/// extra item). num_shards is clamped to [1, max(num_items, 1)], so asking
/// for more shards than items yields one item per shard.
std::vector<ItemBlock> MakeShardRanges(Index num_items, Index num_shards);

/// Shard layout from explicit interior cut points: boundaries must be
/// sorted and within [0, num_items]; each adjacent pair (with 0 and
/// num_items appended at the ends) becomes one shard. Duplicate or
/// end-touching cut points yield empty shards, which are legal and simply
/// score nothing — so randomized layouts (property tests) need no
/// preprocessing.
std::vector<ItemBlock> RangesFromBoundaries(Index num_items,
                                            const std::vector<Index>& boundaries);

/// Merges concatenated per-shard top-k lists into the global top-k:
/// sorts `entries` under RanksBefore and truncates to k. Because
/// RanksBefore is a strict total order over distinct items, the result is
/// unique — independent of shard count, shard boundaries, and the order
/// the per-shard lists were concatenated in. Shared by
/// ShardedServingEngine and the sharded EvaluateRanking path.
std::vector<ScoredItem> MergeTopK(std::vector<ScoredItem> entries, Index k);

struct ShardedServingOptions {
  /// Number of contiguous equal-size shards (see MakeShardRanges). Ignored
  /// when `boundaries` is non-empty.
  Index num_shards = 2;
  /// Optional explicit shard layout: interior cut points as accepted by
  /// RangesFromBoundaries. Empty = balanced num_shards layout.
  std::vector<Index> boundaries;
  /// Tile width of each shard's fused score-and-select pass (items per
  /// ScoreBlock call), as in ServingEngineOptions.
  Index item_block = 512;
  /// Pool the shards (and the fused ranking loops inside each shard) run
  /// on; nullptr = ThreadPool::Global().
  ThreadPool* pool = nullptr;
  /// Numeric tier for the minted base scorer (model-based constructor
  /// only). The per-shard ItemRangeScorer views inherit it — all shards of
  /// one engine always score at one precision, so the merged top-K stays
  /// bit-identical for any shard layout (quant bit-identity suite).
  ScoringPrecision precision = ScoringPrecision::kFp32;
};

/// Request/response serving over a partitioned catalog. Drop-in for
/// ServingEngine: same RecRequest/RecResponse semantics (candidate pools,
/// exclusion policies, cold-only shelf, NaN and duplicate handling), same
/// thread-safety contract, bit-identical responses for any shard layout.
class ShardedServingEngine {
 public:
  /// Mints one scorer from the model and slices it into per-shard views.
  /// The model must outlive the engine; exclusions and the cold shelf come
  /// from `dataset`.
  ShardedServingEngine(const Recommender* model, const Dataset& dataset,
                       ShardedServingOptions options = {});

  /// Engine over an explicit base scorer (e.g. a DotProductScorer on
  /// loaded embeddings).
  ShardedServingEngine(std::unique_ptr<Scorer> scorer, const Dataset& dataset,
                       ShardedServingOptions options = {});

  /// Engine sharing a pre-built state with sibling engines over the same
  /// catalog (see ServingSharedState). `state` must be non-null and its
  /// is_cold size must match the scorer's catalog.
  ShardedServingEngine(std::unique_ptr<Scorer> scorer,
                       std::shared_ptr<const ServingSharedState> state,
                       ShardedServingOptions options = {});

  /// Routed through the attached AdmissionController when one is attached
  /// (coalescing this call with concurrent callers'), else served directly.
  /// Through admission, the response's RecStatus may be non-kOk (shed,
  /// deadline-exceeded, backend failure — see src/eval/admission.h); the
  /// direct path always serves with kOk.
  RecResponse Recommend(const RecRequest& request) const;

  /// Answers every request, preserving order: requests are resolved once,
  /// every shard ranks its item slice in parallel (per-shard scorer view,
  /// per-shard leased arena, per-shard bounded heaps), and the per-shard
  /// top-k lists merge under RanksBefore into each response. Routed
  /// through the attached AdmissionController when one is attached.
  std::vector<RecResponse> RecommendBatch(
      const std::vector<RecRequest>& requests) const;

  /// The execution path itself: serves the batch on the calling thread,
  /// bypassing any attached admission controller (what the controller's
  /// dispatcher invokes). Thread-safe.
  std::vector<RecResponse> RecommendBatchDirect(
      const std::vector<RecRequest>& requests) const;

  /// Routes subsequent Recommend/RecommendBatch calls through `controller`
  /// (nullptr to detach). Setup-time operation: must not race with
  /// in-flight requests; the controller must outlive the attachment.
  void AttachAdmission(const AdmissionController* controller) {
    admission_ = controller;
  }
  const AdmissionController* admission() const { return admission_; }

  Index num_items() const { return num_items_; }
  Index num_shards() const { return static_cast<Index>(ranges_.size()); }
  /// Global item range [begin, end) of one shard.
  ItemBlock shard_range(Index shard) const {
    return ranges_[static_cast<size_t>(shard)];
  }

  /// The engine's shared exclusion/cold state, for constructing sibling
  /// engines over the same catalog.
  const std::shared_ptr<const ServingSharedState>& shared_state() const {
    return state_;
  }

 private:
  void BuildShards();

  std::unique_ptr<const Scorer> scorer_;  // base; outlives the shard views
  std::vector<std::unique_ptr<const ItemRangeScorer>> shards_;
  std::vector<ItemBlock> ranges_;
  Index num_items_ = 0;
  std::shared_ptr<const ServingSharedState> state_;
  ShardedServingOptions options_;
  // Recycles per-call scoring scratch; mutex-guarded, so concurrent calls
  // on this const engine each lease private per-shard arenas.
  mutable ArenaPool arenas_;
  // Optional admission-batching front end; see AttachAdmission.
  const AdmissionController* admission_ = nullptr;
};

}  // namespace firzen

#endif  // FIRZEN_EVAL_SHARDED_SERVING_H_
