// Online-serving engine: top-K recommendation queries against a trained
// Recommender through the block-streaming Scorer API. Scoring and ranking
// are fused — pool workers score item tiles and select into bounded
// min-heaps — so a batch of requests peaks at
// O(workers * batch_users * item_block) memory for any catalog size; the
// full users x items score matrix never materializes.
//
// Sharding is an option (ServingEngineOptions::num_shards / boundaries):
// the item id space splits into contiguous ranges, the one minted scorer
// ranks each range in global item ids into its own heaps, and the
// per-range top-K lists merge under RanksBefore (MergeTopK,
// src/eval/sharded_serving.h). Responses are bit-identical for any shard
// layout; one range runs the unsharded path with no merge. The ranking core itself lives in src/eval/serving_internal.h.
//
// Thread safety: one ServingEngine safely serves any number of concurrent
// request threads. The scorer is shared (it is logically const; per-call
// scratch lives in ScoringArenas recycled through an internal mutex-guarded
// pool), exclusion/cold-shelf state is immutable after construction, and
// responses are bit-identical to a single-threaded run regardless of how
// calls interleave. Do NOT mint one engine per thread — that only
// duplicates gather caches and mint-time projections.
//
// Under heavy concurrent single-request traffic, put an AdmissionController
// (src/eval/admission.h) in front of the engine and send requests to the
// controller: it coalesces concurrent callers into fused user batches —
// one catalog stream per batch instead of one per request — with responses
// bit-identical to serving each request alone (scores are
// batch-size-invariant; see src/tensor/matrix.h). The engine itself knows
// nothing about admission.
#ifndef FIRZEN_EVAL_SERVING_H_
#define FIRZEN_EVAL_SERVING_H_

#include <memory>
#include <vector>

#include "src/data/dataset.h"
#include "src/models/recommender.h"

namespace firzen {

/// One recommendation with its model score.
struct Recommendation {
  Index item;
  Real score;
};

/// Outcome of one RecRequest. The engines always serve (kOk); the non-kOk
/// codes are produced by the overload-protection policies of an
/// AdmissionController in front of an engine (src/eval/admission.h), by
/// backend failures during a fused pass, and by shard failures under the
/// DistributedServingEngine (src/serve/distributed_serving.h). A response
/// with a non-kOk status carries no items — EXCEPT kDegraded, which
/// carries the best-effort merge over the shards that did answer.
enum class RecStatus {
  kOk = 0,
  /// Rejected at admission: the ticket queue was over its shedding
  /// watermark (AdmissionOptions::max_queue_depth). Retry later or
  /// elsewhere; the request was never scored.
  kShed,
  /// The request's deadline_us budget expired before a fused pass could
  /// serve it (or was zero at enqueue). Never scored late.
  kDeadlineExceeded,
  /// The fused pass this request rode threw; every coalesced ticket of
  /// that pass is rejected with this status (no torn results).
  kBackendError,
  /// Served from a PARTIAL catalog: one or more shard servers failed or
  /// timed out, so the response merges only the surviving shards' top-K
  /// lists. Unlike the other non-kOk codes it DOES carry items (possibly
  /// none, when every shard failed); RecResponse::failed_shards lists the
  /// shards whose slice is missing. Produced only by the distributed
  /// coordinator.
  kDegraded,
};

/// Stable human-readable name ("OK", "SHED", ...) for logs and CLIs.
const char* RecStatusName(RecStatus status);

/// Which items are withheld from a request's results.
enum class ExclusionPolicy {
  kTrainSeen,  // the user's training interactions (default)
  kCustom,     // exactly RecRequest::exclude
  kNone,       // nothing excluded
};

/// One top-K recommendation query.
struct RecRequest {
  Index user = 0;
  Index k = 10;
  /// Explicit candidate pool; empty = the full catalog (streamed in blocks).
  /// Any order; duplicate entries are deduplicated (each item is scored and
  /// recommended at most once).
  std::vector<Index> candidates;
  ExclusionPolicy exclusion = ExclusionPolicy::kTrainSeen;
  /// Items withheld under ExclusionPolicy::kCustom (any order, duplicates
  /// allowed).
  std::vector<Index> exclude;
  /// Restrict results to the strict cold-start shelf ("new arrivals").
  bool cold_only = false;
  /// Optional latency budget in microseconds, measured from admission
  /// enqueue. Negative = no deadline. Only an AdmissionController enforces
  /// it: a ticket whose budget expires before its fused pass starts is
  /// rejected with RecStatus::kDeadlineExceeded instead of scored late
  /// (0 = already expired at enqueue, rejected immediately). The in-process
  /// engine ignores it.
  int64_t deadline_us = -1;
  /// Fair-share tenant id (>= 0) under DrainPolicy::kFairShare: the
  /// admission drain interleaves per-tenant queues by weight so one hot
  /// tenant cannot starve the rest. Ignored by other policies and by the
  /// engines.
  Index tenant = 0;
};

/// Ranked answer to one RecRequest, best first. May hold fewer than k items
/// when the pool is smaller than k or exclusions consume it — never an
/// error. Items whose model score is NaN are never returned.
///
/// Check `status` first: a request rejected by admission overload
/// protection (shed, deadline exceeded) or failed by its fused pass
/// carries a non-kOk status and no items; a kDegraded response carries
/// the items merged from the shard servers that did answer. Served (kOk)
/// responses are bit-identical to serving the request alone, whatever
/// admission policy or shard layout routed them.
struct RecResponse {
  Index user = 0;
  RecStatus status = RecStatus::kOk;
  std::vector<Recommendation> items;
  /// Shard indices (coordinator connection order) whose top-K slice is
  /// missing from `items`. Non-empty exactly when status == kDegraded;
  /// empty for every other status.
  std::vector<Index> failed_shards;
};

struct ServingEngineOptions {
  /// Tile width of the fused score-and-select pass (items per ScoreBlock
  /// call). Each pool worker holds one batch_users x item_block score
  /// panel, so per-batch peak scoring memory is
  /// workers * batch_users * item_block * sizeof(Real); the default keeps
  /// a 256-user panel (1 MB) in L2. Explicit candidate pools stream in
  /// chunks of the same width.
  Index item_block = 512;
  /// Pool the fused pass shards its item tiles over (and the explicit-pool
  /// heap loops run on); nullptr = ThreadPool::Global(). Scoring inside a
  /// pool worker runs inline on that worker.
  ThreadPool* pool = nullptr;
  /// Numeric tier for the minted scorer (model-based constructor only; an
  /// explicitly passed scorer keeps its own). kInt8 scores through the
  /// quantized catalog (docs/quantization.md); models without a factorized
  /// path silently keep fp32. Every shard scores through the one scorer,
  /// so for a fixed precision + SIMD tier + catalog, responses stay
  /// bit-identical across shard layouts, batch sizes, and thread counts —
  /// the quant suites pin this.
  ScoringPrecision precision = ScoringPrecision::kFp32;
  /// Number of contiguous equal-size catalog shards (see MakeShardRanges).
  /// 1 = no sharding. Ignored when `boundaries` is non-empty.
  Index num_shards = 1;
  /// Optional explicit shard layout: interior cut points as accepted by
  /// RangesFromBoundaries. Empty = balanced num_shards layout.
  std::vector<Index> boundaries;
};

// Kept only because perfbench/ calls it.
using ShardedServingOptions = ServingEngineOptions;

/// Immutable per-catalog serving state: sorted train items per user (the
/// kTrainSeen exclusion lists) and the strict-cold-item bitmap. Engines hold
/// it by shared_ptr, so engines over the same dataset — shard servers of a
/// partitioned catalog, or an engine re-minted after
/// Prepare*ColdInference — share one copy instead of deep-copying it each.
/// The state must never be mutated once an engine holds it.
struct ServingSharedState {
  std::vector<std::vector<Index>> seen;  // sorted train items per user
  std::vector<bool> is_cold;

  /// Builds the state once from a dataset.
  static std::shared_ptr<const ServingSharedState> FromDataset(
      const Dataset& dataset);

  /// As above, but for datasets whose cold bitmap may be absent:
  /// `num_items` sizes the all-warm fallback (the engine passes the
  /// scorer's catalog size).
  static std::shared_ptr<const ServingSharedState> FromDataset(
      const Dataset& dataset, Index num_items);
};

/// Request/response serving front end. Mints one Scorer from the model at
/// construction (re-construct after Prepare*ColdInference to pick up new
/// state). Thread-safe: share one engine across request threads — see the
/// file comment.
class ServingEngine {
 public:
  /// The model must outlive the engine. Train-seen exclusions and the cold
  /// shelf come from `dataset`.
  ServingEngine(const Recommender* model, const Dataset& dataset,
                ServingEngineOptions options = {});

  /// Engine over an explicit scorer (e.g. a DotProductScorer on loaded
  /// embeddings) — the offline-training / online-serving split.
  ServingEngine(std::unique_ptr<Scorer> scorer, const Dataset& dataset,
                ServingEngineOptions options = {});

  /// Engine sharing a pre-built state (see ServingSharedState): sibling
  /// engines over the same catalog hold the same exclusion lists and cold
  /// bitmap instead of one deep copy each. `state` must be non-null and its
  /// is_cold size must match the scorer's catalog.
  ServingEngine(std::unique_ptr<Scorer> scorer,
                std::shared_ptr<const ServingSharedState> state,
                ServingEngineOptions options = {});

  RecResponse Recommend(const RecRequest& request) const;

  /// Answers every request, preserving order, on the calling thread (and
  /// the pool). Requests over the full catalog share one fused
  /// score-and-rank stream; consecutive requests with identical explicit
  /// candidate pools score as one group over that pool in bounded chunks,
  /// so no request's cells are scored outside its own pool. With several
  /// shards, every shard ranks its slice into its own heaps and the
  /// per-shard lists merge under RanksBefore.
  std::vector<RecResponse> RecommendBatch(
      const std::vector<RecRequest>& requests) const;

  // Kept only because perfbench/ calls it.
  std::vector<RecResponse> RecommendBatchDirect(
      const std::vector<RecRequest>& requests) const {
    return RecommendBatch(requests);
  }

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
  /// Shared tail of the scorer constructors: validates the state and
  /// options, defaults the pool, and lays out the shards.
  void Init();

  std::unique_ptr<const Scorer> scorer_;
  Index num_items_ = 0;
  std::shared_ptr<const ServingSharedState> state_;
  ServingEngineOptions options_;
  std::vector<ItemBlock> ranges_;  // the shard layout; one range = unsharded
  // Recycles per-call scoring scratch across requests; mutex-guarded, so
  // concurrent calls on this const engine each lease a private arena.
  mutable ArenaPool arenas_;
};

// Kept only because perfbench/ calls it.
using ShardedServingEngine = ServingEngine;

}  // namespace firzen

#endif  // FIRZEN_EVAL_SERVING_H_
