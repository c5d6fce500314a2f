// Shared request-resolution and fused score-and-rank machinery behind
// ServingEngine and the shard server. Requests are resolved once
// (exclusion lists, deduplicated candidate pools — all in GLOBAL item ids),
// then RankRequestsInRange runs over one or many item ranges: an unsharded
// engine passes its base scorer over the whole catalog, a sharded engine
// passes one ItemRangeScorer view per shard. One implementation, exercised
// by every serving path, is what keeps the shard-invariance contract
// ("bit-identical responses for any shard count") enforceable — shard
// layouts cannot drift apart in exclusion, dedup, cold-shelf, or
// candidate-pool semantics because they share this code.
//
// The distributed shard server (src/serve/shard_server.cc) drives the same
// core over a socket: it runs PrepareBatch + RankRequestsInRange for its
// range and ships the heaps' sorted contents as wire frames, which is what
// makes a distributed response byte-identical to the in-process engine.
//
// Internal header: not part of the public serving API; include only from
// src/eval/*.cc, src/serve/*.cc, and tests that need the raw machinery.
#ifndef FIRZEN_EVAL_SERVING_INTERNAL_H_
#define FIRZEN_EVAL_SERVING_INTERNAL_H_

#include <vector>

#include "src/eval/serving.h"
#include "src/models/scorer.h"
#include "src/util/ranking.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace serving_internal {

/// Shard-independent resolved state for one RecRequest: the exclusion list
/// to binary-search (sorted, global ids) and, for explicit pools, the
/// deduplicated sorted candidates. Prepared once per batch and shared by
/// every item range the request is ranked over.
struct PreparedRequest {
  const std::vector<Index>* exclude = nullptr;  // sorted, may be null
  std::vector<Index> custom_sorted;             // backing store for kCustom
  std::vector<Index> pool_sorted;  // sorted unique explicit pool (else empty)
};

/// Validates `requests` (k > 0, user >= 0, candidates within
/// [0, num_items)) and resolves each against `state`: kTrainSeen binds the
/// user's sorted train list, kCustom sorts the request's own exclude list,
/// explicit candidate pools are sorted and deduplicated. The returned
/// vector parallels `requests`; elements never relocate (exclude may point
/// into the element's own custom_sorted).
std::vector<PreparedRequest> PrepareRequests(
    const std::vector<RecRequest>& requests, const ServingSharedState& state,
    Index num_items);

/// The whole batch resolved once: per-request state plus the batching plan
/// every item range executes — which requests stream the full catalog
/// (and their user batch), and how explicit pools are scored: one union
/// stream over all explicit requests, or per-identical-pool groups when
/// the union would waste more than kUnionWasteFactor cells (barely
/// overlapping pools). The plan is derived ONLY from the full request
/// batch, never from any item range: it is paid once for any number of
/// shards, and a range-independent plan keeps the per-shard work streams
/// structurally identical. (Scores themselves are batch-size-invariant —
/// the Gemm A * B^T contract in src/tensor/matrix.h — so shard layout
/// could not bend a bit even if the user batches differed; the fixed plan
/// is a cost/clarity invariant.)
struct PreparedBatch {
  std::vector<PreparedRequest> requests;  // parallels the RecRequest batch
  std::vector<size_t> streamed;           // full-catalog request indices
  std::vector<Index> streamed_users;
  bool use_union = false;
  std::vector<size_t> explicit_idx;  // all explicit-pool request indices
  std::vector<Index> union_items;    // sorted unique union (union mode)
  std::vector<Index> union_users;    // user batch for the union stream
  std::vector<std::vector<size_t>> groups;       // grouped mode: indices
  std::vector<std::vector<Index>> group_users;   // user batch per group
};

/// Builds the shard-invariant plan above.
PreparedBatch PrepareBatch(const std::vector<RecRequest>& requests,
                           const ServingSharedState& state, Index num_items);

/// Scores the global item range [range.begin, range.end) for every request
/// and pushes each eligible item into (*heaps)[i] keyed by GLOBAL item id.
/// `scorer` is a view whose local item j is global item range.begin + j —
/// the base scorer itself when the range spans the whole catalog, an
/// ItemRangeScorer for a shard.
///
/// Full-catalog requests share one fused pass: a ParallelFor over
/// `item_block`-wide item tiles in which each worker scores its tiles for
/// the whole streamed user batch and selects into worker-local heaps, which
/// are then merged into `heaps`. Explicit pools execute `batch`'s plan
/// restricted to the range: the in-range slice of the union (or of each
/// group's pool) streams in `item_block`-bounded chunks while the user
/// batches stay exactly as planned. Per-cell scores are batch- and
/// partition-invariant and the heaps retain a unique top-k under
/// RanksBefore, so ranking a catalog as one range or as many disjoint
/// ranges, in any tile width, on any pool, retains exactly the same
/// candidates at the same scores.
///
/// `arenas` supplies the scoring scratch: every worker of the fused pass
/// leases its own arena, and the explicit-pool plan leases one. `pool`
/// runs the fused pass and the explicit-pool heap loops (nullptr =
/// inline). An exception thrown by the scorer on any worker reaches the
/// caller (see ParallelFor). heaps->size() must equal requests.size().
void RankRequestsInRange(const Scorer& scorer, ItemBlock range,
                         const std::vector<RecRequest>& requests,
                         const PreparedBatch& batch,
                         const ServingSharedState& state, Index item_block,
                         ThreadPool* pool, ArenaPool* arenas,
                         std::vector<TopKHeap>* heaps);

}  // namespace serving_internal
}  // namespace firzen

#endif  // FIRZEN_EVAL_SERVING_INTERNAL_H_
