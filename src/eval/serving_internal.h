// Shared request-resolution and fused score-and-rank machinery behind
// ServingEngine and the shard server. Requests are resolved once
// (exclusion lists, deduplicated candidate pools — all in GLOBAL item ids),
// then RankRequestsInRange runs the one base scorer over one or many global
// item ranges: an unsharded engine passes the whole catalog, a sharded
// engine one range per shard. One implementation, exercised
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
/// every item range executes. Full-catalog requests stream together (one
/// user batch); explicit-pool requests form groups, each a run of
/// requests whose deduplicated pool equals the previous explicit-pool
/// request's, and a group scores only its own pool. The plan is derived
/// ONLY from the full request batch, never from any item range: it is paid
/// once for any number of shards. (Scores themselves are
/// batch-size-invariant — the Gemm A * B^T contract in
/// src/tensor/matrix.h — so the plan is a cost choice, never a bit.)
struct PreparedBatch {
  std::vector<PreparedRequest> requests;  // parallels the RecRequest batch
  std::vector<size_t> streamed;           // full-catalog request indices
  std::vector<Index> streamed_users;
  std::vector<std::vector<size_t>> groups;      // explicit-pool indices
  std::vector<std::vector<Index>> group_users;  // user batch per group
};

/// Builds the shard-invariant plan above.
PreparedBatch PrepareBatch(const std::vector<RecRequest>& requests,
                           const ServingSharedState& state, Index num_items);

/// Scores the global item range [range.begin, range.end) of `scorer`'s
/// catalog for every request and returns one heap per request holding its
/// top-k in that range, keyed by GLOBAL item id. Each heap is sized
/// min(k, range.size()), so a huge k reserves no more than the range holds.
///
/// Full-catalog requests share one fused pass: a ParallelFor over
/// `item_block`-wide item tiles in which each worker scores its tiles for
/// the whole streamed user batch and selects into worker-local heaps, which
/// are then merged. Each explicit-pool group streams the in-range slice of
/// its pool in `item_block`-bounded chunks for the group's user batch.
/// Per-cell scores are batch- and partition-invariant and the heaps retain
/// a unique top-k under RanksBefore, so ranking a catalog as one range or
/// as many disjoint ranges, in any tile width, on any pool, retains exactly
/// the same candidates at the same scores.
///
/// `arenas` supplies the scoring scratch: every worker of the fused pass
/// leases its own arena, and the explicit-pool groups lease one. `pool`
/// runs the fused pass and the explicit-pool heap loops (nullptr =
/// inline). An exception thrown by the scorer on any worker reaches the
/// caller (see ParallelFor).
std::vector<TopKHeap> RankRequestsInRange(
    const Scorer& scorer, ItemBlock range,
    const std::vector<RecRequest>& requests, const PreparedBatch& batch,
    const ServingSharedState& state, Index item_block, ThreadPool* pool,
    ArenaPool* arenas);

}  // namespace serving_internal
}  // namespace firzen

#endif  // FIRZEN_EVAL_SERVING_INTERNAL_H_
