// Sharded-catalog helpers: the contiguous shard layouts and the exact
// per-shard top-K merge shared by ServingEngine (with num_shards > 1 or
// explicit boundaries) and the distributed coordinator
// (src/serve/distributed_serving.h). Partitioning the item id space this
// way is BIT-EXACT and ORDER-IDENTICAL to ranking the catalog as one
// range, for any shard count.
//
// Why the merge is exact: per-item scores do not depend on how the catalog
// is partitioned (the Scorer block-invariance contract, pinned by
// tests/scorer_parity_test.cc), and ranking uses the strict total order
// RanksBefore (descending score, ties by ascending item id — see
// src/util/ranking.h). Every item in the global top-k lies inside its own
// shard's top-k (fewer than k items beat it anywhere, so fewer than k beat
// it in its shard), hence sorting the concatenated per-shard lists and
// truncating to k reproduces the single-range ranking element for
// element, score bit for score bit. tests/sharded_serving_test.cc locks
// this in for every registered model and shard counts {1, 2, 3, 7,
// num_items}.
#ifndef FIRZEN_EVAL_SHARDED_SERVING_H_
#define FIRZEN_EVAL_SHARDED_SERVING_H_

#include <vector>

#include "src/models/scorer.h"
#include "src/util/ranking.h"

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
/// the per-shard lists were concatenated in. Shared by ServingEngine, the
/// sharded EvaluateRanking path, and the distributed coordinator.
std::vector<ScoredItem> MergeTopK(std::vector<ScoredItem> entries, Index k);

}  // namespace firzen

#endif  // FIRZEN_EVAL_SHARDED_SERVING_H_
