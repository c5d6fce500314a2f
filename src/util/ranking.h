// THE canonical ranking order and the one top-k selection path, in the util
// layer so EVERY layer — data generation, graph construction, evaluation,
// serving — ranks through one total order and one heap loop without an
// upward #include (the determinism linter bans raw comparator sorts on
// score floats; see tools/firzen_lint.py and docs/static_analysis.md).
#ifndef FIRZEN_UTIL_RANKING_H_
#define FIRZEN_UTIL_RANKING_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "src/util/common.h"

namespace firzen {

/// One scored candidate.
struct ScoredItem {
  Index item;
  Real score;
};

/// THE ranking total order: true when `a` ranks strictly before `b` —
/// descending score, ties broken by ascending item id. Item ids are unique
/// within a ranking, so this is a strict total order: any top-k selection
/// under it is a unique set in a unique order, no matter how the candidates
/// were partitioned or in which order they were offered. That property is
/// what makes per-shard top-k lists mergeable bit-exactly (MergeTopK in
/// src/eval/sharded_serving.h): every ranking path — TopKHeap, the sharded
/// merge, kNN/co-occurrence graph truncation, brute-force references in
/// tests — must compare through this one function. NaN never reaches it
/// (TopKHeap drops NaN pushes; a NaN here would break the strict weak
/// ordering).
inline bool RanksBefore(const ScoredItem& a, const ScoredItem& b) {
  return a.score != b.score ? a.score > b.score : a.item < b.item;
}

/// Reusable bounded top-k selector: O(n log k) with a k-entry buffer. The
/// retained set is the unique top-k under RanksBefore, whatever the push
/// order. Intended as per-thread scratch in batched ranking loops:
/// construct once, then Reset()/Push()/Sorted() per row.
class TopKHeap {
 public:
  explicit TopKHeap(Index k);

  Index k() const { return k_; }

  /// Clears the heap for the next row; keeps the allocated scratch.
  void Reset() { heap_.clear(); }

  /// Offers one candidate. Kept iff it beats the current k-th best. NaN
  /// scores are dropped deterministically (they rank below every real
  /// score); letting them in would break the heap's strict weak ordering.
  void Push(Index item, Real score);

  /// True when Push(item, score) would change the heap — i.e. the heap is
  /// not yet full, or the candidate beats the current k-th best under
  /// RanksBefore. Cheap (one comparison, no reheap): ranking loops test it
  /// BEFORE paying per-item eligibility checks (exclusion binary searches,
  /// cold-bitmap loads), since once the heap is warm almost every streamed
  /// item fails it. Filtering this way is bit-neutral: a candidate that
  /// fails would have left the heap unchanged anyway. NaN fails against a
  /// full heap and is dropped by Push itself otherwise.
  bool MightAccept(Index item, Real score) const {
    return static_cast<Index>(heap_.size()) < k_ ||
           RanksBefore({item, score}, heap_.front());
  }

  /// Lowest score Push can still accept: -infinity until the heap is full,
  /// then the current k-th best score (a candidate tying it may still win
  /// on item id). A run of scores all below the floor — or NaN — leaves
  /// the heap unchanged, so ranking loops test whole chunks against it,
  /// vectorized, before MightAccept.
  Real ScoreFloor() const {
    return static_cast<Index>(heap_.size()) < k_
               ? -std::numeric_limits<Real>::infinity()
               : heap_.front().score;
  }

  /// Sorts the retained candidates best-first in place and returns them.
  /// Invalidates the heap ordering: call Reset() before the next Push
  /// sequence. The buffer (and its capacity) stays owned by this object.
  const std::vector<ScoredItem>& Sorted();

 private:
  Index k_;
  // Min-heap under RanksBefore: the weakest retained candidate is front().
  std::vector<ScoredItem> heap_;
};

/// Items per ScoreFloor test in SelectTopK.
inline constexpr Index kFloorChunk = 16;

/// True when any of scores[0, kFloorChunk) is >= floor. Kept as a loop (not
/// unrolled) so the compiler emits it as vector compares and one horizontal
/// add; NaN compares false, and TopKHeap::Push drops NaN anyway.
inline bool ChunkReachesFloor(const Real* scores, Real floor) {
  Index hits = 0;
#pragma GCC unroll 1
  for (Index j = 0; j < kFloorChunk; ++j) hits += scores[j] >= floor;
  return hits != 0;
}

/// Offers scores[0, n) — the contiguous items first_item, first_item + 1,
/// ... — to `heap`, keeping only items for which eligible(item) holds. The
/// one top-k selection loop: serving's streamed pass, the evaluator and the
/// kNN graph build all rank a row of scores through it. Whole kFloorChunk
/// runs below the heap's ScoreFloor are skipped with a few vector compares,
/// then MightAccept gates each item before the (typically dearer)
/// predicate. Both filters are bit-neutral: a skipped item would have left
/// the heap unchanged, so the result is exactly pushing every eligible item.
template <typename Eligible>
void SelectTopK(const Real* scores, Index n, Index first_item,
                const Eligible& eligible, TopKHeap* heap) {
  for (Index c0 = 0; c0 < n; c0 += kFloorChunk) {
    const Index c1 = std::min(c0 + kFloorChunk, n);
    if (c1 - c0 == kFloorChunk &&
        !ChunkReachesFloor(scores + c0, heap->ScoreFloor())) {
      continue;
    }
    for (Index c = c0; c < c1; ++c) {
      const Index item = first_item + c;
      if (!heap->MightAccept(item, scores[c]) || !eligible(item)) continue;
      heap->Push(item, scores[c]);
    }
  }
}

}  // namespace firzen

#endif  // FIRZEN_UTIL_RANKING_H_
