// Bounded min-heap top-K selection shared by the all-ranking evaluator and
// the online-serving index. Replaces partial_sort-over-all-items: O(n log k)
// with a k-entry scratch buffer instead of O(n log n) over a full copy of
// the candidate scores.
#ifndef FIRZEN_EVAL_TOPK_H_
#define FIRZEN_EVAL_TOPK_H_

#include <limits>
#include <vector>

#include "src/util/common.h"
// ScoredItem and RanksBefore — THE ranking total order — live in the util
// layer (src/util/ranking.h) so lower layers can share them; this header
// re-exports them for all historical includers.
#include "src/util/ranking.h"

namespace firzen {

/// Reusable bounded top-k selector. Ordering is deterministic: higher score
/// first, ties broken by lower item id (RanksBefore above) — identical to
/// the evaluator's historical partial_sort comparator. Intended as
/// per-thread scratch in batched ranking loops: construct once, then
/// Reset()/Push()/TakeSorted() per user.
class TopKHeap {
 public:
  explicit TopKHeap(Index k);

  Index k() const { return k_; }

  /// Clears the heap for the next user; keeps the allocated scratch.
  void Reset() { heap_.clear(); }

  /// Offers one candidate. Kept iff it beats the current k-th best. NaN
  /// scores are dropped deterministically (they rank below every real
  /// score); letting them in would break Better's strict weak ordering.
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
  // RanksBefore as the min-heap comparator, so the weakest retained
  // candidate sits at heap_.front().
  static bool Better(const ScoredItem& a, const ScoredItem& b) {
    return RanksBefore(a, b);
  }

  Index k_;
  std::vector<ScoredItem> heap_;
};

}  // namespace firzen

#endif  // FIRZEN_EVAL_TOPK_H_
