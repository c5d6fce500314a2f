#include "src/util/ranking.h"

#include <cmath>

#include "src/util/check.h"

namespace firzen {

TopKHeap::TopKHeap(Index k) : k_(k) {
  FIRZEN_CHECK_GT(k, 0);
  heap_.reserve(static_cast<size_t>(k) + 1);
}

void TopKHeap::Push(Index item, Real score) {
  // NaN compares false against everything, which breaks RanksBefore's
  // strict weak ordering — push_heap/sort_heap over a NaN-laden buffer is UB
  // and can emit garbage rankings. Deterministic policy: a NaN score ranks
  // below every real score, i.e. it is never retained, so drop it here.
  if (std::isnan(score)) return;
  const ScoredItem e{item, score};
  if (static_cast<Index>(heap_.size()) < k_) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
  } else if (RanksBefore(e, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), RanksBefore);
    heap_.back() = e;
    std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
  }
}

const std::vector<ScoredItem>& TopKHeap::Sorted() {
  // sort_heap under RanksBefore leaves the sequence in worst-first order of
  // the min-heap comparator, i.e. best-first for the caller.
  std::sort_heap(heap_.begin(), heap_.end(), RanksBefore);
  return heap_;
}

}  // namespace firzen
