#include "src/eval/sharded_serving.h"

#include <algorithm>

#include "src/util/check.h"

namespace firzen {

std::vector<ItemBlock> MakeShardRanges(Index num_items, Index num_shards) {
  FIRZEN_CHECK_GE(num_items, 0);
  num_shards = std::max<Index>(std::min(num_shards, num_items), 1);
  const Index base = num_items / num_shards;
  const Index extra = num_items % num_shards;
  std::vector<ItemBlock> ranges;
  ranges.reserve(static_cast<size_t>(num_shards));
  Index begin = 0;
  for (Index s = 0; s < num_shards; ++s) {
    const Index size = base + (s < extra ? 1 : 0);
    ranges.push_back({begin, begin + size});
    begin += size;
  }
  FIRZEN_CHECK_EQ(begin, num_items);
  return ranges;
}

std::vector<ItemBlock> RangesFromBoundaries(
    Index num_items, const std::vector<Index>& boundaries) {
  FIRZEN_CHECK_GE(num_items, 0);
  std::vector<ItemBlock> ranges;
  ranges.reserve(boundaries.size() + 1);
  Index begin = 0;
  for (Index cut : boundaries) {
    FIRZEN_CHECK_GE(cut, begin);
    FIRZEN_CHECK_LE(cut, num_items);
    ranges.push_back({begin, cut});
    begin = cut;
  }
  ranges.push_back({begin, num_items});
  return ranges;
}

std::vector<ScoredItem> MergeTopK(std::vector<ScoredItem> entries, Index k) {
  FIRZEN_CHECK_GT(k, 0);
  std::sort(entries.begin(), entries.end(), RanksBefore);
  if (static_cast<Index>(entries.size()) > k) {
    entries.resize(static_cast<size_t>(k));
  }
  return entries;
}

}  // namespace firzen
