#include "src/eval/sharded_serving.h"

#include <algorithm>
#include <utility>

#include "src/eval/admission.h"
#include "src/eval/serving_internal.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

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

ShardedServingEngine::ShardedServingEngine(const Recommender* model,
                                           const Dataset& dataset,
                                           ShardedServingOptions options)
    : ShardedServingEngine(serving_internal::MintScorer(model,
                                                        options.precision),
                           dataset, options) {}

ShardedServingEngine::ShardedServingEngine(std::unique_ptr<Scorer> scorer,
                                           const Dataset& dataset,
                                           ShardedServingOptions options)
    : scorer_(std::move(scorer)), options_(std::move(options)) {
  FIRZEN_CHECK(scorer_ != nullptr);
  num_items_ = scorer_->num_items();
  if (dataset.num_items != 0) {
    FIRZEN_CHECK_EQ(dataset.num_items, num_items_);
  }
  state_ = ServingSharedState::FromDataset(dataset, num_items_);
  FIRZEN_CHECK_EQ(static_cast<Index>(state_->is_cold.size()), num_items_);
  BuildShards();
}

ShardedServingEngine::ShardedServingEngine(
    std::unique_ptr<Scorer> scorer,
    std::shared_ptr<const ServingSharedState> state,
    ShardedServingOptions options)
    : scorer_(std::move(scorer)),
      state_(std::move(state)),
      options_(std::move(options)) {
  FIRZEN_CHECK(scorer_ != nullptr);
  FIRZEN_CHECK(state_ != nullptr);
  num_items_ = scorer_->num_items();
  FIRZEN_CHECK_EQ(static_cast<Index>(state_->is_cold.size()), num_items_);
  BuildShards();
}

void ShardedServingEngine::BuildShards() {
  FIRZEN_CHECK_GT(options_.item_block, 0);
  ranges_ = options_.boundaries.empty()
                ? MakeShardRanges(num_items_, options_.num_shards)
                : RangesFromBoundaries(num_items_, options_.boundaries);
  shards_.reserve(ranges_.size());
  for (const ItemBlock& range : ranges_) {
    shards_.push_back(std::make_unique<const ItemRangeScorer>(
        scorer_.get(), range.begin, range.end));
  }
  if (options_.pool == nullptr) options_.pool = ThreadPool::Global();
}

RecResponse ShardedServingEngine::Recommend(const RecRequest& request) const {
  return RecommendBatch({request})[0];
}

std::vector<RecResponse> ShardedServingEngine::RecommendBatch(
    const std::vector<RecRequest>& requests) const {
  if (admission_ != nullptr) return admission_->RecommendBatch(requests);
  return RecommendBatchDirect(requests);
}

std::vector<RecResponse> ShardedServingEngine::RecommendBatchDirect(
    const std::vector<RecRequest>& requests) const {
  std::vector<RecResponse> responses(requests.size());
  if (requests.empty()) return responses;

  // Resolve exclusions, candidate pools, and the explicit-pool batching
  // plan ONCE, in global item ids — every shard executes the same plan, so
  // the per-shard streams cannot disagree about eligibility or user-batch
  // composition, and the prep cost is paid once for any shard count.
  const serving_internal::PreparedBatch batch =
      serving_internal::PrepareBatch(requests, *state_, num_items_);

  // Per-(shard, request) bounded heaps: shards share the base scorer and
  // the prepared plan but no mutable scratch, so they can rank their
  // disjoint item slices in parallel.
  const Index num_shards = static_cast<Index>(ranges_.size());
  std::vector<std::vector<TopKHeap>> shard_heaps(
      static_cast<size_t>(num_shards));
  for (auto& heaps : shard_heaps) {
    heaps.reserve(requests.size());
    for (const RecRequest& request : requests) heaps.emplace_back(request.k);
  }

  // Where the parallelism goes is a throughput choice only — per-shard
  // heaps are disjoint and per-cell scores partition-invariant, so both
  // placements below produce bit-identical responses. With at least one
  // shard per worker, an outer shard-parallel loop is the parallelism and
  // each shard's fused pass runs inline on its worker; with fewer shards
  // than workers, shards run one after another and each fused pass shards
  // its item tiles across the pool. Either way every worker leases its own
  // arena from arenas_.
  const auto rank_shard = [&](Index s) {
    serving_internal::RankRequestsInRange(
        *shards_[static_cast<size_t>(s)], ranges_[static_cast<size_t>(s)],
        requests, batch, *state_, options_.item_block, options_.pool,
        &arenas_, &shard_heaps[static_cast<size_t>(s)]);
  };
  if (num_shards >= static_cast<Index>(options_.pool->num_threads())) {
    ParallelFor(
        options_.pool, num_shards,
        [&](Index begin, Index end) {
          for (Index s = begin; s < end; ++s) rank_shard(s);
        },
        /*min_shard_size=*/1);
  } else {
    for (Index s = 0; s < num_shards; ++s) rank_shard(s);
  }

  // Merge: per request, sort the concatenated per-shard top-k lists under
  // RanksBefore and keep the first k — the unique global top-k.
  for (size_t i = 0; i < requests.size(); ++i) {
    std::vector<ScoredItem> entries;
    for (Index s = 0; s < num_shards; ++s) {
      const auto& top = shard_heaps[static_cast<size_t>(s)][i].Sorted();
      entries.insert(entries.end(), top.begin(), top.end());
    }
    const std::vector<ScoredItem> merged =
        MergeTopK(std::move(entries), requests[i].k);
    responses[i].user = requests[i].user;
    responses[i].items.reserve(merged.size());
    for (const ScoredItem& e : merged) {
      responses[i].items.push_back({e.item, e.score});
    }
  }
  return responses;
}

}  // namespace firzen
