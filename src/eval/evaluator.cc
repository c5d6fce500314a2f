#include "src/eval/evaluator.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/eval/sharded_serving.h"
#include "src/eval/topk.h"
#include "src/util/check.h"
#include "src/util/table_printer.h"
#include "src/util/thread_annotations.h"

namespace firzen {

EvalResult EvaluateRanking(const Dataset& dataset,
                           const std::vector<Interaction>& split,
                           EvalSetting setting, const Scorer& scorer,
                           const EvalOptions& options) {
  FIRZEN_CHECK_GT(options.k, 0);
  FIRZEN_CHECK_GT(options.user_batch, 0);
  FIRZEN_CHECK_GT(options.item_block, 0);
  const Index num_items = dataset.num_items;
  FIRZEN_CHECK_EQ(scorer.num_items(), num_items);

  // Ground truth per user.
  std::unordered_map<Index, std::unordered_set<Index>> relevant_by_user;
  for (const Interaction& x : split) {
    relevant_by_user[x.user].insert(x.item);
  }
  std::vector<Index> eval_users;
  eval_users.reserve(relevant_by_user.size());
  // Hash order never escapes: the keys are sorted before any use.
  // firzen-lint: allow(unordered-iteration)
  for (const auto& [user, items] : relevant_by_user) {
    (void)items;
    eval_users.push_back(user);
  }
  std::sort(eval_users.begin(), eval_users.end());

  EvalResult result;
  if (eval_users.empty()) return result;

  // Candidate membership is a per-item predicate (cold bitmap + per-user
  // sorted train lists) instead of a materialized pool, so the streamed
  // ranking below can test items block-by-block.
  const bool warm_setting = setting == EvalSetting::kWarm;
  FIRZEN_CHECK(!(warm_setting ? dataset.WarmItems() : dataset.ColdItems())
                    .empty());
  std::vector<std::vector<Index>> train_items;
  if (warm_setting) {
    train_items = dataset.TrainItemsByUser();
  }
  const std::vector<bool>& is_cold = dataset.is_cold_item;
  FIRZEN_CHECK_EQ(static_cast<Index>(is_cold.size()), num_items);

  MetricBundle total;
  Index counted = 0;
  Mutex total_mu;

  // Catalog shards: the offline protocol ranks through the same
  // shard-partition + per-shard-view + merge machinery a sharded online
  // ServingEngine uses, so sharded serving and sharded evaluation
  // exercise one code path. num_shards == 1 is the degenerate single-range
  // layout; results are bit-identical for any shard count (per-item scores
  // are partition-invariant and the merge order RanksBefore is total).
  const std::vector<ItemBlock> shard_ranges =
      MakeShardRanges(num_items, options.num_shards);
  std::vector<std::unique_ptr<const ItemRangeScorer>> shard_views;
  shard_views.reserve(shard_ranges.size());
  for (const ItemBlock& range : shard_ranges) {
    shard_views.push_back(std::make_unique<const ItemRangeScorer>(
        &scorer, range.begin, range.end));
  }

  Matrix panel;  // user_batch x item_block scoring panel, reused per block
  ScoringArena arena;  // this call's scoring scratch: scorers stay shareable
  for (size_t begin = 0; begin < eval_users.size();
       begin += static_cast<size_t>(options.user_batch)) {
    const size_t end = std::min(
        begin + static_cast<size_t>(options.user_batch), eval_users.size());
    const std::vector<Index> batch(eval_users.begin() + begin,
                                   eval_users.begin() + end);
    const Index batch_rows = static_cast<Index>(batch.size());

    // In-candidate-pool test for (user row r, item i).
    auto eligible = [&](Index r, Index i) {
      if (warm_setting) {
        if (is_cold[static_cast<size_t>(i)]) return false;
        const auto& seen = train_items[static_cast<size_t>(
            batch[static_cast<size_t>(r)])];
        return !std::binary_search(seen.begin(), seen.end(), i);
      }
      return static_cast<bool>(is_cold[static_cast<size_t>(i)]);
    };

    // Per shard, stream item blocks fusing scoring with per-user bounded
    // top-K: the heaps persist across blocks, so only the current panel is
    // live. Shards run sequentially here (user batches already saturate
    // the pool); each streams its own range through its view.
    std::vector<std::vector<TopKHeap>> shard_heaps(shard_ranges.size());
    for (auto& heaps : shard_heaps) {
      heaps.reserve(batch.size());
      for (size_t r = 0; r < batch.size(); ++r) heaps.emplace_back(options.k);
    }
    for (size_t s = 0; s < shard_ranges.size(); ++s) {
      const ItemBlock& range = shard_ranges[s];
      const ItemRangeScorer& view = *shard_views[s];
      std::vector<TopKHeap>& heaps = shard_heaps[s];
      for (Index block_begin = 0; block_begin < range.size();
           block_begin += options.item_block) {
        // Local view coordinates; global item = range.begin + local.
        const ItemBlock block{block_begin,
                              std::min(block_begin + options.item_block,
                                       range.size())};
        panel.ResizeUninitialized(batch_rows, block.size());
        view.ScoreBlock(batch, block, MatrixView(&panel), &arena);
        ParallelFor(
            options.pool, batch_rows,
            [&](Index row_begin, Index row_end) {
              for (Index r = row_begin; r < row_end; ++r) {
                TopKHeap& heap = heaps[static_cast<size_t>(r)];
                const Real* row = panel.row(r);
                for (Index local = block.begin; local < block.end; ++local) {
                  const Index i = range.begin + local;
                  if (eligible(r, i)) heap.Push(i, row[local - block.begin]);
                }
              }
            },
            /*min_shard_size=*/16);
      }
    }

    ParallelFor(
        options.pool, batch_rows,
        [&](Index row_begin, Index row_end) {
          MetricBundle local;
          Index local_count = 0;
          for (Index r = row_begin; r < row_end; ++r) {
            const Index user = batch[static_cast<size_t>(r)];
            // find() not operator[]: this map is shared across worker
            // threads and must stay strictly read-only here.
            const auto& relevant = relevant_by_user.find(user)->second;
            // Relevant items inside the candidate pool.
            Index num_relevant = 0;
            for (Index item : relevant) {
              if (eligible(r, item)) ++num_relevant;
            }
            if (num_relevant == 0) continue;

            // Merge this user's per-shard top-k lists — the same reduction
            // a sharded ServingEngine applies to responses. One shard (the
            // default) is already the merged answer: skip the copy + sort.
            std::vector<ScoredItem> merged;
            if (shard_heaps.size() > 1) {
              for (auto& heaps : shard_heaps) {
                const auto& shard_top =
                    heaps[static_cast<size_t>(r)].Sorted();
                merged.insert(merged.end(), shard_top.begin(),
                              shard_top.end());
              }
              merged = MergeTopK(std::move(merged), options.k);
            }
            const std::vector<ScoredItem>& sorted =
                shard_heaps.size() > 1
                    ? merged
                    : shard_heaps[0][static_cast<size_t>(r)].Sorted();
            std::vector<Index> top;
            top.reserve(sorted.size());
            for (const ScoredItem& e : sorted) top.push_back(e.item);
            local += ComputeUserMetrics(top, relevant, num_relevant,
                                        options.k);
            ++local_count;
          }
          MutexLock lock(total_mu);
          total += local;
          counted += local_count;
        },
        /*min_shard_size=*/16);
  }

  if (counted > 0) total /= static_cast<Real>(counted);
  result.metrics = total;
  result.num_users = counted;
  return result;
}

std::string FormatEvalResult(const EvalResult& result) {
  const MetricBundle& m = result.metrics;
  return "R@20=" + FormatReal(100.0 * m.recall) +
         " M@20=" + FormatReal(100.0 * m.mrr) +
         " N@20=" + FormatReal(100.0 * m.ndcg) +
         " H@20=" + FormatReal(100.0 * m.hit) +
         " P@20=" + FormatReal(100.0 * m.precision) +
         " (users=" + std::to_string(result.num_users) + ")";
}

}  // namespace firzen
