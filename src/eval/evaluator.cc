#include "src/eval/evaluator.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/util/check.h"
#include "src/util/ranking.h"
#include "src/util/table_printer.h"

namespace firzen {
namespace {

// Users scored per ScoreBlock panel.
constexpr size_t kUserBatch = 512;

}  // namespace

EvalResult EvaluateRanking(const Dataset& dataset,
                           const std::vector<Interaction>& split,
                           EvalSetting setting, const Scorer& scorer,
                           const EvalOptions& options) {
  FIRZEN_CHECK_GT(options.k, 0);
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

  // Per-user metrics at each user's position in eval_users; users with no
  // relevant candidate stay uncounted. Workers write disjoint slots.
  std::vector<MetricBundle> user_metrics(eval_users.size());
  std::vector<char> counted_user(eval_users.size(), 0);

  Matrix panel;  // kUserBatch x item_block scoring panel, reused per block
  ScoringArena arena;  // this call's scoring scratch: scorers stay shareable
  for (size_t begin = 0; begin < eval_users.size(); begin += kUserBatch) {
    const size_t end = std::min(begin + kUserBatch, eval_users.size());
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

    // Stream item blocks, fusing scoring with per-user bounded top-K: the
    // heaps persist across blocks, so only the current panel is live.
    std::vector<TopKHeap> heaps(batch.size(), TopKHeap(options.k));
    for (Index block_begin = 0; block_begin < num_items;
         block_begin += options.item_block) {
      const ItemBlock block{block_begin,
                            std::min(block_begin + options.item_block,
                                     num_items)};
      panel.ResizeUninitialized(batch_rows, block.size());
      scorer.ScoreBlock(batch, block, MatrixView(&panel), &arena);
      ParallelFor(
          options.pool, batch_rows,
          [&](Index row_begin, Index row_end) {
            for (Index r = row_begin; r < row_end; ++r) {
              SelectTopK(
                  panel.row(r), block.size(), block.begin,
                  [&](Index i) { return eligible(r, i); },
                  &heaps[static_cast<size_t>(r)]);
            }
          },
          /*min_shard_size=*/16);
    }

    ParallelFor(
        options.pool, batch_rows,
        [&](Index row_begin, Index row_end) {
          for (Index r = row_begin; r < row_end; ++r) {
            const size_t u = begin + static_cast<size_t>(r);
            // find() not operator[]: this map is shared across worker
            // threads and must stay strictly read-only here.
            const auto& relevant =
                relevant_by_user.find(eval_users[u])->second;
            // Relevant items inside the candidate pool.
            Index num_relevant = 0;
            for (Index item : relevant) {
              if (eligible(r, item)) ++num_relevant;
            }
            if (num_relevant == 0) continue;
            std::vector<Index> top;
            for (const ScoredItem& e : heaps[static_cast<size_t>(r)].Sorted()) {
              top.push_back(e.item);
            }
            user_metrics[u] =
                ComputeUserMetrics(top, relevant, num_relevant, options.k);
            counted_user[u] = 1;
          }
        },
        /*min_shard_size=*/16);
  }

  // Fixed-order reduction: each user batch sums its users in eval_users
  // order, then the batch sums add up in batch order. The order never
  // depends on the pool, so neither do the metric bits.
  MetricBundle total;
  Index counted = 0;
  for (size_t begin = 0; begin < eval_users.size(); begin += kUserBatch) {
    MetricBundle batch_sum;
    for (size_t u = begin;
         u < std::min(begin + kUserBatch, eval_users.size()); ++u) {
      if (!counted_user[u]) continue;
      batch_sum += user_metrics[u];
      ++counted;
    }
    total += batch_sum;
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
