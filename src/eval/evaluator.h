// All-ranking evaluation protocol (paper §IV-A.2): for each user with at
// least one relevant item in the split, rank ALL candidate items (no sampled
// negatives) and average Top-K metrics. Candidate sets:
//   * warm setting: every warm item the user has not interacted with in
//     training;
//   * cold setting: every strict cold item.
// Scoring streams through the block Scorer API fused with bounded top-K
// selection, so peak memory is O(user_batch * item_block) — the full
// users x items score matrix never materializes.
#ifndef FIRZEN_EVAL_EVALUATOR_H_
#define FIRZEN_EVAL_EVALUATOR_H_

#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/eval/metrics.h"
#include "src/models/scorer.h"
#include "src/util/thread_pool.h"

namespace firzen {

enum class EvalSetting { kWarm, kCold };

struct EvalOptions {
  Index k = 20;
  Index user_batch = 512;
  /// Streamed scoring panel width (items per ScoreBlock call).
  Index item_block = 8192;
  /// Pool for the fused ranking/metric loops; nullptr = serial. Scoring
  /// kernels parallelize over ThreadPool::Global() regardless.
  ThreadPool* pool = nullptr;
  /// Partition the catalog into this many contiguous shards and rank each
  /// through a per-shard scorer view, merging per-user per-shard top-k
  /// lists under the serving total order (src/eval/sharded_serving.h) —
  /// the same shard/merge machinery a sharded ServingEngine uses online, so
  /// offline metrics exercise the sharded code path. Results are
  /// bit-identical for any value (clamped to [1, num_items]).
  Index num_shards = 1;
};

/// Averaged metrics plus the evaluated-user count.
struct EvalResult {
  MetricBundle metrics;
  Index num_users = 0;
};

/// Evaluates `scorer` against `split` under the given setting. Results are
/// bit-identical for any user_batch / item_block / pool / num_shards
/// configuration: per-item scores are batch-size-invariant (the Gemm
/// A * B^T contract, src/tensor/matrix.h), so even the ragged final user
/// batch cannot shift a metric by an ulp.
EvalResult EvaluateRanking(const Dataset& dataset,
                           const std::vector<Interaction>& split,
                           EvalSetting setting, const Scorer& scorer,
                           const EvalOptions& options = {});

/// Pretty one-line summary "R=.. M=.. N=.. H=.. P=.." in percentage points.
std::string FormatEvalResult(const EvalResult& result);

}  // namespace firzen

#endif  // FIRZEN_EVAL_EVALUATOR_H_
