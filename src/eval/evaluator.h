// All-ranking evaluation protocol (paper §IV-A.2): for each user with at
// least one relevant item in the split, rank ALL candidate items (no sampled
// negatives) and average Top-K metrics. Candidate sets:
//   * warm setting: every warm item the user has not interacted with in
//     training;
//   * cold setting: every strict cold item.
// Scoring streams item blocks through the block Scorer API, and each user's
// row of scores selects its top-K through SelectTopK (src/util/ranking.h),
// the loop every ranking path shares. Peak memory is O(512 users *
// item_block): the full users x items score matrix never materializes.
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
  /// Streamed scoring panel width (items per ScoreBlock call).
  Index item_block = 8192;
  /// Pool for the fused ranking/metric loops; nullptr = serial. Scoring
  /// kernels parallelize over ThreadPool::Global() regardless.
  ThreadPool* pool = nullptr;
};

/// Averaged metrics plus the evaluated-user count.
struct EvalResult {
  MetricBundle metrics;
  Index num_users = 0;
};

/// Evaluates `scorer` against `split` under the given setting. Results are
/// bit-identical for any item_block / pool configuration: per-item scores
/// are batch-size-invariant (the Gemm A * B^T contract,
/// src/tensor/matrix.h), the top-K under RanksBefore is unique, and the
/// per-user metrics are summed in a fixed order (users within each batch of
/// 512, then the batches in order) whatever the pool.
EvalResult EvaluateRanking(const Dataset& dataset,
                           const std::vector<Interaction>& split,
                           EvalSetting setting, const Scorer& scorer,
                           const EvalOptions& options = {});

/// Pretty one-line summary "R=.. M=.. N=.. H=.. P=.." in percentage points.
std::string FormatEvalResult(const EvalResult& result);

}  // namespace firzen

#endif  // FIRZEN_EVAL_EVALUATOR_H_
