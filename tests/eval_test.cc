// Evaluation layer tests: metric formulas against hand-computed values, the
// all-ranking protocol with candidate masking, harmonic means, and the
// t-SNE / mixing-statistics utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/eval/harmonic.h"
#include "src/eval/metrics.h"
#include "src/eval/tsne.h"
#include "tests/cell_scorer.h"

namespace firzen {
namespace {

TEST(MetricsTest, PerfectRankingScoresOne) {
  const std::vector<Index> top{7, 8};
  const std::unordered_set<Index> relevant{7, 8};
  const MetricBundle m = ComputeUserMetrics(top, relevant, 2, 20);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 1.0);
  EXPECT_DOUBLE_EQ(m.hit, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 2.0 / 20.0);
}

TEST(MetricsTest, MissScoresZero) {
  const MetricBundle m =
      ComputeUserMetrics({1, 2, 3}, {9}, /*num_relevant=*/1, 20);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.mrr, 0.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 0.0);
  EXPECT_DOUBLE_EQ(m.hit, 0.0);
}

TEST(MetricsTest, MrrUsesFirstHitRank) {
  // Relevant item at rank 3 (1-indexed).
  const MetricBundle m =
      ComputeUserMetrics({5, 6, 7, 8}, {7}, 1, 20);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0 / 3.0);
}

TEST(MetricsTest, NdcgHandComputed) {
  // Hits at ranks 1 and 3 of top-3, 2 relevant total.
  const MetricBundle m = ComputeUserMetrics({4, 5, 6}, {4, 6}, 2, 3);
  const Real dcg = 1.0 / std::log2(2.0) + 1.0 / std::log2(4.0);
  const Real idcg = 1.0 / std::log2(2.0) + 1.0 / std::log2(3.0);
  EXPECT_NEAR(m.ndcg, dcg / idcg, 1e-12);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_NEAR(m.precision, 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, RecallCapsAtCandidateRelevants) {
  // 5 relevant but only K=2 cutoff.
  const MetricBundle m = ComputeUserMetrics({1, 2}, {1, 2, 3, 4, 5}, 5, 2);
  EXPECT_DOUBLE_EQ(m.recall, 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 1.0);  // ideal for the cutoff
}

// Deterministic evaluator fixture: scores = -item id (item 0 ranks first).
Dataset TinyEvalDataset() {
  Dataset d;
  d.name = "tiny";
  d.num_users = 2;
  d.num_items = 6;
  d.is_cold_item = {false, false, false, false, true, true};
  d.train = {{0, 0}, {1, 1}};
  d.warm_test = {{0, 1}, {1, 2}};
  d.cold_test = {{0, 4}, {1, 5}};
  return d;
}

CellScorer DescendingByItemId() {
  return CellScorer([](Index, Index item) { return -static_cast<Real>(item); },
                    /*num_items=*/6);
}

TEST(EvaluatorTest, WarmSettingMasksTrainItems) {
  const Dataset d = TinyEvalDataset();
  const EvalResult result = EvaluateRanking(d, d.warm_test,
                                            EvalSetting::kWarm,
                                            DescendingByItemId(), {});
  EXPECT_EQ(result.num_users, 2);
  // User 0: candidates {1,2,3} (item 0 is in train), relevant {1} ranked
  // first -> mrr 1. User 1: candidates {0,2,3}, relevant {2} ranked second
  // (item 0 scores higher) -> mrr 1/2.
  EXPECT_NEAR(result.metrics.mrr, (1.0 + 0.5) / 2.0, 1e-12);
  EXPECT_NEAR(result.metrics.hit, 1.0, 1e-12);
}

TEST(EvaluatorTest, ColdSettingUsesOnlyColdCandidates) {
  const Dataset d = TinyEvalDataset();
  const EvalResult result = EvaluateRanking(d, d.cold_test,
                                            EvalSetting::kCold,
                                            DescendingByItemId(), {});
  // User 0: cold candidates {4,5}, relevant {4} ranks first -> mrr 1.
  // User 1: relevant {5} ranks second -> mrr 1/2.
  EXPECT_NEAR(result.metrics.mrr, 0.75, 1e-12);
}

TEST(EvaluatorTest, UsersWithoutRelevantAreSkipped) {
  Dataset d = TinyEvalDataset();
  // User 0's only warm-test item is in their train set -> no candidates
  // remain relevant.
  d.train = {{0, 1}, {1, 1}};
  const EvalResult result = EvaluateRanking(d, d.warm_test,
                                            EvalSetting::kWarm,
                                            DescendingByItemId(), {});
  EXPECT_EQ(result.num_users, 1);
}

TEST(EvaluatorTest, EmptySplitYieldsZeroUsers) {
  const Dataset d = TinyEvalDataset();
  const EvalResult result =
      EvaluateRanking(d, {}, EvalSetting::kWarm, DescendingByItemId(), {});
  EXPECT_EQ(result.num_users, 0);
  EXPECT_EQ(result.metrics.mrr, 0.0);
}

void ExpectSameMetrics(const EvalResult& want, const EvalResult& got,
                       const std::string& label) {
  EXPECT_EQ(want.num_users, got.num_users) << label;
  EXPECT_EQ(want.metrics.recall, got.metrics.recall) << label;
  EXPECT_EQ(want.metrics.mrr, got.metrics.mrr) << label;
  EXPECT_EQ(want.metrics.ndcg, got.metrics.ndcg) << label;
  EXPECT_EQ(want.metrics.hit, got.metrics.hit) << label;
  EXPECT_EQ(want.metrics.precision, got.metrics.precision) << label;
}

// Per-user metrics are reduced in eval_users order, so every pool size
// reproduces the serial bits exactly, run after run. The dataset has more
// than 512 warm users, so the reduction spans several user batches.
TEST(EvaluatorTest, ParallelMatchesSerial) {
  const Dataset d = GenerateSyntheticDataset(BeautySConfig(0.8));
  Rng rng(3);
  Matrix fake_user(d.num_users, 8);
  fake_user.FillNormal(&rng, 1.0);
  Matrix fake_item(d.num_items, 8);
  fake_item.FillNormal(&rng, 1.0);
  const DotProductScorer scorer(fake_user, fake_item);
  for (const EvalSetting setting : {EvalSetting::kWarm, EvalSetting::kCold}) {
    const std::vector<Interaction>& split =
        setting == EvalSetting::kWarm ? d.warm_test : d.cold_test;
    const std::string name = setting == EvalSetting::kWarm ? "warm" : "cold";
    const EvalResult serial = EvaluateRanking(d, split, setting, scorer, {});
    if (setting == EvalSetting::kWarm) {
      EXPECT_GT(serial.num_users, 512);
    }
    for (const int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      EvalOptions parallel;
      parallel.pool = &pool;
      const int repeats = threads == 4 ? 20 : 1;
      for (int rep = 0; rep < repeats; ++rep) {
        ExpectSameMetrics(
            serial, EvaluateRanking(d, split, setting, scorer, parallel),
            name + " pool=" + std::to_string(threads) +
                " rep=" + std::to_string(rep));
      }
    }
  }
}

TEST(EvaluatorTest, ResultsIndependentOfItemBlockSize) {
  const Dataset d = GenerateSyntheticDataset(BeautySConfig(0.15));
  Rng rng(4);
  Matrix fake_user(d.num_users, 8);
  fake_user.FillNormal(&rng, 1.0);
  Matrix fake_item(d.num_items, 8);
  fake_item.FillNormal(&rng, 1.0);
  const DotProductScorer scorer(fake_user, fake_item);
  EvalOptions reference;  // default item_block covers the whole catalog
  const EvalResult a =
      EvaluateRanking(d, d.warm_test, EvalSetting::kWarm, scorer, reference);
  for (Index block : {Index{1}, Index{7}, Index{64}}) {
    EvalOptions streamed;
    streamed.item_block = block;
    const EvalResult b =
        EvaluateRanking(d, d.warm_test, EvalSetting::kWarm, scorer, streamed);
    EXPECT_EQ(a.num_users, b.num_users) << "block=" << block;
    EXPECT_DOUBLE_EQ(a.metrics.mrr, b.metrics.mrr) << "block=" << block;
    EXPECT_DOUBLE_EQ(a.metrics.recall, b.metrics.recall) << "block=" << block;
    EXPECT_DOUBLE_EQ(a.metrics.ndcg, b.metrics.ndcg) << "block=" << block;
  }
}

TEST(HarmonicTest, FormulaAndShortBarrelPenalty) {
  EXPECT_DOUBLE_EQ(HarmonicMean(4.0, 4.0), 4.0);
  EXPECT_NEAR(HarmonicMean(1.0, 100.0), 2.0 * 100.0 / 101.0, 1e-12);
  EXPECT_DOUBLE_EQ(HarmonicMean(0.0, 100.0), 0.0);
  // HM <= arithmetic mean always.
  EXPECT_LE(HarmonicMean(3.0, 9.0), 6.0);
}

TEST(TsneTest, ProducesFinite2DEmbedding) {
  Rng rng(9);
  Matrix x(60, 10);
  x.FillNormal(&rng, 1.0);
  TsneOptions options;
  options.iterations = 50;
  const Matrix y = TsneEmbed(x, options);
  ASSERT_EQ(y.rows(), 60);
  ASSERT_EQ(y.cols(), 2);
  for (Index i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(std::isfinite(y.data()[i]));
  }
}

TEST(TsneTest, SeparatesWellSeparatedClusters) {
  Rng rng(10);
  Matrix x(40, 6);
  for (Index i = 0; i < 40; ++i) {
    const Real center = i < 20 ? 20.0 : -20.0;
    for (Index c = 0; c < 6; ++c) x(i, c) = center + rng.Normal();
  }
  TsneOptions options;
  options.iterations = 150;
  options.perplexity = 10.0;
  const Matrix y = TsneEmbed(x, options);
  // Mean intra-cluster distance far below inter-cluster centroid distance.
  Real c0[2] = {0, 0};
  Real c1[2] = {0, 0};
  for (Index i = 0; i < 20; ++i) {
    c0[0] += y(i, 0) / 20;
    c0[1] += y(i, 1) / 20;
  }
  for (Index i = 20; i < 40; ++i) {
    c1[0] += y(i, 0) / 20;
    c1[1] += y(i, 1) / 20;
  }
  const Real inter = std::hypot(c0[0] - c1[0], c0[1] - c1[1]);
  Real intra = 0.0;
  for (Index i = 0; i < 20; ++i) {
    intra += std::hypot(y(i, 0) - c0[0], y(i, 1) - c0[1]) / 20.0;
  }
  EXPECT_GT(inter, intra);
}

TEST(MixingStatsTest, DetectsIsolatedVsMixedCold) {
  Rng rng(11);
  const Index n = 60;
  std::vector<bool> is_cold(n, false);
  for (Index i = 40; i < n; ++i) is_cold[static_cast<size_t>(i)] = true;

  // Isolated: cold items live in a far-away cluster.
  Matrix isolated(n, 4);
  for (Index i = 0; i < n; ++i) {
    const Real center = is_cold[static_cast<size_t>(i)] ? 50.0 : 0.0;
    for (Index c = 0; c < 4; ++c) isolated(i, c) = center + rng.Normal();
  }
  // Mixed: identical distribution.
  Matrix mixed(n, 4);
  mixed.FillNormal(&rng, 1.0);

  const MixingStats iso = ComputeMixingStats(isolated, is_cold, 5);
  const MixingStats mix = ComputeMixingStats(mixed, is_cold, 5);
  EXPECT_LT(iso.cold_warm_knn_mix, 0.3);
  EXPECT_GT(mix.cold_warm_knn_mix, 0.5);
  EXPECT_GT(iso.centroid_distance_ratio, mix.centroid_distance_ratio);
}

}  // namespace
}  // namespace firzen
