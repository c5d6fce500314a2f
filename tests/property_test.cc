// Property-based sweeps (TEST_P) over randomized inputs: autograd ops under
// many shapes, CSR normalization invariants over random graphs, metric
// ordering properties, kNN graph invariants across K, split invariants
// across cold fractions, sharded top-K over random shard layouts, and
// distributed wire-format round trips over random frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "src/data/split.h"
#include "src/eval/metrics.h"
#include "src/eval/serving.h"
#include "src/eval/sharded_serving.h"
#include "src/graph/knn_graph.h"
#include "src/models/scorer.h"
#include "src/serve/wire.h"
#include "src/tensor/csr.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/ops.h"
#include "src/util/ranking.h"
#include "src/util/rng.h"
#include "tests/cell_scorer.h"

namespace firzen {
namespace {

using namespace ops;  // NOLINT(build/namespaces)

// ---- Autograd composite-graph gradcheck across shapes ----

class CompositeGradTest
    : public ::testing::TestWithParam<std::tuple<Index, Index, uint64_t>> {};

TEST_P(CompositeGradTest, DeepCompositeGraphGradientsMatch) {
  const auto [rows, cols, seed] = GetParam();
  Rng rng(seed);
  Matrix ma(rows, cols);
  ma.FillNormal(&rng, 0.7);
  Matrix mw(cols, cols);
  mw.FillNormal(&rng, 0.7);
  Tensor a = Tensor::Variable(std::move(ma));
  Tensor w = Tensor::Variable(std::move(mw));
  auto build = [a, w] {
    // A deliberately tangled graph: reuse, normalization, nonlinearity,
    // reduction — the shape of a real model step.
    Tensor h = Tanh(MatMul(a, w));
    Tensor n = RowL2Normalize(Add(h, a));
    Tensor s = RowSoftmax(MatMul(n, w, false, true));
    return Add(ReduceMean(Mul(s, n)), Scale(SumSquares(w), 1e-3));
  };
  const GradCheckResult result = CheckGradients({a, w}, build, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << "abs=" << result.max_abs_error
                         << " rel=" << result.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CompositeGradTest,
    ::testing::Values(std::make_tuple<Index, Index, uint64_t>(2, 3, 1),
                      std::make_tuple<Index, Index, uint64_t>(5, 4, 2),
                      std::make_tuple<Index, Index, uint64_t>(7, 2, 3),
                      std::make_tuple<Index, Index, uint64_t>(1, 6, 4),
                      std::make_tuple<Index, Index, uint64_t>(6, 6, 5)));

// ---- CSR invariants over random graphs ----

class CsrPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrPropertyTest, SymNormalizedMatchesFormulaAndStaysSymmetric) {
  // Entries of D^{-1/2} A D^{-1/2} must equal a_rc / sqrt(d_r d_c) with
  // degrees taken from the raw value sums, and symmetry must be preserved.
  Rng rng(GetParam());
  std::vector<CooEntry> entries;
  const Index n = 30;
  for (int e = 0; e < 120; ++e) {
    const Index r = rng.UniformInt(n);
    const Index c = rng.UniformInt(n);
    if (r == c) continue;
    const Real v = rng.Uniform(0.1, 2.0);
    entries.push_back({r, c, v});
    entries.push_back({c, r, v});
  }
  const CsrMatrix raw = CsrMatrix::FromCoo(n, n, entries);
  const Matrix raw_dense = raw.ToDense();
  std::vector<Real> degree(static_cast<size_t>(n), 0.0);
  for (Index r = 0; r < n; ++r) {
    for (Index c = 0; c < n; ++c) degree[static_cast<size_t>(r)] += raw_dense(r, c);
  }
  const Matrix dense = raw.SymNormalized().ToDense();
  for (Index r = 0; r < n; ++r) {
    for (Index c = 0; c < n; ++c) {
      EXPECT_NEAR(dense(r, c), dense(c, r), 1e-10);
      if (raw_dense(r, c) > 0.0) {
        EXPECT_NEAR(dense(r, c),
                    raw_dense(r, c) / std::sqrt(degree[static_cast<size_t>(r)] *
                                                degree[static_cast<size_t>(c)]),
                    1e-10);
      }
    }
  }
}

TEST_P(CsrPropertyTest, TransposeOfTransposeIsIdentity) {
  Rng rng(GetParam() + 100);
  std::vector<CooEntry> entries;
  for (int e = 0; e < 60; ++e) {
    entries.push_back({rng.UniformInt(12), rng.UniformInt(17), rng.Normal()});
  }
  const CsrMatrix a = CsrMatrix::FromCoo(12, 17, entries);
  const CsrMatrix att = a.Transposed().Transposed();
  EXPECT_EQ(att.nnz(), a.nnz());
  const Matrix da = a.ToDense();
  const Matrix datt = att.ToDense();
  for (Index i = 0; i < da.size(); ++i) {
    EXPECT_DOUBLE_EQ(da.data()[i], datt.data()[i]);
  }
}

TEST_P(CsrPropertyTest, SpMMLinearity) {
  // A(x + y) == Ax + Ay.
  Rng rng(GetParam() + 200);
  std::vector<CooEntry> entries;
  for (int e = 0; e < 80; ++e) {
    entries.push_back({rng.UniformInt(15), rng.UniformInt(15), rng.Normal()});
  }
  const CsrMatrix a = CsrMatrix::FromCoo(15, 15, entries);
  Matrix x(15, 4);
  Matrix y(15, 4);
  x.FillNormal(&rng, 1.0);
  y.FillNormal(&rng, 1.0);
  Matrix xy = x;
  xy.Add(y);
  Matrix a_xy;
  a.SpMM(xy, &a_xy);
  Matrix ax;
  a.SpMM(x, &ax);
  Matrix ay;
  a.SpMM(y, &ay);
  ax.Add(ay);
  for (Index i = 0; i < ax.size(); ++i) {
    EXPECT_NEAR(a_xy.data()[i], ax.data()[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---- Metric properties ----

class MetricPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricPropertyTest, BoundsAndOrderings) {
  Rng rng(GetParam());
  // Random universe of 50 items, random relevant subset, random ranking.
  std::vector<Index> ranking(50);
  for (Index i = 0; i < 50; ++i) ranking[static_cast<size_t>(i)] = i;
  rng.Shuffle(&ranking);
  ranking.resize(20);
  std::unordered_set<Index> relevant;
  const Index num_rel = 1 + rng.UniformInt(10);
  while (static_cast<Index>(relevant.size()) < num_rel) {
    relevant.insert(rng.UniformInt(50));
  }
  const MetricBundle m = ComputeUserMetrics(ranking, relevant, num_rel, 20);
  // All metrics in [0, 1].
  for (Real v : {m.recall, m.mrr, m.ndcg, m.hit, m.precision}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Orderings: mrr <= hit (first hit implies hit); recall > 0 iff hit.
  EXPECT_LE(m.mrr, m.hit + 1e-12);
  EXPECT_EQ(m.recall > 0.0, m.hit > 0.0);
  EXPECT_EQ(m.precision > 0.0, m.hit > 0.0);
  // NDCG positive iff any hit.
  EXPECT_EQ(m.ndcg > 0.0, m.hit > 0.0);
}

TEST_P(MetricPropertyTest, MovingAHitEarlierNeverDecreasesRankMetrics) {
  Rng rng(GetParam() + 1);
  std::vector<Index> ranking{0, 1, 2, 3, 4, 5, 6, 7};
  std::unordered_set<Index> relevant{5};
  const MetricBundle late = ComputeUserMetrics(ranking, relevant, 1, 8);
  std::swap(ranking[5], ranking[2]);  // move hit from rank 6 to rank 3
  const MetricBundle early = ComputeUserMetrics(ranking, relevant, 1, 8);
  EXPECT_GT(early.mrr, late.mrr);
  EXPECT_GT(early.ndcg, late.ndcg);
  EXPECT_EQ(early.recall, late.recall);  // set metrics unchanged
  EXPECT_EQ(early.hit, late.hit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

// ---- kNN graph invariants across K ----

class KnnSweepTest : public ::testing::TestWithParam<Index> {};

TEST_P(KnnSweepTest, DegreeEqualsKAndDeterministic) {
  const Index k = GetParam();
  Rng rng(77);
  Matrix features(40, 6);
  features.FillNormal(&rng, 1.0);
  KnnGraphOptions options;
  options.top_k = k;
  const CsrMatrix a = BuildItemKnnAdjacency(features, options);
  const CsrMatrix b = BuildItemKnnAdjacency(features, options);
  EXPECT_EQ(a.nnz(), 40 * k);
  // Deterministic construction.
  EXPECT_EQ(a.col_idx(), b.col_idx());
  // Larger K is a superset of smaller K's neighbor sets.
  if (k > 2) {
    KnnGraphOptions smaller = options;
    smaller.top_k = k - 1;
    const CsrMatrix s = BuildItemKnnAdjacency(features, smaller);
    for (Index r = 0; r < 40; ++r) {
      std::set<Index> big;
      for (Index p = a.row_ptr()[r]; p < a.row_ptr()[r + 1]; ++p) {
        big.insert(a.col_idx()[static_cast<size_t>(p)]);
      }
      for (Index p = s.row_ptr()[r]; p < s.row_ptr()[r + 1]; ++p) {
        EXPECT_TRUE(big.count(s.col_idx()[static_cast<size_t>(p)]) > 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnSweepTest,
                         ::testing::Values<Index>(2, 5, 10, 15, 20));

// ---- Split invariants across cold fractions ----

class SplitSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SplitSweepTest, StrictInvariantsHoldForAnyColdFraction) {
  Rng world_rng(123);
  std::vector<Interaction> interactions;
  for (Index u = 0; u < 60; ++u) {
    for (int j = 0; j < 8; ++j) {
      interactions.push_back({u, world_rng.UniformInt(80)});
    }
  }
  Dataset dataset;
  dataset.num_users = 60;
  dataset.num_items = 80;
  SplitOptions options;
  options.cold_fraction = GetParam();
  Rng rng(9);
  ApplyStrictColdSplit(interactions, options, &rng, &dataset);
  dataset.CheckValid();
  // Interaction conservation.
  EXPECT_EQ(interactions.size(),
            dataset.train.size() + dataset.warm_val.size() +
                dataset.warm_test.size() + dataset.cold_val.size() +
                dataset.cold_test.size());
  // Cold val/test within one of each other.
  EXPECT_LE(std::abs(static_cast<long>(dataset.cold_val.size()) -
                     static_cast<long>(dataset.cold_test.size())),
            1);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SplitSweepTest,
                         ::testing::Values(0.1, 0.2, 0.3, 0.5));

// ---- Sharded top-K invariants over random shard layouts ----

// Deterministic score formula shared by the engine's scorer and the
// brute-force reference. Quantized to a coarse grid so score ties are
// frequent (the adversarial case for shard-layout invariance) and salted
// with NaN holes (dropped deterministically by TopKHeap).
Real TrialScore(uint64_t trial_salt, Index user, Index item) {
  const uint64_t h =
      (static_cast<uint64_t>(user) * 2654435761u + trial_salt * 97u +
       static_cast<uint64_t>(item) * 40503u);
  if (h % 11 == 0) return std::nan("");
  return static_cast<Real>(h % 13) - static_cast<Real>(item % 3);
}

class ShardedTopKPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Random shard boundaries (duplicates and end cuts included), random k,
// random exclusion policies, random candidate pools: the merged sharded
// top-K must equal a brute-force sort of the full score row under the
// RanksBefore total order. 12 seeds x 10 trials = 120 randomized trials.
TEST_P(ShardedTopKPropertyTest, MergedTopKEqualsBruteForceFullRowSort) {
  Rng rng(GetParam() * 7919 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    const Index num_items = 20 + rng.UniformInt(100);
    const Index num_users = 3 + rng.UniformInt(8);
    const uint64_t salt = GetParam() * 1000 + static_cast<uint64_t>(trial);

    Dataset dataset;
    dataset.num_users = num_users;
    dataset.num_items = num_items;
    dataset.is_cold_item.assign(static_cast<size_t>(num_items), false);
    for (Index i = 0; i < num_items; ++i) {
      if (rng.UniformInt(4) == 0) {
        dataset.is_cold_item[static_cast<size_t>(i)] = true;
      }
    }
    for (Index u = 0; u < num_users; ++u) {
      for (int t = 0; t < 3; ++t) {
        dataset.train.push_back({u, rng.UniformInt(num_items)});
      }
    }

    // Random shard layout: 0-6 interior cuts, unsorted draws sorted here,
    // duplicates kept (empty shards are legal).
    ServingEngineOptions options;
    options.num_shards = 2;  // the layout when no cut is drawn
    const Index num_cuts = rng.UniformInt(7);
    for (Index c = 0; c < num_cuts; ++c) {
      options.boundaries.push_back(rng.UniformInt(num_items + 1));
    }
    std::sort(options.boundaries.begin(), options.boundaries.end());
    options.item_block = 1 + rng.UniformInt(num_items + 8);

    auto scorer = std::make_unique<CellScorer>(
        [salt](Index user, Index item) { return TrialScore(salt, user, item); },
        num_items);
    const ServingEngine engine(std::move(scorer), dataset, options);

    // One random request per user: random k, exclusion, pool, cold flag.
    std::vector<RecRequest> requests;
    for (Index u = 0; u < num_users; ++u) {
      RecRequest request;
      request.user = u;
      request.k = 1 + rng.UniformInt(num_items + 3);
      const Index mode = rng.UniformInt(3);
      request.exclusion = mode == 0   ? ExclusionPolicy::kTrainSeen
                          : mode == 1 ? ExclusionPolicy::kCustom
                                      : ExclusionPolicy::kNone;
      if (request.exclusion == ExclusionPolicy::kCustom) {
        for (int j = 0; j < 6; ++j) {
          request.exclude.push_back(rng.UniformInt(num_items));
        }
      }
      if (rng.UniformInt(2) == 0) {
        const Index pool_size = 1 + rng.UniformInt(num_items);
        for (Index j = 0; j < pool_size; ++j) {
          request.candidates.push_back(rng.UniformInt(num_items));
        }
      }
      request.cold_only = rng.UniformInt(4) == 0;
      requests.push_back(std::move(request));
    }
    const std::vector<RecResponse> responses = engine.RecommendBatch(requests);

    // Brute force: score the full row from the same formula, filter
    // eligibility, sort under RanksBefore, truncate to k.
    const auto seen = dataset.TrainItemsByUser();
    for (size_t i = 0; i < requests.size(); ++i) {
      const RecRequest& request = requests[i];
      std::vector<Index> pool;
      if (request.candidates.empty()) {
        for (Index item = 0; item < num_items; ++item) pool.push_back(item);
      } else {
        pool = request.candidates;
        std::sort(pool.begin(), pool.end());
        pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
      }
      std::vector<Index> exclude;
      if (request.exclusion == ExclusionPolicy::kTrainSeen) {
        exclude = seen[static_cast<size_t>(request.user)];
      } else if (request.exclusion == ExclusionPolicy::kCustom) {
        exclude = request.exclude;
        std::sort(exclude.begin(), exclude.end());
      }
      std::vector<ScoredItem> expected;
      for (Index item : pool) {
        if (request.cold_only &&
            !dataset.is_cold_item[static_cast<size_t>(item)]) {
          continue;
        }
        if (std::binary_search(exclude.begin(), exclude.end(), item)) {
          continue;
        }
        const Real score = TrialScore(salt, request.user, item);
        if (std::isnan(score)) continue;
        expected.push_back({item, score});
      }
      std::sort(expected.begin(), expected.end(), RanksBefore);
      if (static_cast<Index>(expected.size()) > request.k) {
        expected.resize(static_cast<size_t>(request.k));
      }
      ASSERT_EQ(responses[i].items.size(), expected.size())
          << "seed=" << GetParam() << " trial=" << trial << " request=" << i;
      for (size_t j = 0; j < expected.size(); ++j) {
        ASSERT_EQ(responses[i].items[j].item, expected[j].item)
            << "seed=" << GetParam() << " trial=" << trial << " request=" << i
            << " rank=" << j;
        ASSERT_EQ(responses[i].items[j].score, expected[j].score)
            << "seed=" << GetParam() << " trial=" << trial << " request=" << i
            << " rank=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedTopKPropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

// ---- Distributed wire-format round-trip over random frames ----

class WireRoundTripPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Random request batches and reply batches — arbitrary 64-bit field
// values, arbitrary score BIT PATTERNS (including NaN payloads and
// infinities: the format is transparent; semantic NaN filtering happens
// before serialization) — must survive encode/decode unchanged. This is
// the property behind the distributed determinism contract: if any value
// could bend on the wire, byte-identity to the in-process oracle would be
// unprovable. 10 seeds x 20 trials = 200 randomized round trips.
TEST_P(WireRoundTripPropertyTest, RandomBatchesSurviveTheWireBitExactly) {
  Rng rng(GetParam() * 6271 + 3);
  const auto random_i64 = [&rng] {
    return static_cast<int64_t>(rng.Next());
  };
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<RecRequest> requests(static_cast<size_t>(rng.UniformInt(6)));
    for (RecRequest& request : requests) {
      request.user = random_i64();
      request.k = random_i64();
      for (Index j = rng.UniformInt(5); j > 0; --j) {
        request.candidates.push_back(random_i64());
      }
      const Index mode = rng.UniformInt(3);
      request.exclusion = mode == 0   ? ExclusionPolicy::kTrainSeen
                          : mode == 1 ? ExclusionPolicy::kCustom
                                      : ExclusionPolicy::kNone;
      for (Index j = rng.UniformInt(4); j > 0; --j) {
        request.exclude.push_back(random_i64());
      }
      request.cold_only = rng.Bernoulli(0.5);
      request.deadline_us = rng.Bernoulli(0.3) ? -1 : random_i64();
      request.tenant = random_i64();
    }
    const std::vector<uint8_t> encoded = wire::EncodeRequestBatch(requests);
    std::vector<RecRequest> decoded;
    ASSERT_TRUE(
        wire::DecodeRequestBatch(encoded.data(), encoded.size(), &decoded));
    ASSERT_EQ(decoded.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(decoded[i].user, requests[i].user);
      EXPECT_EQ(decoded[i].k, requests[i].k);
      EXPECT_EQ(decoded[i].candidates, requests[i].candidates);
      EXPECT_EQ(decoded[i].exclusion, requests[i].exclusion);
      EXPECT_EQ(decoded[i].exclude, requests[i].exclude);
      EXPECT_EQ(decoded[i].cold_only, requests[i].cold_only);
      EXPECT_EQ(decoded[i].deadline_us, requests[i].deadline_us);
      EXPECT_EQ(decoded[i].tenant, requests[i].tenant);
    }
    // Every truncated prefix of a valid payload fails decode (sampled:
    // exhaustive prefixes are covered for fixed cases in wire_test.cc).
    if (!encoded.empty()) {
      const size_t cut = static_cast<size_t>(
          rng.UniformInt(static_cast<Index>(encoded.size())));
      EXPECT_FALSE(wire::DecodeRequestBatch(encoded.data(), cut, &decoded));
    }

    std::vector<wire::ShardReply> replies(
        static_cast<size_t>(rng.UniformInt(5)));
    for (wire::ShardReply& reply : replies) {
      reply.user = random_i64();
      for (Index j = rng.UniformInt(8); j > 0; --j) {
        const uint64_t bits = rng.Next();
        Real score;
        std::memcpy(&score, &bits, sizeof(score));
        reply.items.push_back({random_i64(), score});
      }
    }
    const std::vector<uint8_t> reply_encoded = wire::EncodeReplyBatch(replies);
    std::vector<wire::ShardReply> reply_decoded;
    ASSERT_TRUE(wire::DecodeReplyBatch(reply_encoded.data(),
                                       reply_encoded.size(), &reply_decoded));
    ASSERT_EQ(reply_decoded.size(), replies.size());
    for (size_t i = 0; i < replies.size(); ++i) {
      EXPECT_EQ(reply_decoded[i].user, replies[i].user);
      ASSERT_EQ(reply_decoded[i].items.size(), replies[i].items.size());
      for (size_t j = 0; j < replies[i].items.size(); ++j) {
        EXPECT_EQ(reply_decoded[i].items[j].item, replies[i].items[j].item);
        // Bit comparison, not ==: random bit patterns include NaNs.
        uint64_t got_bits, want_bits;
        std::memcpy(&got_bits, &reply_decoded[i].items[j].score,
                    sizeof(got_bits));
        std::memcpy(&want_bits, &replies[i].items[j].score,
                    sizeof(want_bits));
        EXPECT_EQ(got_bits, want_bits);
      }
    }
    if (!reply_encoded.empty()) {
      const size_t cut = static_cast<size_t>(
          rng.UniformInt(static_cast<Index>(reply_encoded.size())));
      EXPECT_FALSE(
          wire::DecodeReplyBatch(reply_encoded.data(), cut, &reply_decoded));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace firzen
