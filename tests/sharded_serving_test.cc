// Shard-invariance suite: a sharded ServingEngine must answer every request
// bit-identically (same items, same scores, same order) to the unsharded
// ServingEngine reference for ANY shard count — the contract
// that makes horizontal catalog partitioning observably free. Covers the
// shard-layout helpers, the RanksBefore/MergeTopK total order (including
// all-ties blocks, where a nondeterministic tie-break would differ across
// shard layouts), every request shape (full catalog, candidate pools,
// kTrainSeen/kCustom/kNone exclusion, cold-only, k > pool, duplicate
// candidates, NaN scores) and every registered model.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "src/data/synthetic.h"
#include "src/eval/serving.h"
#include "src/eval/sharded_serving.h"
#include "src/models/registry.h"
#include "src/models/serialize.h"
#include "src/util/logging.h"
#include "src/util/ranking.h"
#include "src/util/rng.h"
#include "tests/cell_scorer.h"

namespace firzen {
namespace {

Matrix RandomEmb(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(&rng, 1.0);
  return m;
}

// ---- Shard layout helpers ----

TEST(ShardLayoutTest, MakeShardRangesIsContiguousAndBalanced) {
  for (Index num_items : {Index{1}, Index{7}, Index{64}, Index{101}}) {
    for (Index shards : {Index{1}, Index{2}, Index{3}, Index{7}, num_items,
                         num_items + 5}) {
      const auto ranges = MakeShardRanges(num_items, shards);
      ASSERT_FALSE(ranges.empty());
      // Over-asking clamps to one item per shard.
      EXPECT_EQ(static_cast<Index>(ranges.size()), std::min(shards, num_items));
      Index begin = 0;
      Index min_size = num_items;
      Index max_size = 0;
      for (const ItemBlock& range : ranges) {
        EXPECT_EQ(range.begin, begin);
        begin = range.end;
        min_size = std::min(min_size, range.size());
        max_size = std::max(max_size, range.size());
      }
      EXPECT_EQ(begin, num_items);
      EXPECT_LE(max_size - min_size, 1);
    }
  }
}

TEST(ShardLayoutTest, RangesFromBoundariesCoverAndAllowEmptyShards) {
  const auto ranges = RangesFromBoundaries(10, {0, 3, 3, 9});
  ASSERT_EQ(ranges.size(), 5u);
  EXPECT_EQ(ranges[0].size(), 0);  // cut at 0 -> leading empty shard
  EXPECT_EQ(ranges[2].size(), 0);  // duplicate cut -> empty shard
  Index begin = 0;
  for (const ItemBlock& range : ranges) {
    EXPECT_EQ(range.begin, begin);
    begin = range.end;
  }
  EXPECT_EQ(begin, 10);
}

// ---- The total order and the merge ----

// Regression (latent tie-break hazard): equal scores must rank by ascending
// item id everywhere — an all-ties block pushed in ANY order retains and
// orders the same items. Without the (score, item) total order, the heap's
// internal layout (and therefore the shard layout) would leak into
// responses.
TEST(TopKHeapTest, AllTiesBlockRanksByItemIdForAnyPushOrder) {
  const std::vector<std::vector<Index>> push_orders = {
      {0, 1, 2, 3, 4, 5, 6, 7},
      {7, 6, 5, 4, 3, 2, 1, 0},
      {4, 0, 6, 2, 7, 1, 5, 3},
  };
  for (const auto& order : push_orders) {
    TopKHeap heap(4);
    for (Index item : order) heap.Push(item, 1.25);
    const auto& sorted = heap.Sorted();
    ASSERT_EQ(sorted.size(), 4u);
    for (Index j = 0; j < 4; ++j) {
      EXPECT_EQ(sorted[static_cast<size_t>(j)].item, j) << "order case";
      EXPECT_EQ(sorted[static_cast<size_t>(j)].score, 1.25);
    }
  }
}

TEST(MergeTopKTest, MergeIsIndependentOfShardLayoutIncludingTies) {
  // Eight items, scores with a three-way tie at the top.
  const std::vector<ScoredItem> all = {{0, 2.0}, {1, 5.0}, {2, 5.0},
                                       {3, 1.0}, {4, 5.0}, {5, 3.0},
                                       {6, 0.5}, {7, 3.0}};
  const std::vector<ScoredItem> expected = MergeTopK(all, 5);
  ASSERT_EQ(expected.size(), 5u);
  // Ties rank by ascending item id: 1, 2, 4 (all 5.0), then 5, 7 (3.0).
  EXPECT_EQ(expected[0].item, 1);
  EXPECT_EQ(expected[1].item, 2);
  EXPECT_EQ(expected[2].item, 4);
  EXPECT_EQ(expected[3].item, 5);
  EXPECT_EQ(expected[4].item, 7);

  // Any partition of the items into per-shard lists merges identically.
  const std::vector<std::vector<size_t>> layouts = {
      {4, 4}, {1, 3, 4}, {2, 2, 2, 2}, {8}};
  for (const auto& layout : layouts) {
    std::vector<ScoredItem> entries;
    size_t begin = 0;
    for (size_t size : layout) {
      // Shard-local top-k via the heap, exactly as the engine produces it.
      TopKHeap heap(5);
      for (size_t j = begin; j < begin + size; ++j) {
        heap.Push(all[j].item, all[j].score);
      }
      const auto& top = heap.Sorted();
      entries.insert(entries.end(), top.begin(), top.end());
      begin += size;
    }
    const auto merged = MergeTopK(std::move(entries), 5);
    ASSERT_EQ(merged.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(merged[j].item, expected[j].item);
      EXPECT_EQ(merged[j].score, expected[j].score);
    }
  }
}

// ---- Shard-count invariance over a static catalog ----

constexpr Index kUsers = 20;
constexpr Index kItems = 97;  // prime: no shard count divides it evenly
constexpr Index kDim = 8;

Dataset ShardDataset() {
  Dataset dataset;
  dataset.num_users = kUsers;
  dataset.num_items = kItems;
  dataset.is_cold_item.assign(static_cast<size_t>(kItems), false);
  for (Index i = 2 * kItems / 3; i < kItems; ++i) {
    dataset.is_cold_item[static_cast<size_t>(i)] = true;
  }
  Rng rng(5);
  for (Index u = 0; u < kUsers; ++u) {
    for (int t = 0; t < 5; ++t) {
      dataset.train.push_back({u, rng.UniformInt(2 * kItems / 3)});
    }
  }
  return dataset;
}

// Every request shape from the serving contract, crossing shard boundaries.
std::vector<RecRequest> ShardRequests() {
  std::vector<RecRequest> requests;
  Rng rng(17);
  for (Index u = 0; u < kUsers; ++u) {
    RecRequest full;
    full.user = u;
    full.k = 9;
    requests.push_back(full);

    RecRequest pool;
    pool.user = u;
    pool.k = 4;
    pool.exclusion = ExclusionPolicy::kNone;
    for (int j = 0; j < 18; ++j) pool.candidates.push_back(rng.UniformInt(kItems));
    pool.candidates.push_back(pool.candidates.front());  // guaranteed dup
    requests.push_back(pool);

    RecRequest cold;
    cold.user = u;
    cold.k = 6;
    cold.cold_only = true;
    requests.push_back(cold);

    RecRequest custom;
    custom.user = u;
    custom.k = 5;
    custom.exclusion = ExclusionPolicy::kCustom;
    for (int j = 0; j < 12; ++j) custom.exclude.push_back(rng.UniformInt(kItems));
    requests.push_back(custom);

    RecRequest short_pool;  // k far larger than the pool
    short_pool.user = u;
    short_pool.k = 50;
    short_pool.exclusion = ExclusionPolicy::kNone;
    short_pool.candidates = {static_cast<Index>(u % kItems),
                             static_cast<Index>((u * 31 + 7) % kItems),
                             static_cast<Index>((u * 13 + 2) % kItems)};
    requests.push_back(short_pool);
  }
  return requests;
}

void ExpectBitIdentical(const std::vector<RecResponse>& got,
                        const std::vector<RecResponse>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].user, want[i].user) << label << " request " << i;
    ASSERT_EQ(got[i].items.size(), want[i].items.size())
        << label << " request " << i;
    for (size_t j = 0; j < want[i].items.size(); ++j) {
      ASSERT_EQ(got[i].items[j].item, want[i].items[j].item)
          << label << " request " << i << " rank " << j;
      ASSERT_EQ(got[i].items[j].score, want[i].items[j].score)
          << label << " request " << i << " rank " << j;
    }
  }
}

std::vector<Index> ShardCounts() {
  return {1, 2, 3, 7, kItems, kItems + 12};  // over-asking clamps
}

TEST(ShardedEngineTest, DotProductResponsesInvariantAcrossShardCounts) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("sharded", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const ServingEngine reference(&model, dataset);
  const std::vector<RecRequest> requests = ShardRequests();
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);

  for (Index shards : ShardCounts()) {
    ServingEngineOptions options;
    options.num_shards = shards;
    const ServingEngine engine(&model, dataset, options);
    EXPECT_EQ(engine.num_shards(), std::min<Index>(shards, kItems));
    ExpectBitIdentical(engine.RecommendBatch(requests), want,
                       "shards=" + std::to_string(shards) + " batch");
    // Single-request path merges identically. (Scores are bit-identical
    // across user-batch sizes too — the Gemm batch-size-invariance
    // contract, pinned by scorer_parity_test — so comparing singles
    // against the batch reference would also hold; same-shape comparison
    // kept for symmetry.)
    for (size_t i = 0; i < requests.size(); i += 7) {
      const RecResponse single = engine.Recommend(requests[i]);
      ExpectBitIdentical({single}, {reference.Recommend(requests[i])},
                         "shards=" + std::to_string(shards) + " single " +
                             std::to_string(i));
    }
  }
}

TEST(ShardedEngineTest, SmallItemBlockAndExplicitBoundariesStayInvariant) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("sharded", RandomEmb(kUsers, kDim, 3),
                          RandomEmb(kItems, kDim, 4));
  const ServingEngine reference(&model, dataset);
  const std::vector<RecRequest> requests = ShardRequests();
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);

  // Panels narrower than shards and shards narrower than panels both hold;
  // so do degenerate explicit layouts with empty shards.
  for (Index item_block : {Index{5}, Index{16}, Index{4096}}) {
    ServingEngineOptions options;
    options.num_shards = 3;
    options.item_block = item_block;
    const ServingEngine engine(&model, dataset, options);
    ExpectBitIdentical(engine.RecommendBatch(requests), want,
                       "item_block=" + std::to_string(item_block));
  }
  ServingEngineOptions uneven;
  uneven.boundaries = {0, 1, 1, 50, 96};  // empty shards + singleton shards
  const ServingEngine engine(&model, dataset, uneven);
  EXPECT_EQ(engine.num_shards(), 6);
  ExpectBitIdentical(engine.RecommendBatch(requests), want, "boundaries");
}

// An all-ties catalog is the adversarial case for shard invariance: every
// ranking decision is a tie-break, so any heap-order or merge-order leak
// produces a different permutation per shard layout.
TEST(ShardedEngineTest, AllTiesCatalogRanksIdenticallyForAnyShardCount) {
  Dataset dataset = ShardDataset();
  auto make_scorer = [] {
    return std::make_unique<CellScorer>([](Index, Index) { return 0.5; },
                                        kItems);
  };
  const ServingEngine reference(make_scorer(), dataset);
  const std::vector<RecRequest> requests = ShardRequests();
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);
  // Sanity: ties resolve to ascending item ids in the reference itself.
  ASSERT_GE(want[0].items.size(), 2u);
  EXPECT_LT(want[0].items[0].item, want[0].items[1].item);

  for (Index shards : ShardCounts()) {
    ServingEngineOptions options;
    options.num_shards = shards;
    const ServingEngine engine(make_scorer(), dataset, options);
    ExpectBitIdentical(engine.RecommendBatch(requests), want,
                       "all-ties shards=" + std::to_string(shards));
  }
}

// NaN scores are dropped deterministically on every shard, never merged.
TEST(ShardedEngineTest, NaNScoresNeverSurviveTheMergeForAnyShardCount) {
  Dataset dataset = ShardDataset();
  dataset.train.clear();  // keep all items eligible
  auto make_scorer = [] {
    return std::make_unique<CellScorer>(
        [](Index user, Index item) {
          return item % 5 == 0
                     ? std::nan("")
                     : static_cast<Real>((user * 29 + item * 11) % 37);
        },
        kItems);
  };
  const ServingEngine reference(make_scorer(), dataset);
  std::vector<RecRequest> requests = ShardRequests();
  // Add pools that consist mostly of NaN-scored items.
  for (Index u = 0; u < 4; ++u) {
    RecRequest nan_pool;
    nan_pool.user = u;
    nan_pool.k = 10;
    nan_pool.exclusion = ExclusionPolicy::kNone;
    nan_pool.candidates = {0, 5, 10, 15, 20, 3, 5, 0};  // dups + NaN items
    requests.push_back(nan_pool);
  }
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);
  for (const RecResponse& response : want) {
    for (const Recommendation& rec : response.items) {
      EXPECT_TRUE(std::isfinite(rec.score));
    }
  }
  for (Index shards : ShardCounts()) {
    ServingEngineOptions options;
    options.num_shards = shards;
    const ServingEngine engine(make_scorer(), dataset, options);
    ExpectBitIdentical(engine.RecommendBatch(requests), want,
                       "nan shards=" + std::to_string(shards));
  }
}

// Regression: the explicit-pool plan (which requests score together, with
// which user batch) must come from the FULL pools, not from what
// intersects each shard. 36 of the 40 pools live entirely in the first
// half of the catalog, so most shards see a slice of only a few of them.
// Per-cell scores are batch-size-invariant, so every shard count must
// answer bit-identically to the unsharded engine.
TEST(ShardedEngineTest, ShardLocalPoolsNeverShrinkTheScoringUserBatch) {
  const Dataset dataset = ShardDataset();
  // Wide embeddings: long dot products are where the Gemm paths' rounding
  // can actually diverge.
  StaticRecommender model("sharded", RandomEmb(kUsers, 64, 7),
                          RandomEmb(kItems, 64, 8));
  const ServingEngine reference(&model, dataset);
  const Index half = kItems / 2;
  std::vector<RecRequest> requests;
  Rng rng(41);
  for (int j = 0; j < 40; ++j) {
    RecRequest pool;
    pool.user = static_cast<Index>(j) % kUsers;
    pool.k = 6;
    pool.exclusion = ExclusionPolicy::kNone;
    const bool spans_catalog = j % 10 == 0;  // 4 of 40 touch the upper half
    for (int c = 0; c < 12; ++c) {
      pool.candidates.push_back(spans_catalog ? rng.UniformInt(kItems)
                                              : rng.UniformInt(half));
    }
    requests.push_back(std::move(pool));
  }
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);
  for (Index shards : {Index{2}, Index{3}, Index{7}}) {
    ServingEngineOptions options;
    options.num_shards = shards;
    const ServingEngine engine(&model, dataset, options);
    ExpectBitIdentical(engine.RecommendBatch(requests), want,
                       "batch-pinning shards=" + std::to_string(shards));
  }
}

// Explicit pools score exactly the cells their requests asked for: two
// overlapping, unequal pools (one with a duplicate) and one disjoint pool
// cost the sum of their deduplicated sizes, at any shard count — never
// requests x |union of pools|.
TEST(ShardedEngineTest, ExplicitPoolsScoreExactlyTheRequestedCells) {
  const Dataset dataset = ShardDataset();
  std::vector<RecRequest> requests(3);
  requests[0].candidates = {1, 5, 9, 20, 40, 60, 80};
  requests[1].candidates = {5, 9, 33, 50, 3, 3};  // overlaps pool 0
  requests[2].candidates = {90, 91, 92, 95};      // disjoint
  constexpr size_t kRequestedCells = 7 + 5 + 4;  // deduplicated pool sizes
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user = static_cast<Index>(i);
    requests[i].k = 4;
  }
  for (Index shards : {Index{1}, Index{2}, Index{3}}) {
    std::atomic<size_t> cells{0};
    auto scorer = std::make_unique<CellScorer>(
        [&](Index user, Index item) {
          cells.fetch_add(1, std::memory_order_relaxed);
          return static_cast<Real>((user * 31 + item * 17) % kItems);
        },
        kItems);
    ServingEngineOptions options;
    options.num_shards = shards;
    const ServingEngine engine(std::move(scorer), dataset, options);
    const std::vector<RecResponse> got = engine.RecommendBatch(requests);
    EXPECT_EQ(cells.load(), kRequestedCells) << "shards=" << shards;
    for (const RecResponse& response : got) {
      EXPECT_FALSE(response.items.empty()) << "shards=" << shards;
    }
  }
}

// Sibling sharded engines share one ServingSharedState instead of
// deep-copying exclusion lists per shard or per engine.
TEST(ShardedEngineTest, SiblingEnginesShareOneState) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("sharded", RandomEmb(kUsers, kDim, 5),
                          RandomEmb(kItems, kDim, 6));
  ServingEngineOptions options;
  options.num_shards = 3;
  const ServingEngine engine(&model, dataset, options);
  ASSERT_NE(engine.shared_state(), nullptr);

  ServingEngineOptions sibling_options;
  sibling_options.num_shards = 5;
  const ServingEngine sibling(model.MakeScorer(), engine.shared_state(),
                              sibling_options);
  EXPECT_EQ(sibling.shared_state().get(), engine.shared_state().get());
  // And a single-engine sibling over the very same state.
  const ServingEngine flat(model.MakeScorer(), engine.shared_state());

  const std::vector<RecRequest> requests = ShardRequests();
  const auto want = flat.RecommendBatch(requests);
  ExpectBitIdentical(engine.RecommendBatch(requests), want, "3-shard sibling");
  ExpectBitIdentical(sibling.RecommendBatch(requests), want,
                     "5-shard sibling");
}

// ---- Every registered model ----

const Dataset& TrainedDataset() {
  static const Dataset* dataset = [] {
    return new Dataset(GenerateSyntheticDataset(BeautySConfig(0.12)));
  }();
  return *dataset;
}

class ShardedModelInvarianceTest : public ::testing::TestWithParam<ModelInfo> {
};

// For every registered model: sharded responses are bit-identical to the
// single-engine reference for shard counts {1, 2, 3, 7, num_items}, across
// full-catalog, pooled, custom-exclusion, and cold-only requests.
TEST_P(ShardedModelInvarianceTest, ResponsesMatchSingleEngineBitExact) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = TrainedDataset();
  auto model = CreateModel(GetParam().name);
  ASSERT_NE(model, nullptr) << GetParam().name;
  TrainOptions train;
  train.embedding_dim = 8;
  train.epochs = 2;
  train.eval_every = 8;
  train.batch_size = 256;
  train.seed = 321;
  model->Fit(dataset, train);

  std::vector<RecRequest> requests;
  Rng rng(23);
  for (Index u = 0; u < 6; ++u) {
    const Index user = (u * 11) % dataset.num_users;
    RecRequest full;
    full.user = user;
    full.k = 10;
    requests.push_back(full);

    RecRequest pool;
    pool.user = user;
    pool.k = 5;
    pool.exclusion = ExclusionPolicy::kNone;
    for (int j = 0; j < 25; ++j) {
      pool.candidates.push_back(rng.UniformInt(dataset.num_items));
    }
    pool.candidates.push_back(pool.candidates.front());
    requests.push_back(pool);

    RecRequest cold;
    cold.user = user;
    cold.k = 8;
    cold.cold_only = true;
    cold.exclusion = ExclusionPolicy::kNone;
    requests.push_back(cold);

    RecRequest custom;
    custom.user = user;
    custom.k = 7;
    custom.exclusion = ExclusionPolicy::kCustom;
    for (int j = 0; j < 9; ++j) {
      custom.exclude.push_back(rng.UniformInt(dataset.num_items));
    }
    requests.push_back(custom);
  }

  const ServingEngine reference(model.get(), dataset);
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);
  for (Index shards :
       {Index{1}, Index{2}, Index{3}, Index{7}, dataset.num_items}) {
    ServingEngineOptions options;
    options.num_shards = shards;
    const ServingEngine engine(model.get(), dataset, options);
    ExpectBitIdentical(
        engine.RecommendBatch(requests), want,
        GetParam().name + " shards=" + std::to_string(shards));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ShardedModelInvarianceTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace firzen
