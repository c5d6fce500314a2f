// Int8 serving bit-identity suite (ctest label `quant`): for a fixed
// catalog and precision = kInt8, every serving configuration must produce
// byte-identical responses — shard counts {1, 2, 3, 7}, user batch sizes
// {1, 32, 33, 256}, pool sizes {1, 4}. The reference is the single
// unsharded ServingEngine at kInt8. This holds BY CONSTRUCTION (int8x int8
// products accumulate exactly in int32, so partitioning can't move an
// ulp), and this suite is what keeps that construction honest: any future
// "optimization" that re-quantizes per shard, per block, or per batch
// breaks these assertions immediately.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/eval/serving.h"
#include "src/eval/sharded_serving.h"
#include "src/models/serialize.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

constexpr Index kUsers = 300;  // >= the largest batch size under test
constexpr Index kItems = 97;   // prime: no shard count divides it evenly
constexpr Index kDim = 24;

Matrix RandomEmb(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(&rng, 1.0);
  return m;
}

const StaticRecommender& QuantModel() {
  static const StaticRecommender* model = new StaticRecommender(
      "static-int8", RandomEmb(kUsers, kDim, 91), RandomEmb(kItems, kDim, 92));
  return *model;
}

Dataset QuantDataset() {
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

// Every request shape from the serving contract for one user: full catalog,
// explicit pool with a guaranteed duplicate, and the cold-only shelf.
void AppendRequestsFor(Index u, Rng* rng, std::vector<RecRequest>* requests) {
  RecRequest full;
  full.user = u;
  full.k = 9;
  requests->push_back(full);

  RecRequest pool;
  pool.user = u;
  pool.k = 4;
  pool.exclusion = ExclusionPolicy::kNone;
  for (int j = 0; j < 18; ++j) pool.candidates.push_back(rng->UniformInt(kItems));
  pool.candidates.push_back(pool.candidates.front());  // guaranteed dup
  requests->push_back(pool);

  RecRequest cold;
  cold.user = u;
  cold.k = 6;
  cold.cold_only = true;
  requests->push_back(cold);
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

// The single-engine int8 reference every configuration must reproduce.
std::vector<RecResponse> ReferenceResponses(
    const std::vector<RecRequest>& requests) {
  const Dataset dataset = QuantDataset();
  ServingEngineOptions options;
  options.precision = ScoringPrecision::kInt8;
  const ServingEngine engine(&QuantModel(), dataset, options);
  std::vector<RecResponse> responses;
  responses.reserve(requests.size());
  for (const RecRequest& request : requests) {
    responses.push_back(engine.Recommend(request));
  }
  return responses;
}

TEST(QuantServingTest, Int8IsBitIdenticalAcrossShardCountsAndPools) {
  const Dataset dataset = QuantDataset();
  std::vector<RecRequest> requests;
  Rng rng(17);
  for (Index u = 0; u < 20; ++u) AppendRequestsFor(u, &rng, &requests);
  const std::vector<RecResponse> want = ReferenceResponses(requests);

  for (const Index shards : {Index{1}, Index{2}, Index{3}, Index{7}}) {
    for (const int pool_threads : {1, 4}) {
      ThreadPool pool(pool_threads);
      ServingEngineOptions options;
      options.num_shards = shards;
      options.pool = &pool;
      options.precision = ScoringPrecision::kInt8;
      const ServingEngine engine(&QuantModel(), dataset, options);
      const std::vector<RecResponse> got = engine.RecommendBatch(requests);
      ExpectBitIdentical(got, want,
                         "shards=" + std::to_string(shards) +
                             " pool=" + std::to_string(pool_threads));
    }
  }
}

// Batch-size invariance: the same request answered inside batches of 1, 32,
// 33 (just past the arena's user-batch quantization cache boundary cases),
// and 256 must come back bit-identical. Batches are built from distinct
// users with one full-catalog request each, so position r of every batch
// prefix names the same request.
TEST(QuantServingTest, Int8IsBitIdenticalAcrossUserBatchSizes) {
  const Dataset dataset = QuantDataset();
  std::vector<RecRequest> all_requests;
  for (Index u = 0; u < 256; ++u) {
    RecRequest req;
    req.user = u;
    req.k = 9;
    all_requests.push_back(req);
  }
  const std::vector<RecResponse> want = ReferenceResponses(all_requests);

  ServingEngineOptions options;
  options.precision = ScoringPrecision::kInt8;
  const ServingEngine engine(&QuantModel(), dataset, options);
  for (const size_t batch : {size_t{1}, size_t{32}, size_t{33}, size_t{256}}) {
    for (size_t begin = 0; begin < all_requests.size(); begin += batch) {
      const size_t end = std::min(begin + batch, all_requests.size());
      const std::vector<RecRequest> slice(all_requests.begin() + begin,
                                          all_requests.begin() + end);
      const std::vector<RecResponse> got = engine.RecommendBatch(slice);
      ASSERT_EQ(got.size(), slice.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ExpectBitIdentical({got[i]}, {want[begin + i]},
                           "batch=" + std::to_string(batch) + " begin=" +
                               std::to_string(begin));
      }
    }
  }

  // And the same batches through a sharded engine: batch size and shard
  // layout compose without breaking a bit.
  ThreadPool pool(4);
  ServingEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  sharded_options.pool = &pool;
  sharded_options.precision = ScoringPrecision::kInt8;
  const ServingEngine sharded(&QuantModel(), dataset, sharded_options);
  for (const size_t batch : {size_t{33}, size_t{256}}) {
    for (size_t begin = 0; begin < all_requests.size(); begin += batch) {
      const size_t end = std::min(begin + batch, all_requests.size());
      const std::vector<RecRequest> slice(all_requests.begin() + begin,
                                          all_requests.begin() + end);
      const std::vector<RecResponse> got = sharded.RecommendBatch(slice);
      for (size_t i = 0; i < got.size(); ++i) {
        ExpectBitIdentical({got[i]}, {want[begin + i]},
                           "sharded batch=" + std::to_string(batch));
      }
    }
  }
}

// fp32 and int8 must rank DIFFERENT scores through the SAME machinery: the
// int8 engine's scores are dequantized int32 dots, not the fp32 dots. Pin
// that the precision option actually changes the scorer (a silently-ignored
// flag would pass every invariance test above while serving fp32).
TEST(QuantServingTest, Int8PrecisionActuallyEngages) {
  const Dataset dataset = QuantDataset();
  RecRequest req;
  req.user = 3;
  req.k = kItems;  // full ranking, no truncation
  req.exclusion = ExclusionPolicy::kNone;

  ServingEngineOptions fp32_options;  // default precision
  const ServingEngine fp32_engine(&QuantModel(), dataset, fp32_options);
  ServingEngineOptions int8_options;
  int8_options.precision = ScoringPrecision::kInt8;
  const ServingEngine int8_engine(&QuantModel(), dataset, int8_options);

  const RecResponse fp32_resp = fp32_engine.Recommend(req);
  const RecResponse int8_resp = int8_engine.Recommend(req);
  ASSERT_EQ(fp32_resp.items.size(), int8_resp.items.size());
  bool any_score_differs = false;
  for (size_t j = 0; j < fp32_resp.items.size(); ++j) {
    if (fp32_resp.items[j].score != int8_resp.items[j].score) {
      any_score_differs = true;
      break;
    }
  }
  EXPECT_TRUE(any_score_differs)
      << "int8 responses carry fp32 scores: --precision is not wired";
}

}  // namespace
}  // namespace firzen
