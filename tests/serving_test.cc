// Serving and serialization tests: embedding save/load round trips, the
// StaticRecommender scoring contract, and ServingEngine request/response
// semantics (exclusion policies, candidate pools, cold shelf, fused-stream
// parity with the materialized legacy path).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/data/synthetic.h"
#include "src/eval/serving.h"
#include "src/models/bpr_mf.h"
#include "src/models/registry.h"
#include "src/models/serialize.h"
#include "src/util/logging.h"
#include "src/util/ranking.h"
#include "src/util/thread_pool.h"
#include "tests/cell_scorer.h"

namespace firzen {
namespace {

Matrix RandomEmb(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(&rng, 1.0);
  return m;
}

TEST(SerializeTest, RoundTripPreservesEmbeddingsAndName) {
  const Matrix user = RandomEmb(7, 5, 1);
  const Matrix item = RandomEmb(9, 5, 2);
  StaticRecommender original("TestModel", user, item);
  const std::string path = ::testing::TempDir() + "/model.fzem";
  ASSERT_TRUE(SaveEmbeddings(original, user, item, path).ok());

  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->Name(), "TestModel");
  const Matrix& lu = loaded.value()->user_embeddings();
  const Matrix li = loaded.value()->ItemEmbeddings();
  ASSERT_EQ(lu.rows(), 7);
  ASSERT_EQ(li.rows(), 9);
  for (Index i = 0; i < user.size(); ++i) {
    EXPECT_DOUBLE_EQ(lu.data()[i], user.data()[i]);
  }
  for (Index i = 0; i < item.size(); ++i) {
    EXPECT_DOUBLE_EQ(li.data()[i], item.data()[i]);
  }
}

TEST(SerializeTest, LoadedModelScoresIdenticallyToSource) {
  SetLogLevel(LogLevel::kError);
  const Dataset dataset = GenerateSyntheticDataset(BeautySConfig(0.12));
  BprMf model;
  TrainOptions options;
  options.embedding_dim = 8;
  options.epochs = 3;
  options.eval_every = 3;
  model.Fit(dataset, options);

  const std::string path = ::testing::TempDir() + "/bpr.fzem";
  ASSERT_TRUE(SaveEmbeddings(model, model.UserEmbeddings(),
                             model.ItemEmbeddings(), path)
                  .ok());
  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok());

  Matrix original_scores;
  Matrix loaded_scores;
  const std::vector<Index> users{0, 3, 5};
  model.Score(users, &original_scores);
  loaded.value()->Score(users, &loaded_scores);
  ASSERT_EQ(original_scores.size(), loaded_scores.size());
  for (Index i = 0; i < original_scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(original_scores.data()[i], loaded_scores.data()[i]);
  }
}

TEST(SerializeTest, RejectsGarbageAndTruncatedFiles) {
  const std::string path = ::testing::TempDir() + "/garbage.fzem";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a firzen file at all", f);
    std::fclose(f);
  }
  auto loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  auto missing = LoadEmbeddings("/no/such/file.fzem");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

TEST(SerializeTest, SaveRejectsEmptyOrMismatchedEmbeddings) {
  StaticRecommender model("X", RandomEmb(2, 3, 3), RandomEmb(2, 3, 4));
  const std::string path = ::testing::TempDir() + "/bad.fzem";
  EXPECT_FALSE(SaveEmbeddings(model, Matrix(), RandomEmb(2, 3, 5), path).ok());
  EXPECT_FALSE(
      SaveEmbeddings(model, RandomEmb(2, 3, 6), RandomEmb(2, 4, 7), path)
          .ok());
}

// Builds a .fzem file field by field: the magic and version, then each
// Put() value's raw (little-endian) bytes.
class FzemBytes {
 public:
  FzemBytes() {
    bytes_ = "FZEM";
    Put(uint32_t{1});
  }
  template <typename T>
  FzemBytes& Put(T value) {
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof(value));
    return *this;
  }
  std::string WriteTo(const std::string& name) const {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream(path, std::ios::binary) << bytes_;
    return path;
  }

 private:
  std::string bytes_;
};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kShadowMemorySanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kShadowMemorySanitizer = true;
#else
constexpr bool kShadowMemorySanitizer = false;
#endif
#else
constexpr bool kShadowMemorySanitizer = false;
#endif

// Loads `path` with the address space capped at its current size plus
// 512 MiB, so an allocation sized by a hostile header fails even on a host
// with memory to spare. ASan and TSan reserve their shadow memory up front
// and cannot run under a cap; there the load runs uncapped. Returns the
// status code, or fails the test if the loader throws.
StatusCode LoadUnderAddressSpaceCap(const std::string& path) {
  rlimit saved{};
  getrlimit(RLIMIT_AS, &saved);
  if (!kShadowMemorySanitizer) {
    size_t pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    rlimit cap = saved;
    const rlim_t page = static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
    cap.rlim_cur =
        std::min<rlim_t>(saved.rlim_max, pages * page + (rlim_t{512} << 20));
    setrlimit(RLIMIT_AS, &cap);
  }
  StatusCode code = StatusCode::kOk;
  try {
    auto loaded = LoadEmbeddings(path);
    if (!loaded.ok()) code = loaded.status().code();
  } catch (const std::exception& e) {
    ADD_FAILURE() << path << ": LoadEmbeddings threw " << e.what();
  }
  setrlimit(RLIMIT_AS, &saved);
  return code;
}

// Each header claims more bytes than its file holds; the loader must say
// so before allocating them. Parent commits threw std::bad_alloc (or, for
// the 1 GiB claim, zero-filled it first).
TEST(SerializeTest, RejectsHeadersClaimingMoreThanTheFileHolds) {
  const std::vector<std::pair<std::string, FzemBytes>> cases = {
      // 2^32 x 2^20 user rows of 8 bytes: 32 PiB claimed by 24 bytes.
      {"huge_users", FzemBytes().Put(int64_t{1} << 32).Put(int64_t{1} << 20)},
      // 2^27 x 1 user rows: 1 GiB claimed, 4 bytes present.
      {"long_users",
       FzemBytes().Put(int64_t{1} << 27).Put(int64_t{1}).Put(uint32_t{0})},
      // Valid 1 x 1 user and item blocks, then a ~4 GiB name length.
      {"long_name", FzemBytes()
                        .Put(int64_t{1})
                        .Put(int64_t{1})
                        .Put(Real{0.5})
                        .Put(int64_t{1})
                        .Put(int64_t{1})
                        .Put(Real{0.25})
                        .Put(uint32_t{0xFFFFFFF0u})},
  };
  for (const auto& [name, bytes] : cases) {
    EXPECT_EQ(LoadUnderAddressSpaceCap(bytes.WriteTo(name + ".fzem")),
              StatusCode::kInvalidArgument)
        << name;
  }
}

// Top-k items for one user through the engine, best first — the shape of
// the retired ServingIndex::TopK entry point, which these regression tests
// predate. Train-seen exclusion (the engine default) applies.
std::vector<Recommendation> TopK(const ServingEngine& engine, Index user,
                                 Index k, std::vector<Index> candidates = {}) {
  RecRequest request;
  request.user = user;
  request.k = k;
  request.candidates = std::move(candidates);
  return engine.Recommend(request).items;
}

class ServingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_.num_users = 3;
    dataset_.num_items = 6;
    dataset_.is_cold_item.assign(6, false);
    dataset_.train = {{0, 0}, {0, 1}, {1, 2}};
    // Deterministic scores: user u prefers item (u + i) % 6 descending.
    Matrix user(3, 6);
    Matrix item(6, 6);
    for (Index i = 0; i < 6; ++i) item(i, i) = 1.0;
    for (Index u = 0; u < 3; ++u) {
      for (Index i = 0; i < 6; ++i) {
        user(u, i) = -static_cast<Real>((u + i) % 6);
      }
    }
    model_ = std::make_unique<StaticRecommender>("fixture", user, item);
  }

  Dataset dataset_;
  std::unique_ptr<StaticRecommender> model_;
};

TEST_F(ServingFixture, ExcludesTrainItems) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 0, 6);
  // User 0 interacted with items 0 and 1 -> never recommended.
  for (const Recommendation& rec : recs) {
    EXPECT_NE(rec.item, 0);
    EXPECT_NE(rec.item, 1);
  }
  EXPECT_EQ(recs.size(), 4u);
}

TEST_F(ServingFixture, ReturnsBestFirst) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 2, 3);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_GE(recs[0].score, recs[1].score);
  EXPECT_GE(recs[1].score, recs[2].score);
  // User 2 scores: item i -> -((2+i)%6): best is item 4 (score 0).
  EXPECT_EQ(recs[0].item, 4);
}

TEST_F(ServingFixture, CandidateRestrictionHonored) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 1, 10, {3, 5});
  ASSERT_EQ(recs.size(), 2u);
  for (const Recommendation& rec : recs) {
    EXPECT_TRUE(rec.item == 3 || rec.item == 5);
  }
}

TEST_F(ServingFixture, BatchMatchesSingle) {
  ServingEngine engine(model_.get(), dataset_);
  std::vector<RecRequest> requests(3);
  for (Index u = 0; u < 3; ++u) {
    requests[static_cast<size_t>(u)].user = u;
    requests[static_cast<size_t>(u)].k = 3;
  }
  const auto batch = engine.RecommendBatch(requests);
  ASSERT_EQ(batch.size(), 3u);
  for (Index u = 0; u < 3; ++u) {
    const auto single = TopK(engine, u, 3);
    ASSERT_EQ(batch[static_cast<size_t>(u)].items.size(), single.size());
    for (size_t k = 0; k < single.size(); ++k) {
      EXPECT_EQ(batch[static_cast<size_t>(u)].items[k].item, single[k].item);
    }
  }
}

// --- Regression: degenerate pools must yield short/empty lists, never a
// read past the retained heap entries. ---

TEST_F(ServingFixture, KLargerThanCandidatePoolReturnsShortList) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 2, 100, {3, 5});
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_GE(recs[0].score, recs[1].score);
}

TEST_F(ServingFixture, UserWhoSawEveryCandidateGetsEmptyList) {
  // User 0 trained on items 0 and 1; restrict the pool to exactly those.
  ServingEngine engine(model_.get(), dataset_);
  EXPECT_TRUE(TopK(engine, 0, 3, {0, 1}).empty());
}

TEST_F(ServingFixture, KLargerThanUnseenCatalogReturnsAllUnseen) {
  ServingEngine engine(model_.get(), dataset_);
  const auto recs = TopK(engine, 0, 1000);
  EXPECT_EQ(recs.size(), 4u);  // 6 items minus the 2 train-seen
}

// --- ServingEngine request/response semantics. ---

TEST_F(ServingFixture, EngineExcludesTrainSeenByDefault) {
  ServingEngine engine(model_.get(), dataset_);
  RecRequest request;
  request.user = 0;
  request.k = 6;
  const RecResponse response = engine.Recommend(request);
  EXPECT_EQ(response.user, 0);
  EXPECT_EQ(response.items.size(), 4u);
  for (const Recommendation& rec : response.items) {
    EXPECT_NE(rec.item, 0);
    EXPECT_NE(rec.item, 1);
  }
}

TEST_F(ServingFixture, EngineCustomAndNoneExclusionPolicies) {
  ServingEngine engine(model_.get(), dataset_);
  RecRequest none;
  none.user = 0;
  none.k = 6;
  none.exclusion = ExclusionPolicy::kNone;
  EXPECT_EQ(engine.Recommend(none).items.size(), 6u);

  RecRequest custom;
  custom.user = 0;
  custom.k = 6;
  custom.exclusion = ExclusionPolicy::kCustom;
  custom.exclude = {5, 2, 5};  // unsorted with a duplicate
  const RecResponse response = engine.Recommend(custom);
  EXPECT_EQ(response.items.size(), 4u);
  for (const Recommendation& rec : response.items) {
    EXPECT_NE(rec.item, 2);
    EXPECT_NE(rec.item, 5);
  }
}

TEST_F(ServingFixture, EngineColdShelfFlag) {
  Dataset dataset = dataset_;
  dataset.is_cold_item = {false, false, false, true, false, true};
  ServingEngine engine(model_.get(), dataset);
  RecRequest request;
  request.user = 1;
  request.k = 10;
  request.cold_only = true;
  request.exclusion = ExclusionPolicy::kNone;
  const RecResponse response = engine.Recommend(request);
  ASSERT_EQ(response.items.size(), 2u);
  for (const Recommendation& rec : response.items) {
    EXPECT_TRUE(rec.item == 3 || rec.item == 5);
  }
  // cold_only composes with an explicit candidate pool.
  request.candidates = {0, 1, 3};
  const RecResponse shelf = engine.Recommend(request);
  ASSERT_EQ(shelf.items.size(), 1u);
  EXPECT_EQ(shelf.items[0].item, 3);
}

TEST_F(ServingFixture, EngineBatchMixesStreamedAndCandidateRequests) {
  ServingEngine engine(model_.get(), dataset_);
  std::vector<RecRequest> requests(3);
  requests[0].user = 0;
  requests[0].k = 3;
  requests[1].user = 1;
  requests[1].k = 2;
  requests[1].candidates = {3, 4, 5};
  requests[2].user = 2;
  requests[2].k = 3;
  const auto responses = engine.RecommendBatch(requests);
  ASSERT_EQ(responses.size(), 3u);
  for (size_t i = 0; i < requests.size(); ++i) {
    const RecResponse single = engine.Recommend(requests[i]);
    ASSERT_EQ(responses[i].items.size(), single.items.size()) << i;
    for (size_t j = 0; j < single.items.size(); ++j) {
      EXPECT_EQ(responses[i].items[j].item, single.items[j].item) << i;
      EXPECT_DOUBLE_EQ(responses[i].items[j].score, single.items[j].score)
          << i;
    }
  }
}

// --- Regression: duplicate candidate entries must not yield duplicate
// recommendations (the pool is deduplicated once per request). ---

TEST_F(ServingFixture, DuplicateCandidateEntriesAreDeduplicated) {
  ServingEngine engine(model_.get(), dataset_);
  RecRequest clean;
  clean.user = 2;
  clean.k = 10;
  clean.exclusion = ExclusionPolicy::kNone;
  clean.candidates = {3, 5};
  const RecResponse expected = engine.Recommend(clean);
  ASSERT_EQ(expected.items.size(), 2u);

  RecRequest noisy = clean;
  noisy.candidates = {5, 3, 5, 5, 3};
  const RecResponse response = engine.Recommend(noisy);
  ASSERT_EQ(response.items.size(), 2u);
  for (size_t j = 0; j < expected.items.size(); ++j) {
    EXPECT_EQ(response.items[j].item, expected.items[j].item);
    EXPECT_EQ(response.items[j].score, expected.items[j].score);
  }
}

// --- Regression: NaN scores must never corrupt the heap ordering or appear
// in responses. ---

TEST(TopKHeapTest, NaNPushesAreDroppedDeterministically) {
  const Real nan = std::nan("");
  TopKHeap heap(3);
  heap.Push(0, nan);
  heap.Push(1, 1.0);
  heap.Push(2, nan);
  heap.Push(3, 2.0);
  heap.Push(4, nan);
  const auto& sorted = heap.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].item, 3);
  EXPECT_EQ(sorted[1].item, 1);
}

TEST(ServingEngineTest, NaNScoresNeverRecommended) {
  // Items 1 and 4 score NaN for every user; the rest score -item.
  auto scorer = std::make_unique<CellScorer>(
      [](Index, Index item) {
        return (item == 1 || item == 4) ? std::nan("")
                                        : -static_cast<Real>(item);
      },
      /*num_items=*/6);
  Dataset dataset;
  dataset.num_users = 2;
  dataset.num_items = 6;
  dataset.is_cold_item.assign(6, false);
  ServingEngine engine(std::move(scorer), dataset);
  RecRequest request;
  request.user = 0;
  request.k = 10;
  request.exclusion = ExclusionPolicy::kNone;
  const RecResponse response = engine.Recommend(request);
  ASSERT_EQ(response.items.size(), 4u);  // 6 items minus the 2 NaN-scored
  for (size_t j = 0; j < response.items.size(); ++j) {
    EXPECT_TRUE(std::isfinite(response.items[j].score));
    EXPECT_NE(response.items[j].item, 1);
    EXPECT_NE(response.items[j].item, 4);
  }
  // Deterministic ranking of the finite scores: 0 > -2 > -3 > -5.
  EXPECT_EQ(response.items[0].item, 0);
  EXPECT_EQ(response.items[1].item, 2);
  EXPECT_EQ(response.items[2].item, 3);
  EXPECT_EQ(response.items[3].item, 5);

  // The same pool through an explicit candidate list, duplicates included.
  request.candidates = {4, 1, 0, 2, 4, 3, 5, 1};
  const RecResponse pooled = engine.Recommend(request);
  ASSERT_EQ(pooled.items.size(), 4u);
  for (size_t j = 0; j < pooled.items.size(); ++j) {
    EXPECT_EQ(pooled.items[j].item, response.items[j].item);
    EXPECT_EQ(pooled.items[j].score, response.items[j].score);
  }
}

// --- Unequal explicit pools in one batch (each scored as its own group);
// responses must match the same requests served alone. ---

TEST_F(ServingFixture, UnequalCandidatePoolsBatchBitExact) {
  ServingEngine engine(model_.get(), dataset_);
  std::vector<RecRequest> requests(4);
  requests[0].user = 0;
  requests[0].k = 4;
  requests[0].candidates = {2, 3, 4};
  requests[1].user = 1;
  requests[1].k = 2;
  requests[1].candidates = {5, 0, 5, 1};  // overlapping, with a duplicate
  requests[1].exclusion = ExclusionPolicy::kNone;
  requests[2].user = 2;
  requests[2].k = 3;  // full catalog mixed into the same batch
  requests[3].user = 2;
  requests[3].k = 6;
  requests[3].candidates = {1, 2};
  requests[3].exclusion = ExclusionPolicy::kCustom;
  requests[3].exclude = {2};
  const auto batched = engine.RecommendBatch(requests);
  ASSERT_EQ(batched.size(), 4u);
  for (size_t i = 0; i < requests.size(); ++i) {
    const RecResponse single = engine.Recommend(requests[i]);
    ASSERT_EQ(batched[i].items.size(), single.items.size()) << i;
    for (size_t j = 0; j < single.items.size(); ++j) {
      EXPECT_EQ(batched[i].items[j].item, single.items[j].item) << i;
      EXPECT_EQ(batched[i].items[j].score, single.items[j].score) << i;
    }
  }
}

// --- A k far past the catalog is answered like k = catalog size: response
// heaps are sized by the items in their range, never by k. ---

TEST_F(ServingFixture, HugeKIsAnsweredLikeTheWholeCatalog) {
  std::vector<RecRequest> huge(2);
  huge[0].user = 1;
  huge[0].k = Index{1} << 62;
  huge[1].user = 2;
  huge[1].k = Index{1} << 62;
  huge[1].candidates = {5, 0, 3};
  std::vector<RecRequest> whole = huge;
  for (RecRequest& request : whole) request.k = 6;
  for (Index shards : {Index{1}, Index{3}}) {
    ServingEngineOptions options;
    options.num_shards = shards;
    ServingEngine engine(model_.get(), dataset_, options);
    const auto got = engine.RecommendBatch(huge);
    const auto want = engine.RecommendBatch(whole);
    for (size_t i = 0; i < huge.size(); ++i) {
      ASSERT_EQ(got[i].items.size(), want[i].items.size()) << i;
      EXPECT_FALSE(got[i].items.empty()) << i;
      for (size_t j = 0; j < want[i].items.size(); ++j) {
        EXPECT_EQ(got[i].items[j].item, want[i].items[j].item) << i;
        EXPECT_EQ(got[i].items[j].score, want[i].items[j].score) << i;
      }
    }
  }
}

// --- Sibling engines share exclusion/cold state instead of deep-copying
// it. ---

TEST_F(ServingFixture, SiblingEnginesShareState) {
  ServingEngine engine(model_.get(), dataset_);
  ASSERT_NE(engine.shared_state(), nullptr);
  ServingEngine sibling(model_->MakeScorer(), engine.shared_state());
  EXPECT_EQ(sibling.shared_state().get(), engine.shared_state().get());
  RecRequest request;
  request.user = 0;
  request.k = 6;
  const RecResponse a = engine.Recommend(request);
  const RecResponse b = sibling.Recommend(request);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t j = 0; j < a.items.size(); ++j) {
    EXPECT_EQ(a.items[j].item, b.items[j].item);
    EXPECT_EQ(a.items[j].score, b.items[j].score);
  }
}

// Fused block streaming must reproduce the legacy materialize-then-rank
// results bit-for-bit, for any block size.
TEST(ServingEngineParityTest, FusedMatchesMaterializedForTrainedModel) {
  SetLogLevel(LogLevel::kError);
  const Dataset dataset = GenerateSyntheticDataset(BeautySConfig(0.12));
  BprMf model;
  TrainOptions options;
  options.embedding_dim = 8;
  options.epochs = 3;
  options.eval_every = 3;
  model.Fit(dataset, options);

  const std::vector<Index> users{0, 2, 5, 9};
  const Index k = 20;
  // Legacy reference: full score matrix, then per-user bounded heap.
  Matrix scores;
  model.Score(users, &scores);
  const auto seen = dataset.TrainItemsByUser();
  std::vector<std::vector<ScoredItem>> reference;
  for (size_t r = 0; r < users.size(); ++r) {
    TopKHeap heap(k);
    const auto& exclude = seen[static_cast<size_t>(users[r])];
    for (Index item = 0; item < dataset.num_items; ++item) {
      if (std::binary_search(exclude.begin(), exclude.end(), item)) continue;
      heap.Push(item, scores(static_cast<Index>(r), item));
    }
    reference.push_back(heap.Sorted());
  }

  for (Index block : {Index{1}, Index{7}, Index{64}, dataset.num_items}) {
    ServingEngineOptions engine_options;
    engine_options.item_block = block;
    ServingEngine engine(&model, dataset, engine_options);
    std::vector<RecRequest> requests;
    for (Index user : users) {
      RecRequest request;
      request.user = user;
      request.k = k;
      requests.push_back(std::move(request));
    }
    const auto responses = engine.RecommendBatch(requests);
    for (size_t r = 0; r < users.size(); ++r) {
      ASSERT_EQ(responses[r].items.size(), reference[r].size())
          << "block=" << block;
      for (size_t j = 0; j < reference[r].size(); ++j) {
        EXPECT_EQ(responses[r].items[j].item, reference[r][j].item)
            << "block=" << block;
        EXPECT_EQ(responses[r].items[j].score, reference[r][j].score)
            << "block=" << block;
      }
    }
  }
}

// The fused full-catalog pass (item tiles sharded over the pool,
// worker-local heaps, one merge) must answer bit-identically to
// materialize-then-rank: score the whole catalog in one ScoreBlock call,
// then offer every eligible item to one heap. Swept over pool sizes, tile
// widths from 1 item to past the catalog, every exclusion policy, the cold
// shelf, k past the number of eligible items, and the int8 tier.
TEST(ServingEngineParityTest, FusedPassMatchesMaterializeThenRank) {
  constexpr Index kUsers = 24;
  constexpr Index kItems = 1100;
  constexpr Index kDim = 16;
  Dataset dataset;
  dataset.num_users = kUsers;
  dataset.num_items = kItems;
  dataset.is_cold_item.assign(static_cast<size_t>(kItems), false);
  for (Index i = 0; i < kItems; i += 5) {
    dataset.is_cold_item[static_cast<size_t>(i)] = true;
  }
  Rng rng(31);
  for (Index u = 0; u < kUsers; ++u) {
    for (int t = 0; t < 40; ++t) {
      dataset.train.push_back({u, rng.UniformInt(kItems)});
    }
  }
  const StaticRecommender model("fused", RandomEmb(kUsers, kDim, 7),
                                RandomEmb(kItems, kDim, 8));
  const std::vector<std::vector<Index>> seen = dataset.TrainItemsByUser();

  std::vector<RecRequest> requests;
  for (Index u = 0; u < kUsers; ++u) {
    RecRequest request;
    request.user = u;
    request.k = (u % 4 == 0) ? 1 : 5 + 7 * (u % 3);
    request.cold_only = u % 3 == 1;
    switch (u % 3) {
      case 0:
        request.exclusion = ExclusionPolicy::kTrainSeen;
        break;
      case 1:
        request.exclusion = ExclusionPolicy::kNone;
        break;
      default:
        request.exclusion = ExclusionPolicy::kCustom;
        for (int t = 0; t < 30; ++t) {
          request.exclude.push_back(rng.UniformInt(kItems));
        }
        break;
    }
    requests.push_back(std::move(request));
  }
  // k past the eligible count: a cold-shelf request over 1/5 of the catalog.
  requests[1].k = kItems;

  for (const ScoringPrecision precision :
       {ScoringPrecision::kFp32, ScoringPrecision::kInt8}) {
    // Materialize-then-rank reference through an identically minted scorer.
    std::vector<Index> users;
    for (const RecRequest& request : requests) users.push_back(request.user);
    Matrix scores(static_cast<Index>(users.size()), kItems);
    ScoringArena arena;
    model.MakeScorer(precision)->ScoreBlock(users, {0, kItems},
                                            MatrixView(&scores), &arena);
    std::vector<std::vector<ScoredItem>> want;
    for (size_t r = 0; r < requests.size(); ++r) {
      const RecRequest& request = requests[r];
      std::vector<Index> exclude;
      if (request.exclusion == ExclusionPolicy::kTrainSeen) {
        exclude = seen[static_cast<size_t>(request.user)];
      } else if (request.exclusion == ExclusionPolicy::kCustom) {
        exclude = request.exclude;
        std::sort(exclude.begin(), exclude.end());
      }
      TopKHeap heap(request.k);
      for (Index item = 0; item < kItems; ++item) {
        if (request.cold_only &&
            !dataset.is_cold_item[static_cast<size_t>(item)]) {
          continue;
        }
        if (std::binary_search(exclude.begin(), exclude.end(), item)) {
          continue;
        }
        heap.Push(item, scores(static_cast<Index>(r), item));
      }
      want.push_back(heap.Sorted());
    }
    ASSERT_LT(static_cast<Index>(want[1].size()), kItems);

    for (const int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      for (const Index block :
           {Index{1}, Index{13}, Index{512}, Index{8192}, kItems + 5}) {
        ServingEngineOptions options;
        options.item_block = block;
        options.pool = &pool;
        options.precision = precision;
        const ServingEngine engine(&model, dataset, options);
        const std::vector<RecResponse> got =
            engine.RecommendBatch(requests);
        for (size_t r = 0; r < requests.size(); ++r) {
          ASSERT_EQ(got[r].items.size(), want[r].size())
              << "request=" << r << " threads=" << threads
              << " block=" << block
              << " precision=" << static_cast<int>(precision);
          for (size_t j = 0; j < want[r].size(); ++j) {
            ASSERT_EQ(got[r].items[j].item, want[r][j].item)
                << "request=" << r << " rank=" << j << " threads=" << threads
                << " block=" << block;
            ASSERT_EQ(got[r].items[j].score, want[r][j].score)
                << "request=" << r << " rank=" << j << " threads=" << threads
                << " block=" << block;
          }
        }
      }
    }
  }
}

TEST(ServingIntegrationTest, ColdShelfRecommendationsWork) {
  SetLogLevel(LogLevel::kError);
  const Dataset dataset = GenerateSyntheticDataset(BeautySConfig(0.15));
  auto model = CreateModel("Firzen");
  TrainOptions options;
  options.embedding_dim = 16;
  options.epochs = 4;
  options.eval_every = 4;
  model->Fit(dataset, options);
  model->PrepareColdInference(dataset);

  ServingEngine engine(model.get(), dataset);
  const auto recs = TopK(engine, 0, 5, dataset.ColdItems());
  ASSERT_EQ(recs.size(), 5u);
  for (const Recommendation& rec : recs) {
    EXPECT_TRUE(dataset.is_cold_item[static_cast<size_t>(rec.item)]);
    EXPECT_TRUE(std::isfinite(rec.score));
  }
}

}  // namespace
}  // namespace firzen
