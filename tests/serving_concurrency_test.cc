// Concurrent-serving stress suite: one shared ServingEngine (unsharded or
// sharded — same contract) hammered by N request threads with
// mixed full-catalog / candidate-pool / cold-only / custom-exclusion
// traffic must answer every request bit-identically to a single-threaded
// run — the contract that makes shared-scorer serving (and the TSan pass
// wired into tools/run_checks.sh) meaningful. Also covers the scorer-level
// contract directly: one Scorer, many threads, one ScoringArena per
// thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/data/synthetic.h"
#include "src/eval/serving.h"
#include "src/eval/sharded_serving.h"
#include "src/models/kgcn.h"
#include "src/models/scorer.h"
#include "src/models/serialize.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "tests/cell_scorer.h"

namespace firzen {
namespace {

constexpr Index kUsers = 48;
constexpr Index kItems = 400;
constexpr Index kDim = 12;

Matrix RandomEmb(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(&rng, 1.0);
  return m;
}

Dataset StressDataset() {
  Dataset dataset;
  dataset.num_users = kUsers;
  dataset.num_items = kItems;
  dataset.is_cold_item.assign(static_cast<size_t>(kItems), false);
  // Last quarter of the catalog is the strict cold shelf.
  for (Index i = 3 * kItems / 4; i < kItems; ++i) {
    dataset.is_cold_item[static_cast<size_t>(i)] = true;
  }
  Rng rng(7);
  for (Index u = 0; u < kUsers; ++u) {
    for (int t = 0; t < 6; ++t) {
      dataset.train.push_back({u, rng.UniformInt(3 * kItems / 4)});
    }
  }
  return dataset;
}

// Mixed request traffic: full catalog, explicit pools (duplicates included),
// cold-only shelves, and every exclusion policy.
std::vector<RecRequest> MixedRequests() {
  std::vector<RecRequest> requests;
  Rng rng(29);
  for (Index u = 0; u < kUsers; ++u) {
    RecRequest full;
    full.user = u;
    full.k = 10;
    requests.push_back(full);

    RecRequest pool;
    pool.user = u;
    pool.k = 5;
    pool.exclusion = ExclusionPolicy::kNone;
    for (int j = 0; j < 24; ++j) {
      pool.candidates.push_back(rng.UniformInt(kItems));
    }
    pool.candidates.push_back(pool.candidates.front());  // guaranteed dup
    requests.push_back(pool);

    RecRequest cold;
    cold.user = u;
    cold.k = 8;
    cold.cold_only = true;
    cold.exclusion = ExclusionPolicy::kNone;
    requests.push_back(cold);

    RecRequest custom;
    custom.user = u;
    custom.k = 7;
    custom.exclusion = ExclusionPolicy::kCustom;
    for (int j = 0; j < 10; ++j) {
      custom.exclude.push_back(rng.UniformInt(kItems));
    }
    requests.push_back(custom);
  }
  return requests;
}

void ExpectSameResponse(const RecResponse& got, const RecResponse& want,
                        size_t request_idx) {
  ASSERT_EQ(got.user, want.user) << "request " << request_idx;
  ASSERT_EQ(got.items.size(), want.items.size()) << "request " << request_idx;
  for (size_t j = 0; j < want.items.size(); ++j) {
    ASSERT_EQ(got.items[j].item, want.items[j].item)
        << "request " << request_idx << " rank " << j;
    ASSERT_EQ(got.items[j].score, want.items[j].score)
        << "request " << request_idx << " rank " << j;
  }
}

// Hammers `engine` from `num_threads` threads (single Recommend calls plus
// whole-batch RecommendBatch calls, each thread walking the request list
// from a different offset) and checks every answer bit-exactly against the
// single-threaded reference: serving is bit-deterministic for any thread
// interleaving, pool size, item_block — and, since the Gemm kernel became
// batch-size-invariant (scorer_parity_test pins it per model), for any
// request-batch shape, so the single-request and whole-batch references
// must themselves agree bit-for-bit (asserted below before the stress).
template <typename Engine>
void StressEngine(const Engine& engine, int num_threads, int rounds) {
  const std::vector<RecRequest> requests = MixedRequests();
  std::vector<RecResponse> reference;
  reference.reserve(requests.size());
  for (const RecRequest& request : requests) {
    reference.push_back(engine.Recommend(request));
  }
  const std::vector<RecResponse> batch_reference =
      engine.RecommendBatch(requests);
  // Cross-shape determinism: a request answers identically alone or fused
  // into the whole batch (the admission front end's coalescing contract).
  ASSERT_EQ(batch_reference.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ExpectSameResponse(batch_reference[i], reference[i], i);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < rounds; ++round) {
        // Interleaved singles, offset per thread so concurrent calls hit
        // different request shapes at the same time.
        for (size_t i = 0; i < requests.size(); ++i) {
          const size_t idx =
              (i * 13 + static_cast<size_t>(t) * 5 +
               static_cast<size_t>(round)) % requests.size();
          const RecResponse got = engine.Recommend(requests[idx]);
          const RecResponse& want = reference[idx];
          if (got.user != want.user || got.items.size() != want.items.size()) {
            ++mismatches;
            continue;
          }
          for (size_t j = 0; j < want.items.size(); ++j) {
            if (got.items[j].item != want.items[j].item ||
                got.items[j].score != want.items[j].score) {
              ++mismatches;
              break;
            }
          }
        }
        // One full mixed batch through the union/fused streams.
        const auto batch = engine.RecommendBatch(requests);
        for (size_t i = 0; i < requests.size(); ++i) {
          if (batch[i].items.size() != batch_reference[i].items.size()) {
            ++mismatches;
            continue;
          }
          for (size_t j = 0; j < batch_reference[i].items.size(); ++j) {
            if (batch[i].items[j].item != batch_reference[i].items[j].item ||
                batch[i].items[j].score != batch_reference[i].items[j].score) {
              ++mismatches;
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  // And once more on the main thread: concurrent traffic must not have
  // perturbed the engine.
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(engine.Recommend(requests[i]), reference[i], i);
  }
}

TEST(ServingConcurrencyTest, SharedEngineDotProductBitExact) {
  const Dataset dataset = StressDataset();
  StaticRecommender model("stress", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const ServingEngine engine(&model, dataset);
  StressEngine(engine, /*num_threads=*/6, /*rounds=*/2);
}

TEST(ServingConcurrencyTest, SharedEngineCellScorerBitExact) {
  const Dataset dataset = StressDataset();
  // Deterministic non-factorized scorer with frequent ties: a scorer that
  // keeps no arena state, under concurrency.
  auto scorer = std::make_unique<CellScorer>(
      [](Index user, Index item) {
        return static_cast<Real>((user * 31 + item * 17) % 101) -
               static_cast<Real>(item % 7);
      },
      kItems);
  const ServingEngine engine(std::move(scorer), dataset);
  StressEngine(engine, /*num_threads=*/4, /*rounds=*/1);
}

// Sharded engine under concurrent traffic: N request threads hammer ONE
// shared ServingEngine; every answer must be bit-identical to the
// single-thread single-shard reference. The sharded engine leases one
// arena per shard per call and ranks shards in parallel on the global
// pool, so this is the data-race canary for the per-shard-view /
// shared-base-scorer contract (run under TSan by tools/run_checks.sh).
TEST(ServingConcurrencyTest, SharedShardedEngineBitExactVsSingleShardRef) {
  const Dataset dataset = StressDataset();
  StaticRecommender model("stress", RandomEmb(kUsers, kDim, 21),
                          RandomEmb(kItems, kDim, 22));
  // Single-shard single-thread reference: the plain engine.
  const ServingEngine reference(&model, dataset);
  ServingEngineOptions options;
  options.num_shards = 3;
  const ServingEngine engine(&model, dataset, options);

  // Shard invariance first (single thread): sharded == single-shard.
  const std::vector<RecRequest> requests = MixedRequests();
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(engine.Recommend(requests[i]),
                       reference.Recommend(requests[i]), i);
  }
  const auto sharded_batch = engine.RecommendBatch(requests);
  const auto reference_batch = reference.RecommendBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(sharded_batch[i], reference_batch[i], i);
  }

  // Then concurrency: StressEngine checks every threaded answer against
  // the engine's own single-threaded responses, which the block above just
  // proved equal to the single-shard reference.
  StressEngine(engine, /*num_threads=*/6, /*rounds=*/2);
}

// The sharded engine places its parallelism adaptively: shards rank
// concurrently (one private arena each) when there is at least one shard
// per pool worker, else sequentially sharing one arena. Which branch the
// previous test exercises depends on the host's core count — force BOTH
// placements with explicit pools so each arena-leasing scheme gets its own
// TSan stress regardless of where the suite runs.
TEST(ServingConcurrencyTest, ShardedEngineBothParallelismPlacementsBitExact) {
  const Dataset dataset = StressDataset();
  StaticRecommender model("stress", RandomEmb(kUsers, kDim, 23),
                          RandomEmb(kItems, kDim, 24));
  const ServingEngine reference(&model, dataset);
  const std::vector<RecRequest> requests = MixedRequests();
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);

  ThreadPool wide_pool(8);   // 3 shards < 8 threads -> sequential placement
  ThreadPool narrow_pool(1);  // 3 shards >= 1 thread -> parallel placement
  for (ThreadPool* pool : {&wide_pool, &narrow_pool}) {
    ServingEngineOptions options;
    options.num_shards = 3;
    options.pool = pool;
    const ServingEngine engine(&model, dataset, options);
    const auto got = engine.RecommendBatch(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      ExpectSameResponse(got[i], want[i], i);
    }
    StressEngine(engine, /*num_threads=*/4, /*rounds=*/1);
  }
}

// Scorer-level contract: one shared scorer, one arena per thread, streamed
// blocks must match one full-catalog block exactly.
TEST(ServingConcurrencyTest, SharedScorerPerThreadArenasBitExact) {
  const Matrix user_emb = RandomEmb(kUsers, kDim, 3);
  const Matrix item_emb = RandomEmb(kItems, kDim, 4);
  const DotProductScorer scorer(user_emb, item_emb);

  std::vector<std::vector<Index>> batches;
  for (Index t = 0; t < 8; ++t) {
    std::vector<Index> users;
    for (Index u = 0; u < 9; ++u) users.push_back((u * 5 + t) % kUsers);
    batches.push_back(users);
  }
  std::vector<Matrix> expected;
  for (const std::vector<Index>& batch : batches) {
    expected.emplace_back(static_cast<Index>(batch.size()), kItems);
    ScoringArena arena;
    scorer.ScoreBlock(batch, {0, kItems}, MatrixView(&expected.back()),
                      &arena);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t b = 0; b < batches.size(); ++b) {
    threads.emplace_back([&, b] {
      ScoringArena arena;  // per-thread scratch; the scorer is shared
      Matrix streamed(static_cast<Index>(batches[b].size()), kItems);
      for (int repeat = 0; repeat < 3; ++repeat) {
        for (Index begin = 0; begin < kItems; begin += 37) {
          const ItemBlock block{begin, std::min<Index>(begin + 37, kItems)};
          scorer.ScoreBlock(batches[b], block,
                            MatrixView::Columns(&streamed, block.begin,
                                                block.size()),
                            &arena);
        }
        for (Index i = 0; i < expected[b].size(); ++i) {
          if (streamed.data()[i] != expected[b].data()[i]) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Regression: arenas key their cache by a never-reused scorer id, not the
// scorer's address. A scorer minted at a destroyed scorer's address (the
// allocator reuses same-size blocks eagerly) must not inherit the stale
// cached scratch — the "re-mint after PrepareColdInference" workflow would
// otherwise silently serve pre-update scores.
TEST(ServingConcurrencyTest, RemintedScorerNeverInheritsStaleArenaCache) {
  const Matrix item_emb = RandomEmb(kItems, kDim, 11);
  const Matrix emb_a = RandomEmb(kUsers, kDim, 12);
  const Matrix emb_b = RandomEmb(kUsers, kDim, 13);
  const std::vector<Index> users{0, 1, 2};

  Matrix want_b(static_cast<Index>(users.size()), kItems);
  {
    const DotProductScorer fresh(emb_b, item_emb);
    ScoringArena arena;
    fresh.ScoreBlock(users, {0, kItems}, MatrixView(&want_b), &arena);
  }

  // Same arena across a destroy/re-mint cycle; same-size scorer allocations
  // make address reuse overwhelmingly likely.
  ScoringArena arena;
  Matrix got(static_cast<Index>(users.size()), kItems);
  auto first = std::make_unique<DotProductScorer>(emb_a, item_emb);
  first->ScoreBlock(users, {0, kItems}, MatrixView(&got), &arena);
  first.reset();
  auto second = std::make_unique<DotProductScorer>(emb_b, item_emb);
  second->ScoreBlock(users, {0, kItems}, MatrixView(&got), &arena);
  for (Index i = 0; i < want_b.size(); ++i) {
    ASSERT_EQ(got.data()[i], want_b.data()[i]) << "flat " << i;
  }
}

// The same regression for KGCN's block-native scorer, which caches its
// per-user relation logits in the arena under the same BindTo key: a
// scorer minted from a second model must recompute them, not read the
// first model's.
TEST(ServingConcurrencyTest, RemintedKgcnScorerNeverInheritsStaleArenaCache) {
  SetLogLevel(LogLevel::kError);
  const Dataset dataset = GenerateSyntheticDataset(BeautySConfig(0.1));
  TrainOptions options;
  options.embedding_dim = 8;
  options.epochs = 2;
  options.eval_every = 2;
  Kgcn model_a;
  options.seed = 1;
  model_a.Fit(dataset, options);
  Kgcn model_b;
  options.seed = 2;
  model_b.Fit(dataset, options);
  const std::vector<Index> users{0, 1, 2};
  const Index rows = static_cast<Index>(users.size());
  const ItemBlock catalog{0, dataset.num_items};

  Matrix want_b(rows, dataset.num_items);
  {
    ScoringArena fresh;
    model_b.MakeScorer()->ScoreBlock(users, catalog, MatrixView(&want_b),
                                     &fresh);
  }

  ScoringArena arena;
  Matrix got_a(rows, dataset.num_items);
  auto first = model_a.MakeScorer();
  first->ScoreBlock(users, catalog, MatrixView(&got_a), &arena);
  first.reset();
  Matrix got(rows, dataset.num_items);
  model_b.MakeScorer()->ScoreBlock(users, catalog, MatrixView(&got), &arena);
  Index differing = 0;
  for (Index i = 0; i < want_b.size(); ++i) {
    ASSERT_EQ(got.data()[i], want_b.data()[i]) << "flat " << i;
    if (got_a.data()[i] != want_b.data()[i]) ++differing;
  }
  // The two seeds must train different models, or the check above is
  // vacuous.
  EXPECT_GT(differing, 0);
}

// The engine's arena pool recycles leases; acquire/release from many
// threads must stay balanced and private.
TEST(ServingConcurrencyTest, ArenaPoolLeasesArePrivateAndRecycled) {
  ArenaPool pool;
  {
    ArenaPool::Lease a = pool.Acquire();
    ArenaPool::Lease b = pool.Acquire();
    ASSERT_NE(a.get(), nullptr);
    ASSERT_NE(b.get(), nullptr);
    EXPECT_NE(a.get(), b.get());
    a->cached_users = {1, 2, 3};
  }
  // Both leases returned; the next acquire recycles one of them.
  ArenaPool::Lease c = pool.Acquire();
  ASSERT_NE(c.get(), nullptr);

  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        ArenaPool::Lease lease = pool.Acquire();
        lease->BindTo(static_cast<uint64_t>(t) + 1);
        lease->cached_users.assign(1, static_cast<Index>(t));
        if (lease->cached_users[0] != static_cast<Index>(t)) ++errors;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace firzen
