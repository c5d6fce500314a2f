// Distributed-serving suite: a DistributedServingEngine fanning out over
// real localhost sockets must answer every healthy-path request
// bit-identically (same items, same scores, same order) to the in-process
// ServingEngine oracle (sharded or not) for any shard layout — the
// contract that makes moving a shard behind a socket observably free. And
// when shards die or stall, batches must complete from the survivors as
// RecStatus::kDegraded within the deadline budget: never a hang, never an
// abort, never a late response.
//
// The degraded-content oracle used throughout: re-score with the dead
// shard's item-embedding rows poisoned to NaN. The scorer then yields NaN
// for exactly the dead range, the top-K heap drops NaN deterministically,
// and every other item's score is untouched (each item row's dot products
// are independent) — which is precisely "the merge of the surviving
// shards", computed by a code path that shares nothing with the
// coordinator's failure handling.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/data/synthetic.h"
#include "src/eval/admission.h"
#include "src/eval/serving.h"
#include "src/eval/sharded_serving.h"
#include "src/models/registry.h"
#include "src/models/serialize.h"
#include "src/serve/distributed_serving.h"
#include "src/serve/net.h"
#include "src/serve/shard_server.h"
#include "src/serve/wire.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace firzen {
namespace {

Matrix RandomEmb(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(&rng, 1.0);
  return m;
}

constexpr Index kUsers = 20;
constexpr Index kItems = 97;  // prime: no shard count divides it evenly
constexpr Index kDim = 8;

// Same catalog as the sharded suite: warm head, cold tail, 5 train
// interactions per user.
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

void ExpectAllOk(const std::vector<RecResponse>& responses,
                 const std::string& label) {
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status, RecStatus::kOk) << label << " request " << i;
    EXPECT_TRUE(responses[i].failed_shards.empty())
        << label << " request " << i;
  }
}

void ExpectAllDegraded(const std::vector<RecResponse>& responses,
                       const std::vector<Index>& failed_shards,
                       const std::string& label) {
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status, RecStatus::kDegraded)
        << label << " request " << i;
    EXPECT_EQ(responses[i].failed_shards, failed_shards)
        << label << " request " << i;
  }
}

// Starts one ShardServer per range, all over the same model and state —
// a single-machine stand-in for N shard-server hosts.
std::vector<std::unique_ptr<ShardServer>> StartServers(
    const Recommender& model, std::shared_ptr<const ServingSharedState> state,
    const std::vector<ItemBlock>& ranges, Index num_users) {
  std::vector<std::unique_ptr<ShardServer>> servers;
  for (const ItemBlock& range : ranges) {
    ShardServerOptions options;
    options.num_users = num_users;
    servers.push_back(std::make_unique<ShardServer>(model.MakeScorer(), state,
                                                    range, options));
    const Status started = servers.back()->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  return servers;
}

Result<std::unique_ptr<DistributedServingEngine>> ConnectTo(
    const std::vector<std::unique_ptr<ShardServer>>& servers,
    int64_t rpc_timeout_ms = 5000) {
  DistributedServingOptions options;
  for (const auto& server : servers) {
    options.shard_addresses.push_back(server->bound_address());
  }
  options.rpc_timeout_ms = rpc_timeout_ms;
  options.retry_backoff_ms = 10;  // keep failure tests brisk
  return DistributedServingEngine::Connect(std::move(options));
}

// The NaN-poisoning degraded-content oracle (see the file comment):
// responses a correct coordinator must produce when `dead` ranges are
// unreachable. Embeddings are rebuilt from their seeds, so the surviving
// rows are bit-identical to the serving model's.
std::vector<RecResponse> DegradedOracle(const Dataset& dataset,
                                        uint64_t user_seed, uint64_t item_seed,
                                        const std::vector<ItemBlock>& dead,
                                        const std::vector<RecRequest>& requests) {
  Matrix item_emb = RandomEmb(kItems, kDim, item_seed);
  for (const ItemBlock& range : dead) {
    for (Index i = range.begin; i < range.end; ++i) {
      for (Index d = 0; d < item_emb.cols(); ++d) {
        item_emb(i, d) = std::nan("");
      }
    }
  }
  StaticRecommender model("degraded-oracle", RandomEmb(kUsers, kDim, user_seed),
                          std::move(item_emb));
  const ServingEngine engine(&model, dataset);
  return engine.RecommendBatch(requests);
}

// ---- Healthy path: byte-identity over the wire ----

TEST(DistributedServingTest, ResponsesInvariantAcrossShardCounts) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const ServingEngine reference(&model, dataset);
  const auto state = ServingSharedState::FromDataset(dataset, kItems);
  const std::vector<RecRequest> requests = ShardRequests();
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);

  for (Index shards : {Index{1}, Index{2}, Index{3}, Index{7}}) {
    const auto ranges = MakeShardRanges(kItems, shards);
    const auto servers = StartServers(model, state, ranges, kUsers);
    auto connected = ConnectTo(servers);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    const auto& engine = connected.value();
    ASSERT_EQ(engine->num_shards(), shards);
    ASSERT_EQ(engine->num_items(), kItems);

    const std::string label = "shards=" + std::to_string(shards);
    const std::vector<RecResponse> got = engine->RecommendBatch(requests);
    ExpectAllOk(got, label);
    ExpectBitIdentical(got, want, label + " batch");
    // And the in-process sharded engine agrees too (same oracle chain).
    ServingEngineOptions sharded_options;
    sharded_options.num_shards = shards;
    const ServingEngine in_process(&model, dataset, sharded_options);
    ExpectBitIdentical(got, in_process.RecommendBatch(requests),
                       label + " vs in-process");
    // Single-request path merges identically.
    for (size_t i = 0; i < requests.size(); i += 7) {
      const RecResponse single = engine->Recommend(requests[i]);
      ASSERT_EQ(single.status, RecStatus::kOk);
      ExpectBitIdentical({single}, {reference.Recommend(requests[i])},
                         label + " single " + std::to_string(i));
    }

    // Counter accounting: every request went through, nothing failed.
    EXPECT_EQ(engine->failed_shard_rpcs(), 0u);
    EXPECT_EQ(engine->degraded_responses(), 0u);
    EXPECT_EQ(engine->reconnects(), 0u);
    EXPECT_GT(engine->shard_rpcs(), 0u);
    EXPECT_GT(engine->bytes_sent(), 0u);
    EXPECT_GT(engine->bytes_received(), 0u);
    uint64_t served = 0;
    for (const auto& server : servers) served += server->requests_served();
    const uint64_t singles = (requests.size() + 6) / 7;
    EXPECT_EQ(served, static_cast<uint64_t>(shards) *
                          (requests.size() + singles));
  }
}

TEST(DistributedServingTest, UnixDomainSocketsServeIdentically) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 3),
                          RandomEmb(kItems, kDim, 4));
  const ServingEngine reference(&model, dataset);
  const auto state = ServingSharedState::FromDataset(dataset, kItems);
  const auto ranges = MakeShardRanges(kItems, 2);

  std::vector<std::unique_ptr<ShardServer>> servers;
  for (size_t s = 0; s < ranges.size(); ++s) {
    ShardServerOptions options;
    options.num_users = kUsers;
    options.listen_address = "unix:/tmp/firzen_dist_test_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(s) + ".sock";
    servers.push_back(std::make_unique<ShardServer>(model.MakeScorer(), state,
                                                    ranges[s], options));
    const Status started = servers.back()->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }
  auto connected = ConnectTo(servers);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const std::vector<RecRequest> requests = ShardRequests();
  const std::vector<RecResponse> got =
      connected.value()->RecommendBatch(requests);
  ExpectAllOk(got, "unix");
  ExpectBitIdentical(got, reference.RecommendBatch(requests), "unix sockets");
}

// Concurrent request threads share one coordinator, the thread-safety
// contract the sibling engines pin under TSan.
TEST(DistributedServingTest, ConcurrentBatchesStayBitIdentical) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 5),
                          RandomEmb(kItems, kDim, 6));
  const ServingEngine reference(&model, dataset);
  const auto state = ServingSharedState::FromDataset(dataset, kItems);
  const auto servers =
      StartServers(model, state, MakeShardRanges(kItems, 3), kUsers);
  auto connected = ConnectTo(servers);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const auto& engine = connected.value();

  const std::vector<RecRequest> requests = ShardRequests();
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<RecResponse>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        got[static_cast<size_t>(t)] = engine->RecommendBatch(requests);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ExpectAllOk(got[static_cast<size_t>(t)], "thread " + std::to_string(t));
    ExpectBitIdentical(got[static_cast<size_t>(t)], want,
                       "thread " + std::to_string(t));
  }
}

// ---- Every registered model over the wire ----

const Dataset& TrainedDataset() {
  static const Dataset* dataset = [] {
    return new Dataset(GenerateSyntheticDataset(BeautySConfig(0.12)));
  }();
  return *dataset;
}

class DistributedModelInvarianceTest
    : public ::testing::TestWithParam<ModelInfo> {};

// For every registered model: distributed responses over real sockets are
// bit-identical to the single-engine reference.
TEST_P(DistributedModelInvarianceTest, ResponsesMatchSingleEngineBitExact) {
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
  const auto state =
      ServingSharedState::FromDataset(dataset, dataset.num_items);
  const auto servers = StartServers(
      *model, state, MakeShardRanges(dataset.num_items, 3), dataset.num_users);
  auto connected = ConnectTo(servers);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const std::vector<RecResponse> got =
      connected.value()->RecommendBatch(requests);
  ExpectAllOk(got, GetParam().name);
  ExpectBitIdentical(got, reference.RecommendBatch(requests), GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(AllModels, DistributedModelInvarianceTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) { return info.param.name; });

// ---- Degradation: dead, stalled, and restarted shards ----

TEST(DistributedServingTest, KilledShardDegradesToSurvivorsThenRejoins) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const ServingEngine reference(&model, dataset);
  const auto state = ServingSharedState::FromDataset(dataset, kItems);
  const auto ranges = MakeShardRanges(kItems, 3);
  auto servers = StartServers(model, state, ranges, kUsers);
  auto connected = ConnectTo(servers);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const auto& engine = connected.value();

  const std::vector<RecRequest> requests = ShardRequests();
  ExpectAllOk(engine->RecommendBatch(requests), "healthy warmup");

  // Kill the middle shard: batches complete from shards 0 and 2, flagged.
  const std::string shard1_address = servers[1]->bound_address();
  servers[1]->Stop();
  const std::vector<RecResponse> degraded =
      engine->RecommendBatch(requests);
  ExpectAllDegraded(degraded, {1}, "killed shard");
  ExpectBitIdentical(degraded,
                     DegradedOracle(dataset, 1, 2, {ranges[1]}, requests),
                     "killed-shard content");
  EXPECT_GE(engine->failed_shard_rpcs(), 1u);
  EXPECT_EQ(engine->degraded_responses(), requests.size());

  // A restarted server on the same address rejoins transparently on the
  // next batch: kOk again, bit-identical, reconnect counted.
  ShardServerOptions restart_options;
  restart_options.num_users = kUsers;
  restart_options.listen_address = shard1_address;
  auto restarted = std::make_unique<ShardServer>(model.MakeScorer(), state,
                                                 ranges[1], restart_options);
  const Status restarted_ok = restarted->Start();
  ASSERT_TRUE(restarted_ok.ok()) << restarted_ok.ToString();
  servers[1] = std::move(restarted);
  const std::vector<RecResponse> recovered = engine->RecommendBatch(requests);
  ExpectAllOk(recovered, "after restart");
  ExpectBitIdentical(recovered, reference.RecommendBatch(requests),
                     "after restart");
  EXPECT_GE(engine->reconnects(), 1u);
}

TEST(DistributedServingTest, AllShardsDownYieldsDegradedEmptyNotAHang) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const auto state = ServingSharedState::FromDataset(dataset, kItems);
  auto servers = StartServers(model, state, MakeShardRanges(kItems, 2), kUsers);
  auto connected = ConnectTo(servers, /*rpc_timeout_ms=*/1000);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const auto& engine = connected.value();

  for (auto& server : servers) server->Stop();
  const std::vector<RecRequest> requests = ShardRequests();
  const std::vector<RecResponse> got = engine->RecommendBatch(requests);
  ExpectAllDegraded(got, {0, 1}, "all down");
  for (const RecResponse& response : got) {
    EXPECT_TRUE(response.items.empty());
  }
}

// Satellite regression: a stalled shard must never make a deadline-carrying
// request complete late. The per-shard wait is capped at the batch's
// remaining deadline budget (and at rpc_timeout_ms), so the batch returns
// kDegraded within budget while the stalled shard is still sleeping.
TEST(DistributedServingTest, StalledShardDegradesWithinDeadlineBudget) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const ServingEngine reference(&model, dataset);
  const auto state = ServingSharedState::FromDataset(dataset, kItems);
  const auto ranges = MakeShardRanges(kItems, 2);
  auto servers = StartServers(model, state, ranges, kUsers);
  auto connected = ConnectTo(servers);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const auto& engine = connected.value();

  std::vector<RecRequest> requests = ShardRequests();
  ExpectAllOk(engine->RecommendBatch(requests), "pre-stall warmup");

  constexpr int64_t kStallUs = 1'200'000;
  constexpr int64_t kDeadlineUs = 100'000;
  servers[1]->set_stall_replies_us(kStallUs);
  for (RecRequest& request : requests) request.deadline_us = kDeadlineUs;

  const auto start = std::chrono::steady_clock::now();
  const std::vector<RecResponse> got = engine->RecommendBatch(requests);
  const int64_t elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Well under the stall: the deadline budget bounded the wait. The margin
  // over kDeadlineUs absorbs sanitizer/scheduler overhead without letting
  // a wait-for-the-stall bug pass.
  EXPECT_LT(elapsed_ms, kStallUs / 1000 - 400) << "completed late";
  ExpectAllDegraded(got, {1}, "stalled shard");
  ExpectBitIdentical(got, DegradedOracle(dataset, 1, 2, {ranges[1]}, requests),
                     "stalled-shard content");

  // The rpc_timeout_ms cap bounds deadline-less batches the same way.
  auto capped = ConnectTo(servers, /*rpc_timeout_ms=*/100);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<RecResponse> timed =
      capped.value()->RecommendBatch(ShardRequests());
  const int64_t timed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(timed_ms, kStallUs / 1000 - 400) << "rpc timeout did not cap";
  ExpectAllDegraded(timed, {1}, "rpc-timeout cap");

  // Once the stall clears, the dropped connection re-dials and the engine
  // is whole again.
  servers[1]->set_stall_replies_us(0);
  const std::vector<RecResponse> recovered =
      engine->RecommendBatch(ShardRequests());
  ExpectAllOk(recovered, "post-stall");
  ExpectBitIdentical(recovered, reference.RecommendBatch(ShardRequests()),
                     "post-stall");
}

// An already-expired deadline fails the batch up front without tearing
// down healthy connections: nothing was sent, so nothing needs re-dialing.
TEST(DistributedServingTest, ExpiredDeadlineFailsFastWithoutDroppingConns) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const auto state = ServingSharedState::FromDataset(dataset, kItems);
  const auto servers =
      StartServers(model, state, MakeShardRanges(kItems, 2), kUsers);
  auto connected = ConnectTo(servers);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const auto& engine = connected.value();

  std::vector<RecRequest> requests = ShardRequests();
  ExpectAllOk(engine->RecommendBatch(requests), "warmup");

  requests[3].deadline_us = 0;  // one expired request expires the batch
  const std::vector<RecResponse> expired =
      engine->RecommendBatch(requests);
  ExpectAllDegraded(expired, {0, 1}, "expired");
  for (const RecResponse& response : expired) {
    EXPECT_TRUE(response.items.empty());
  }

  requests[3].deadline_us = -1;
  ExpectAllOk(engine->RecommendBatch(requests), "after expired");
  EXPECT_EQ(engine->reconnects(), 0u) << "expired batch dropped connections";
}

// ---- Admission composition ----

TEST(DistributedServingTest, AdmissionFrontEndPassesThroughUnchanged) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const ServingEngine reference(&model, dataset);
  const auto state = ServingSharedState::FromDataset(dataset, kItems);
  const auto ranges = MakeShardRanges(kItems, 3);
  auto servers = StartServers(model, state, ranges, kUsers);
  auto connected = ConnectTo(servers);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const auto& engine = connected.value();

  const AdmissionController admission(engine.get());

  // Concurrent singles coalesce into fused distributed batches; every
  // served response is bit-identical to the reference serving it alone.
  const std::vector<RecRequest> requests = ShardRequests();
  const std::vector<RecResponse> want = reference.RecommendBatch(requests);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < requests.size();
           i += kThreads) {
        const RecResponse got = admission.Recommend(requests[i]);
        if (got.status != RecStatus::kOk ||
            got.items.size() != want[i].items.size()) {
          ++failures[static_cast<size_t>(t)];
          continue;
        }
        for (size_t j = 0; j < want[i].items.size(); ++j) {
          if (got.items[j].item != want[i].items[j].item ||
              got.items[j].score != want[i].items[j].score) {
            ++failures[static_cast<size_t>(t)];
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], 0) << "thread " << t;
  }

  // kDegraded passes through admission untouched, items included.
  servers[2]->Stop();
  const RecResponse degraded = admission.Recommend(requests[0]);
  EXPECT_EQ(degraded.status, RecStatus::kDegraded);
  EXPECT_EQ(degraded.failed_shards, std::vector<Index>{2});
  const std::vector<RecResponse> oracle =
      DegradedOracle(dataset, 1, 2, {ranges[2]}, {requests[0]});
  ExpectBitIdentical({degraded}, oracle, "degraded through admission");
}

// ---- Startup validation and server-side input hardening ----

TEST(DistributedServingTest, ConnectRejectsBrokenLayoutsAndDeadAddresses) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const auto state = ServingSharedState::FromDataset(dataset, kItems);

  auto connect_ranges = [&](const std::vector<ItemBlock>& ranges) {
    const auto servers = StartServers(model, state, ranges, kUsers);
    return ConnectTo(servers).status();
  };
  // Overlap and hole both fail the tiling check.
  EXPECT_FALSE(connect_ranges({{0, 60}, {50, kItems}}).ok());
  EXPECT_FALSE(connect_ranges({{0, 40}, {50, kItems}}).ok());
  // Servers over different catalogs cannot form one engine.
  {
    const Index other_items = kItems + 23;
    Dataset other;
    other.num_users = kUsers;
    other.num_items = other_items;
    other.is_cold_item.assign(static_cast<size_t>(other_items), false);
    StaticRecommender other_model("other", RandomEmb(kUsers, kDim, 9),
                                  RandomEmb(other_items, kDim, 10));
    const auto other_state = ServingSharedState::FromDataset(other, other_items);
    auto servers = StartServers(model, state, {{0, 50}}, kUsers);
    auto more = StartServers(other_model, other_state, {{50, other_items}},
                             kUsers);
    servers.push_back(std::move(more[0]));
    EXPECT_FALSE(ConnectTo(servers).ok());
  }
  // A dead address fails Connect outright — a coordinator never starts
  // blind.
  DistributedServingOptions options;
  options.shard_addresses = {"127.0.0.1:1"};
  options.connect_timeout_ms = 200;
  options.retry_backoff_ms = 10;
  EXPECT_FALSE(DistributedServingEngine::Connect(std::move(options)).ok());
  DistributedServingOptions empty;
  EXPECT_FALSE(DistributedServingEngine::Connect(std::move(empty)).ok());
}

// Remote bytes must never abort the server: malformed frames and invalid
// requests get a wire error and a dropped connection, and the server keeps
// serving everyone else.
TEST(DistributedServingTest, ServerRefusesInvalidInputAndSurvives) {
  const Dataset dataset = ShardDataset();
  StaticRecommender model("dist", RandomEmb(kUsers, kDim, 1),
                          RandomEmb(kItems, kDim, 2));
  const auto state = ServingSharedState::FromDataset(dataset, kItems);
  const auto servers =
      StartServers(model, state, MakeShardRanges(kItems, 1), kUsers);
  const std::string& address = servers[0]->bound_address();

  // Expects the server to answer `payload` (sent after a valid handshake)
  // with a wire error and then hang up.
  auto expect_refusal = [&](wire::FrameType request_type,
                            const std::vector<uint8_t>& payload,
                            const std::string& label) {
    auto dialed = net::Connect(address, 1000);
    ASSERT_TRUE(dialed.ok()) << label << ": " << dialed.status().ToString();
    net::UniqueFd fd = std::move(dialed.value());
    ASSERT_TRUE(net::SendFrame(fd.get(), wire::FrameType::kHello,
                               wire::EncodeHello(), 1000)
                    .ok())
        << label;
    wire::FrameType type;
    std::vector<uint8_t> reply;
    ASSERT_TRUE(net::RecvFrame(fd.get(), &type, &reply, 1000).ok()) << label;
    ASSERT_EQ(type, wire::FrameType::kShardInfo) << label;
    ASSERT_TRUE(net::SendFrame(fd.get(), request_type, payload, 1000).ok())
        << label;
    ASSERT_TRUE(net::RecvFrame(fd.get(), &type, &reply, 1000).ok()) << label;
    EXPECT_EQ(type, wire::FrameType::kError) << label;
    // The connection is dropped after a refusal.
    EXPECT_FALSE(net::RecvFrame(fd.get(), &type, &reply, 1000).ok()) << label;
  };

  RecRequest bad_candidate;
  bad_candidate.user = 0;
  bad_candidate.k = 3;
  bad_candidate.exclusion = ExclusionPolicy::kNone;
  bad_candidate.candidates = {kItems + 5};
  expect_refusal(wire::FrameType::kRecRequestBatch,
                 wire::EncodeRequestBatch({bad_candidate}), "bad candidate");

  RecRequest bad_k;
  bad_k.user = 0;
  bad_k.k = 0;
  expect_refusal(wire::FrameType::kRecRequestBatch,
                 wire::EncodeRequestBatch({bad_k}), "k = 0");

  RecRequest bad_user;
  bad_user.user = kUsers + 3;
  bad_user.k = 3;
  expect_refusal(wire::FrameType::kRecRequestBatch,
                 wire::EncodeRequestBatch({bad_user}), "user beyond catalog");

  // A non-request frame where a request belongs.
  expect_refusal(wire::FrameType::kHello, wire::EncodeHello(),
                 "hello after handshake");
  // Truncated request bytes.
  expect_refusal(wire::FrameType::kRecRequestBatch, {1, 2, 3},
                 "truncated batch");

  // A client skipping the handshake is refused too.
  {
    auto dialed = net::Connect(address, 1000);
    ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
    net::UniqueFd fd = std::move(dialed.value());
    RecRequest fine;
    fine.user = 0;
    fine.k = 3;
    ASSERT_TRUE(net::SendFrame(fd.get(), wire::FrameType::kRecRequestBatch,
                               wire::EncodeRequestBatch({fine}), 1000)
                    .ok());
    wire::FrameType type;
    std::vector<uint8_t> reply;
    ASSERT_TRUE(net::RecvFrame(fd.get(), &type, &reply, 1000).ok());
    EXPECT_EQ(type, wire::FrameType::kError);
  }

  // After all that abuse, a well-behaved coordinator still gets correct
  // answers.
  auto connected = ConnectTo(servers);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const ServingEngine reference(&model, dataset);
  const std::vector<RecRequest> requests = ShardRequests();
  const std::vector<RecResponse> got =
      connected.value()->RecommendBatch(requests);
  ExpectAllOk(got, "after abuse");
  ExpectBitIdentical(got, reference.RecommendBatch(requests), "after abuse");
}

TEST(DistributedServingTest, RecStatusNameCoversDegraded) {
  EXPECT_STREQ(RecStatusName(RecStatus::kDegraded), "DEGRADED");
}

}  // namespace
}  // namespace firzen
