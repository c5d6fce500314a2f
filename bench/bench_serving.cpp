// End-to-end serving benchmark: fused block-streaming ScoreBlock + bounded
// min-heap Top-K (ServingEngine) against the legacy materialize-then-rank
// path (full users x catalog score matrix, then per-user heaps). The fused
// path's peak transient is user_batch * item_block, independent of catalog
// size — the label records both footprints. Results are verified
// bit-identical at startup before timing. BM_ServingDistributed serves the
// same catalog through 1/2/4 shard-server sockets behind ONE coordinator,
// parity-gated against the in-process sharded engine, charting the wire +
// fan-out overhead. BM_ServingAdmission charts what
// the admission front end buys: 8 concurrent single-request threads served
// unbatched vs coalesced into fused user batches (one catalog stream per
// batch instead of one per request), with p50/p95/p99 per-request latency
// counters alongside the throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/data/dataset.h"
#include "src/eval/admission.h"
#include "src/eval/serving.h"
#include "src/eval/sharded_serving.h"
#include "src/models/serialize.h"
#include "src/serve/distributed_serving.h"
#include "src/serve/shard_server.h"
#include "src/tensor/quantized.h"
#include "src/util/ranking.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

struct ServingWorld {
  Dataset dataset;
  StaticRecommender model;
  std::vector<Index> users;
};

ServingWorld* MakeWorld(Index num_users, Index num_items, Index dim,
                        Index batch) {
  Rng rng(13);
  Matrix user_emb(num_users, dim);
  user_emb.FillNormal(&rng, 1.0);
  Matrix item_emb(num_items, dim);
  item_emb.FillNormal(&rng, 1.0);
  auto* world = new ServingWorld{
      Dataset{}, StaticRecommender("bench", std::move(user_emb),
                                   std::move(item_emb)),
      {}};
  world->dataset.num_users = num_users;
  world->dataset.num_items = num_items;
  world->dataset.is_cold_item.assign(static_cast<size_t>(num_items), false);
  // Sparse synthetic train history so exclusion lookups are exercised.
  for (Index u = 0; u < num_users; ++u) {
    for (int t = 0; t < 8; ++t) {
      world->dataset.train.push_back({u, rng.UniformInt(num_items)});
    }
  }
  for (Index u = 0; u < batch; ++u) {
    world->users.push_back(u % num_users);
  }
  return world;
}

std::vector<std::vector<Recommendation>> MaterializeThenRank(
    const StaticRecommender& model,
    const std::vector<std::vector<Index>>& seen,
    const std::vector<Index>& users, Index k, Matrix* scores) {
  model.Score(users, scores);  // full users x catalog matrix
  std::vector<std::vector<Recommendation>> results(users.size());
  ParallelFor(
      ThreadPool::Global(), static_cast<Index>(users.size()),
      [&](Index begin, Index end) {
        TopKHeap heap(k);
        for (Index r = begin; r < end; ++r) {
          const auto& exclude = seen[static_cast<size_t>(
              users[static_cast<size_t>(r)])];
          const Real* row = scores->row(r);
          heap.Reset();
          for (Index item = 0; item < scores->cols(); ++item) {
            if (std::binary_search(exclude.begin(), exclude.end(), item)) {
              continue;
            }
            heap.Push(item, row[item]);
          }
          const auto& top = heap.Sorted();
          results[static_cast<size_t>(r)].assign(top.size(), {});
          for (size_t j = 0; j < top.size(); ++j) {
            results[static_cast<size_t>(r)][j] = {top[j].item, top[j].score};
          }
        }
      },
      /*min_shard_size=*/8);
  return results;
}

std::vector<RecRequest> MakeRequests(const std::vector<Index>& users,
                                     Index k) {
  std::vector<RecRequest> requests;
  requests.reserve(users.size());
  for (Index user : users) {
    RecRequest request;
    request.user = user;
    request.k = k;
    requests.push_back(std::move(request));
  }
  return requests;
}

// Both paths must agree bit-for-bit; abort the benchmark binary otherwise so
// a regression can never report a "speedup".
void CheckParity(const ServingWorld& world, const ServingEngine& engine,
                 Index k) {
  Matrix scores;
  const auto expected = MaterializeThenRank(
      world.model, world.dataset.TrainItemsByUser(), world.users, k, &scores);
  const auto got = engine.RecommendBatch(MakeRequests(world.users, k));
  if (got.size() != expected.size()) std::abort();
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].items.size() != expected[r].size()) std::abort();
    for (size_t j = 0; j < expected[r].size(); ++j) {
      if (got[r].items[j].item != expected[r][j].item ||
          got[r].items[j].score != expected[r][j].score) {
        std::fprintf(stderr, "serving parity failure at user row %zu\n", r);
        std::abort();
      }
    }
  }
}

// Label suffix for rows that ask for more catalog shards or request
// threads than the host has hardware threads: such a row measures the
// overhead of the extra shards or threads (merge, per-shard arenas,
// contention), not scaling.
std::string OverheadLabel(Index parallelism) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0 || parallelism <= static_cast<Index>(hw)) return "";
  return " overhead_row(hw_threads=" + std::to_string(hw) + ")";
}

std::string FootprintLabel(Index batch, Index block, Index num_items) {
  const double panel_mb =
      static_cast<double>(batch) * block * sizeof(Real) / (1 << 20);
  const double full_mb =
      static_cast<double>(batch) * num_items * sizeof(Real) / (1 << 20);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "panel=%.1fMB full=%.1fMB threads=%d", panel_mb, full_mb,
                GlobalPoolThreadCount());
  return buf;
}

void BM_ServingFused(benchmark::State& state) {
  const Index num_items = state.range(0);
  const Index batch = state.range(1);
  constexpr Index kTop = 20;
  static ServingWorld* world = nullptr;
  static Index world_items = -1;
  static Index world_batch = -1;
  if (world_items != num_items || world_batch != batch) {
    delete world;
    world = MakeWorld(4096, num_items, 64, batch);
    world_items = num_items;
    world_batch = batch;
  }
  ServingEngineOptions options;  // default bounded item_block
  ServingEngine engine(&world->model, world->dataset, options);
  CheckParity(*world, engine, kTop);
  const auto requests = MakeRequests(world->users, kTop);
  for (auto _ : state) {
    auto responses = engine.RecommendBatch(requests);
    benchmark::DoNotOptimize(responses.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * num_items);
  state.SetLabel(FootprintLabel(batch, options.item_block, num_items));
}
BENCHMARK(BM_ServingFused)
    ->Args({131072, 64})
    ->Args({131072, 256})
    ->Unit(benchmark::kMillisecond);

void BM_ServingMaterializeSeedRef(benchmark::State& state) {
  const Index num_items = state.range(0);
  const Index batch = state.range(1);
  constexpr Index kTop = 20;
  ServingWorld* world = MakeWorld(4096, num_items, 64, batch);
  const auto seen = world->dataset.TrainItemsByUser();
  Matrix scores;  // reused, but still the full batch x catalog footprint
  for (auto _ : state) {
    auto results =
        MaterializeThenRank(world->model, seen, world->users, kTop, &scores);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * num_items);
  state.SetLabel(FootprintLabel(batch, num_items, num_items));
  delete world;
}
BENCHMARK(BM_ServingMaterializeSeedRef)
    ->Args({131072, 64})
    ->Args({131072, 256})
    ->Unit(benchmark::kMillisecond);

// Throughput scaling of ONE shared engine under concurrent request
// threads (the thread-safe shared-scorer contract): every benchmark thread
// drives the same ServingEngine with its own request batch. Parity with
// the single-threaded reference is asserted once at setup. 1/2/4 request
// threads chart the scaling curve in BENCH_kernels.json; rows with more
// threads than the host has hardware threads are labelled overhead_row.
void BM_ServingConcurrent(benchmark::State& state) {
  const Index num_items = state.range(0);
  const Index batch = state.range(1);
  constexpr Index kTop = 20;
  static std::mutex setup_mu;
  static ServingWorld* world = nullptr;
  static ServingEngine* engine = nullptr;
  static Index world_items = -1;
  static Index world_batch = -1;
  {
    // All benchmark threads enter; first one (re)builds the shared world.
    std::lock_guard<std::mutex> lock(setup_mu);
    if (world_items != num_items || world_batch != batch) {
      delete engine;
      delete world;
      world = MakeWorld(4096, num_items, 64, batch);
      engine = new ServingEngine(&world->model, world->dataset);
      CheckParity(*world, *engine, kTop);
      world_items = num_items;
      world_batch = batch;
    }
  }
  // Per-thread request slice: same users, rotated so concurrent threads
  // exercise distinct gather batches against the one shared scorer.
  std::vector<Index> users = world->users;
  std::rotate(users.begin(),
              users.begin() + (static_cast<size_t>(state.thread_index()) *
                               7 % users.size()),
              users.end());
  const auto requests = MakeRequests(users, kTop);
  for (auto _ : state) {
    auto responses = engine->RecommendBatch(requests);
    benchmark::DoNotOptimize(responses.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * num_items);
  if (state.thread_index() == 0) {
    state.SetLabel(FootprintLabel(batch, ServingEngineOptions{}.item_block,
                                  num_items) +
                   " req_threads=" + std::to_string(state.threads()) +
                   OverheadLabel(state.threads()));
  }
}
BENCHMARK(BM_ServingConcurrent)
    ->Args({131072, 64})
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Sharded-catalog serving: one ServingEngine whose item table is
// partitioned into 1/2/4 shards (views of ONE base scorer, per-shard top-K
// merged bit-exactly, asserted against the unsharded answer at setup),
// crossed with 1/4 concurrent request threads sharing the engine. Charts
// what horizontal catalog partitioning costs (merge + per-shard arenas)
// and buys (parallel shard ranking) in BENCH_kernels.json. Rows with more
// shards or threads than the host has hardware threads are labelled
// overhead_row: there they measure overhead, not scaling.
void BM_ServingSharded(benchmark::State& state) {
  const Index num_items = state.range(0);
  const Index batch = state.range(1);
  const Index shards = state.range(2);
  constexpr Index kTop = 20;
  static std::mutex setup_mu;
  static ServingWorld* world = nullptr;
  static ServingEngine* engine = nullptr;
  static Index world_items = -1;
  static Index world_batch = -1;
  static Index world_shards = -1;
  {
    // All benchmark threads enter; first one (re)builds the shared world.
    std::lock_guard<std::mutex> lock(setup_mu);
    if (world_items != num_items || world_batch != batch ||
        world_shards != shards) {
      delete engine;
      delete world;
      world = MakeWorld(4096, num_items, 64, batch);
      ServingEngineOptions options;
      options.num_shards = shards;
      engine = new ServingEngine(&world->model, world->dataset, options);
      // Parity gate: the sharded merge must reproduce the single-engine
      // (== seed materialize-then-rank) answer bit-for-bit before timing.
      const ServingEngine reference(&world->model, world->dataset);
      const auto requests = MakeRequests(world->users, kTop);
      const auto want = reference.RecommendBatch(requests);
      const auto got = engine->RecommendBatch(requests);
      if (got.size() != want.size()) std::abort();
      for (size_t r = 0; r < got.size(); ++r) {
        if (got[r].items.size() != want[r].items.size()) std::abort();
        for (size_t j = 0; j < want[r].items.size(); ++j) {
          if (got[r].items[j].item != want[r].items[j].item ||
              got[r].items[j].score != want[r].items[j].score) {
            std::fprintf(stderr,
                         "sharded parity failure at user row %zu (shards=%lld)\n",
                         r, static_cast<long long>(shards));
            std::abort();
          }
        }
      }
      world_items = num_items;
      world_batch = batch;
      world_shards = shards;
    }
  }
  // Per-thread request slice, rotated as in BM_ServingConcurrent.
  std::vector<Index> users = world->users;
  std::rotate(users.begin(),
              users.begin() + (static_cast<size_t>(state.thread_index()) *
                               7 % users.size()),
              users.end());
  const auto requests = MakeRequests(users, kTop);
  for (auto _ : state) {
    auto responses = engine->RecommendBatch(requests);
    benchmark::DoNotOptimize(responses.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * num_items);
  if (state.thread_index() == 0) {
    state.SetLabel(FootprintLabel(batch, ServingEngineOptions{}.item_block,
                                  num_items) +
                   " shards=" + std::to_string(shards) +
                   " req_threads=" + std::to_string(state.threads()) +
                   OverheadLabel(std::max<Index>(shards, state.threads())));
  }
}
BENCHMARK(BM_ServingSharded)
    ->Args({131072, 64, 1})
    ->Args({131072, 64, 2})
    ->Args({131072, 64, 4})
    ->Threads(1)
    ->Threads(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Distributed serving over real loopback sockets: the same catalog served
// by 1/2/4 in-process ShardServers (each behind its own TCP connection),
// fanned out to by ONE DistributedServingEngine. The parity gate at setup
// asserts the distributed answer is bit-identical to the in-process
// ServingEngine over the same layout — the contract that makes
// moving a shard behind a socket observably free — and after timing the
// run aborts if ANY rpc failed or degraded (a degraded pass would time
// the timeout path, not serving). Charts the wire + fan-out overhead on
// top of BM_ServingSharded; counters record the realized bytes per
// request so protocol bloat shows up in BENCH_kernels.json.
void BM_ServingDistributed(benchmark::State& state) {
  const Index num_items = state.range(0);
  const Index batch = state.range(1);
  const Index shards = state.range(2);
  constexpr Index kTop = 20;
  static ServingWorld* world = nullptr;
  static std::vector<std::unique_ptr<ShardServer>>* servers = nullptr;
  static std::unique_ptr<DistributedServingEngine> engine;
  static Index world_items = -1;
  static Index world_batch = -1;
  static Index world_shards = -1;
  if (world_items != num_items || world_batch != batch ||
      world_shards != shards) {
    engine.reset();
    delete servers;
    delete world;
    world = MakeWorld(4096, num_items, 64, batch);
    const auto shared_state =
        ServingSharedState::FromDataset(world->dataset, num_items);
    servers = new std::vector<std::unique_ptr<ShardServer>>();
    DistributedServingOptions options;
    ShardServerOptions server_options;
    server_options.num_users = world->dataset.num_users;
    for (const ItemBlock& range : MakeShardRanges(num_items, shards)) {
      servers->push_back(std::make_unique<ShardServer>(
          world->model.MakeScorer(), shared_state, range, server_options));
      if (!servers->back()->Start().ok()) std::abort();
      options.shard_addresses.push_back(servers->back()->bound_address());
    }
    auto connected = DistributedServingEngine::Connect(std::move(options));
    if (!connected.ok()) {
      std::fprintf(stderr, "%s\n", connected.status().ToString().c_str());
      std::abort();
    }
    engine = std::move(connected.value());
    // Parity gate: the socket hop must be invisible in the answer.
    ServingEngineOptions sharded_options;
    sharded_options.num_shards = shards;
    const ServingEngine reference(&world->model, world->dataset,
                                  sharded_options);
    const auto requests = MakeRequests(world->users, kTop);
    const auto want = reference.RecommendBatch(requests);
    const auto got = engine->RecommendBatch(requests);
    if (got.size() != want.size()) std::abort();
    for (size_t r = 0; r < got.size(); ++r) {
      if (got[r].status != RecStatus::kOk ||
          got[r].items.size() != want[r].items.size()) {
        std::abort();
      }
      for (size_t j = 0; j < want[r].items.size(); ++j) {
        if (got[r].items[j].item != want[r].items[j].item ||
            got[r].items[j].score != want[r].items[j].score) {
          std::fprintf(stderr,
                       "distributed parity failure at user row %zu "
                       "(shards=%lld)\n",
                       r, static_cast<long long>(shards));
          std::abort();
        }
      }
    }
    world_items = num_items;
    world_batch = batch;
    world_shards = shards;
  }
  const auto requests = MakeRequests(world->users, kTop);
  const uint64_t failed_before = engine->failed_shard_rpcs();
  const uint64_t bytes_before =
      engine->bytes_sent() + engine->bytes_received();
  uint64_t responses_served = 0;
  for (auto _ : state) {
    auto responses = engine->RecommendBatch(requests);
    responses_served += responses.size();
    benchmark::DoNotOptimize(responses.data());
  }
  if (engine->failed_shard_rpcs() != failed_before) {
    std::fprintf(stderr, "distributed benchmark degraded mid-run\n");
    std::abort();
  }
  state.SetItemsProcessed(state.iterations() * batch * num_items);
  const uint64_t wire_bytes =
      engine->bytes_sent() + engine->bytes_received() - bytes_before;
  state.counters["wire_bytes_per_req"] =
      responses_served == 0
          ? 0.0
          : static_cast<double>(wire_bytes) /
                static_cast<double>(responses_served);
  state.SetLabel(FootprintLabel(batch, ShardServerOptions{}.item_block,
                                num_items) +
                 " shards=" + std::to_string(shards) + " transport=tcp");
}
BENCHMARK(BM_ServingDistributed)
    ->Args({131072, 64, 1})
    ->Args({131072, 64, 2})
    ->Args({131072, 64, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Admission batching under concurrent single-request traffic: 8 request
// threads each fire one-user queries at ONE shared engine. admission=0 is
// the unbatched shared-engine baseline (every request pays its own full
// catalog stream); admission=1 sends them to an AdmissionController in
// front of the engine, so concurrent requests coalesce into fused user
// batches — one catalog stream, one batched Gemm per panel, per batch. The
// parity gate at setup asserts fused responses are bit-identical to
// serving each request alone (the coalescing contract; scores are
// batch-size-invariant). Besides throughput, the run reports p50/p95/p99
// per-request latency and — for admission=1 — the realized
// requests-per-fused-batch factor.
void BM_ServingAdmission(benchmark::State& state) {
  const Index num_items = state.range(0);
  const bool admission = state.range(1) != 0;
  constexpr int kThreads = 8;
  constexpr int kReqsPerThread = 2;  // single-user requests per iteration
  constexpr Index kTop = 20;
  static ServingWorld* world = nullptr;
  static Index world_items = -1;
  if (world_items != num_items) {
    delete world;
    world = MakeWorld(4096, num_items, 64, /*batch=*/64);
    world_items = num_items;
  }
  const ServingEngine engine(&world->model, world->dataset);
  AdmissionOptions admission_options;  // max_batch 64, max_wait_us 200
  const AdmissionController controller(&engine, admission_options);
  if (admission) {
    // Parity gate: a fused batch must reproduce each request's stand-alone
    // answer bit-for-bit, or the "speedup" would be meaningless.
    std::vector<RecRequest> probe;
    for (Index u = 0; u < kThreads; ++u) {
      RecRequest request;
      request.user = u;
      request.k = kTop;
      probe.push_back(std::move(request));
    }
    const auto fused = controller.RecommendBatch(probe);
    for (size_t i = 0; i < probe.size(); ++i) {
      const RecResponse alone = engine.RecommendBatch({probe[i]})[0];
      if (fused[i].items.size() != alone.items.size()) std::abort();
      for (size_t j = 0; j < alone.items.size(); ++j) {
        if (fused[i].items[j].item != alone.items[j].item ||
            fused[i].items[j].score != alone.items[j].score) {
          std::fprintf(stderr, "admission parity failure at request %zu\n", i);
          std::abort();
        }
      }
    }
  }

  std::mutex latency_mu;
  std::vector<double> latencies_us;  // across all iterations and threads
  const uint64_t fused_before = controller.fused_batches();
  const uint64_t admitted_before = controller.admitted_requests();
  Index user_seed = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      const Index base = user_seed + t * 131;
      threads.emplace_back([&, base] {
        std::vector<double> local;
        local.reserve(kReqsPerThread);
        for (int r = 0; r < kReqsPerThread; ++r) {
          RecRequest request;
          request.user = (base + r * 17) %
                         static_cast<Index>(world->dataset.num_users);
          request.k = kTop;
          const auto t0 = std::chrono::steady_clock::now();
          const RecResponse response = admission
                                           ? controller.Recommend(request)
                                           : engine.Recommend(request);
          const auto t1 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(response.items.data());
          local.push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
        std::lock_guard<std::mutex> lock(latency_mu);
        latencies_us.insert(latencies_us.end(), local.begin(), local.end());
      });
    }
    for (std::thread& thread : threads) thread.join();
    user_seed += kThreads * 131;
  }
  state.SetItemsProcessed(state.iterations() * kThreads * kReqsPerThread *
                          num_items);

  std::sort(latencies_us.begin(), latencies_us.end());
  const auto percentile = [&](double q) {
    if (latencies_us.empty()) return 0.0;
    const size_t idx = std::min(
        latencies_us.size() - 1,
        static_cast<size_t>(q * static_cast<double>(latencies_us.size())));
    return latencies_us[idx];
  };
  state.counters["p50_us"] = percentile(0.50);
  state.counters["p95_us"] = percentile(0.95);
  state.counters["p99_us"] = percentile(0.99);
  if (admission) {
    const uint64_t fused = controller.fused_batches() - fused_before;
    const uint64_t admitted = controller.admitted_requests() - admitted_before;
    state.counters["reqs_per_fused_batch"] =
        fused == 0 ? 0.0
                   : static_cast<double>(admitted) / static_cast<double>(fused);
  }
  state.SetLabel(FootprintLabel(kThreads * kReqsPerThread,
                                ServingEngineOptions{}.item_block, num_items) +
                 (admission ? " admission=on" : " admission=off"));
}
BENCHMARK(BM_ServingAdmission)
    ->Args({131072, 0})
    ->Args({131072, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Quantized serving end to end: the fused engine minting its scorer at
// --precision int8 (per-row symmetric int8 catalog + GemmBTQuant on the
// dispatched SIMD tier, recorded in the JSON context) vs the identical
// engine at fp32 (precision=0, the baseline row). The parity gate at setup
// is the int8 bit-identity contract, not fp32 equality (int8 scores
// legitimately differ): the same int8 requests served through a 3-shard
// engine must reproduce the single-engine int8 answer bit-for-bit before
// timing — quality vs fp32 is the quant_quality_test ctest gate's job.
void BM_ServingQuantized(benchmark::State& state) {
  const Index num_items = state.range(0);
  const Index batch = state.range(1);
  const bool int8 = state.range(2) != 0;
  constexpr Index kTop = 20;
  static ServingWorld* world = nullptr;
  static Index world_items = -1;
  static Index world_batch = -1;
  if (world_items != num_items || world_batch != batch) {
    delete world;
    world = MakeWorld(4096, num_items, 64, batch);
    world_items = num_items;
    world_batch = batch;
  }
  ServingEngineOptions options;
  options.precision =
      int8 ? ScoringPrecision::kInt8 : ScoringPrecision::kFp32;
  ServingEngine engine(&world->model, world->dataset, options);
  const auto requests = MakeRequests(world->users, kTop);
  if (int8) {
    ServingEngineOptions sharded_options;
    sharded_options.num_shards = 3;
    sharded_options.precision = ScoringPrecision::kInt8;
    const ServingEngine sharded(&world->model, world->dataset,
                                sharded_options);
    const auto want = engine.RecommendBatch(requests);
    const auto got = sharded.RecommendBatch(requests);
    if (got.size() != want.size()) std::abort();
    for (size_t r = 0; r < got.size(); ++r) {
      if (got[r].items.size() != want[r].items.size()) std::abort();
      for (size_t j = 0; j < want[r].items.size(); ++j) {
        if (got[r].items[j].item != want[r].items[j].item ||
            got[r].items[j].score != want[r].items[j].score) {
          std::fprintf(stderr,
                       "quantized bit-identity failure at user row %zu\n", r);
          std::abort();
        }
      }
    }
  } else {
    CheckParity(*world, engine, kTop);  // fp32 row: the usual seed parity
  }
  for (auto _ : state) {
    auto responses = engine.RecommendBatch(requests);
    benchmark::DoNotOptimize(responses.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * num_items);
  state.SetLabel(FootprintLabel(batch, options.item_block, num_items) +
                 (int8 ? std::string(" precision=int8 tier=") +
                             SimdTierName(DispatchedSimdTier())
                       : " precision=fp32"));
}
BENCHMARK(BM_ServingQuantized)
    ->Args({131072, 256, 0})
    ->Args({131072, 256, 1})
    ->Unit(benchmark::kMillisecond);

// Open-loop saturation sweep: Poisson arrivals fired at a configured
// offered rate REGARDLESS of whether the server keeps up (open-loop — the
// arrival process never backs off, unlike the closed-loop benchmarks above
// where the next request waits for the previous answer, which silently
// caps offered load at capacity and hides overload behavior). The engine
// sits behind an AdmissionController with a bounded ticket queue
// (max_queue_depth, shed with hysteresis), so driving the offered rate
// past saturation must show BOUNDED served p99 with a NONZERO shed rate
// instead of a collapsing queue. The benchmark arg is the offered rate as
// a percent of the measured closed-loop capacity — {70, 150, 300} bracket
// saturation portably across machines. Counters recorded into
// BENCH_kernels.json: offered_rps, goodput_rps (served requests per
// second of open-loop wall time), shed_rate (shed / offered), and
// p50_ms/p99_ms of SERVED request latency measured from the scheduled
// arrival time (so queueing delay from falling behind schedule counts).
void BM_ServingSaturation(benchmark::State& state) {
  const Index offered_pct = state.range(0);
  constexpr Index kItems = 16384;  // small catalog: fast passes, high rps
  constexpr Index kTop = 10;
  constexpr int kWorkers = 16;     // arrival threads (open-loop firing)
  constexpr int kArrivals = 480;   // Poisson arrivals per iteration
  static ServingWorld* world = nullptr;
  static double capacity_rps = 0.0;
  if (world == nullptr) {
    world = MakeWorld(4096, kItems, 64, /*batch=*/64);
    // Closed-loop capacity probe: 8 threads hammer the coalesced engine
    // back-to-back; the sustained rate anchors the offered-rate sweep.
    const ServingEngine engine(&world->model, world->dataset);
    const AdmissionController controller(&engine);
    constexpr int kProbeThreads = 8;
    constexpr int kProbeReqs = 40;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> probes;
    probes.reserve(kProbeThreads);
    for (int t = 0; t < kProbeThreads; ++t) {
      probes.emplace_back([&, t] {
        for (int r = 0; r < kProbeReqs; ++r) {
          RecRequest request;
          request.user = static_cast<Index>((t * kProbeReqs + r) %
                                            world->dataset.num_users);
          request.k = kTop;
          const RecResponse response = controller.Recommend(request);
          benchmark::DoNotOptimize(response.items.data());
        }
      });
    }
    for (std::thread& thread : probes) thread.join();
    const double probe_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    capacity_rps = kProbeThreads * kProbeReqs / probe_s;
  }

  const ServingEngine engine(&world->model, world->dataset);
  AdmissionOptions admission_options;
  admission_options.max_batch = 64;
  admission_options.max_wait_us = 200;
  // The backstop must sit BELOW the arrival concurrency: queue depth can
  // never exceed the number of blocked callers, so a watermark above
  // kWorkers would never trip and overload would show up as unbounded
  // worker lag instead of explicit shedding.
  admission_options.max_queue_depth = 8;
  admission_options.resume_queue_depth = 4;
  const AdmissionController controller(&engine, admission_options);

  const double offered_rps =
      capacity_rps * static_cast<double>(offered_pct) / 100.0;
  std::vector<double> served_latencies_us;
  uint64_t served = 0;
  uint64_t shed = 0;
  double open_loop_s = 0.0;
  Rng rng(17 + static_cast<uint64_t>(offered_pct));
  for (auto _ : state) {
    // Pre-draw the Poisson schedule (exponential inter-arrival gaps at the
    // offered rate) so no RNG work rides the timed path.
    std::vector<double> schedule_us(kArrivals);
    double clock_us = 0.0;
    for (int i = 0; i < kArrivals; ++i) {
      const double u = static_cast<double>(rng.Uniform());
      clock_us += -std::log(1.0 - u) / offered_rps * 1e6;
      schedule_us[i] = clock_us;
    }
    std::mutex lat_mu;
    std::vector<double> local_latencies;
    std::atomic<uint64_t> local_served{0};
    std::atomic<uint64_t> local_shed{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        std::vector<double> mine;
        // Worker w fires arrivals w, w + kWorkers, ... at their scheduled
        // times; it does NOT wait for the previous answer before the next
        // arrival is due (open-loop within the worker stride).
        for (int i = w; i < kArrivals; i += kWorkers) {
          const auto due =
              start + std::chrono::microseconds(
                          static_cast<int64_t>(schedule_us[i]));
          std::this_thread::sleep_until(due);
          RecRequest request;
          request.user =
              static_cast<Index>((i * 31) % world->dataset.num_users);
          request.k = kTop;
          const RecResponse response = controller.Recommend(request);
          const auto end = std::chrono::steady_clock::now();
          if (response.status == RecStatus::kOk) {
            local_served.fetch_add(1, std::memory_order_relaxed);
            // Latency from the SCHEDULED arrival, not the actual send: a
            // worker running late is queueing delay the client would see.
            mine.push_back(
                std::chrono::duration<double, std::micro>(end - due).count());
          } else {
            local_shed.fetch_add(1, std::memory_order_relaxed);
          }
          benchmark::DoNotOptimize(response.items.data());
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        local_latencies.insert(local_latencies.end(), mine.begin(),
                               mine.end());
      });
    }
    for (std::thread& thread : workers) thread.join();
    open_loop_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    served += local_served.load();
    shed += local_shed.load();
    served_latencies_us.insert(served_latencies_us.end(),
                               local_latencies.begin(),
                               local_latencies.end());
  }
  state.SetItemsProcessed(static_cast<int64_t>(served) * kItems);

  std::sort(served_latencies_us.begin(), served_latencies_us.end());
  const auto percentile = [&](double q) {
    if (served_latencies_us.empty()) return 0.0;
    const size_t idx = std::min(
        served_latencies_us.size() - 1,
        static_cast<size_t>(q *
                            static_cast<double>(served_latencies_us.size())));
    return served_latencies_us[idx];
  };
  const double offered = static_cast<double>(served + shed);
  state.counters["offered_rps"] = offered_rps;
  state.counters["goodput_rps"] =
      open_loop_s > 0.0 ? static_cast<double>(served) / open_loop_s : 0.0;
  state.counters["shed_rate"] =
      offered > 0.0 ? static_cast<double>(shed) / offered : 0.0;
  state.counters["p50_ms"] = percentile(0.50) / 1000.0;
  state.counters["p99_ms"] = percentile(0.99) / 1000.0;
  char label[128];
  std::snprintf(label, sizeof(label),
                "offered=%lld%%cap capacity=%.0frps queue_depth=%lld",
                static_cast<long long>(offered_pct), capacity_rps,
                static_cast<long long>(admission_options.max_queue_depth));
  state.SetLabel(label);
}
BENCHMARK(BM_ServingSaturation)
    ->Arg(70)
    ->Arg(150)
    ->Arg(300)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace firzen

// Hand-rolled main (instead of BENCHMARK_MAIN) so the JSON context records
// which SIMD tier the quantized serving rows dispatched.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "firzen_simd_tier",
      firzen::SimdTierName(firzen::DispatchedSimdTier()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
