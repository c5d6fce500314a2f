// AdmissionController suite: coalescing concurrent Recommend calls into
// fused user batches must be observably side-effect-free — every SERVED
// response bit-identical to the engine serving that request alone — because
// scores are batch-size-invariant (src/tensor/matrix.h) and requests ride
// private heaps. Also pins the dispatcher mechanics (size bound, wait
// bound, leader hand-off, stats) and the overload-protection policies:
// deadline-aware drains (EDF order, expired tickets rejected with
// kDeadlineExceeded instead of scored late),
// bounded-queue load shedding with hysteresis (kShed, distinct start/stop
// watermarks), per-tenant weighted fair share, and structured failure
// fan-out (a throwing fused pass rejects every coalesced ticket with
// kBackendError — covered by a fault-injection scorer that throws on the
// Nth ScoreBlock call). The multi-threaded stresses here run under the
// -DFIRZEN_SANITIZE=thread pass of tools/run_checks.sh (the -R filter
// matches this binary), making the ticket queue, the policy selection, and
// the leader-follower hand-off data-race canaries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/eval/admission.h"
#include "src/eval/serving.h"
#include "src/eval/sharded_serving.h"
#include "src/models/scorer.h"
#include "src/models/serialize.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

constexpr Index kUsers = 48;
constexpr Index kItems = 2500;
constexpr Index kDim = 16;

Matrix RandomEmb(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(&rng, 1.0);
  return m;
}

// Scorer that throws on the Nth ScoreBlock call (1-based) and scores
// normally otherwise — the fault model for "a backend died mid-pass". With
// `only_block_begin` >= 0, only calls scoring the block that starts at that
// item count toward N, which pins the fault to one item tile.
// Thread-safe: the counters are atomic, everything else delegates to a
// shared DotProductScorer.
class FaultInjectionScorer : public Scorer {
 public:
  FaultInjectionScorer(Matrix user_emb, Matrix item_emb, int throw_on_call,
                       Index only_block_begin = -1)
      : user_emb_(std::move(user_emb)),
        item_emb_(std::move(item_emb)),
        inner_(user_emb_, item_emb_),
        throw_on_(throw_on_call),
        only_block_begin_(only_block_begin) {}

  using Scorer::ScoreBlock;
  using Scorer::ScoreCandidates;

  Index num_items() const override { return inner_.num_items(); }

  void ScoreBlock(const std::vector<Index>& users, ItemBlock block,
                  MatrixView out, ScoringArena* arena) const override {
    calls_.fetch_add(1);
    if ((only_block_begin_ < 0 || block.begin == only_block_begin_) &&
        counted_.fetch_add(1) + 1 == throw_on_) {
      threw_on_worker_ = ThreadPool::InWorker();
      throw std::runtime_error("injected scorer fault");
    }
    inner_.ScoreBlock(users, block, out, arena);
  }

  void ScoreCandidates(const std::vector<Index>& users,
                       const std::vector<Index>& candidates, MatrixView out,
                       ScoringArena* arena) const override {
    inner_.ScoreCandidates(users, candidates, out, arena);
  }

  int score_block_calls() const { return calls_.load(); }
  // Whether the throwing call ran on a pool worker (read after the pass).
  bool threw_on_worker() const { return threw_on_worker_.load(); }

 private:
  Matrix user_emb_;
  Matrix item_emb_;
  DotProductScorer inner_;
  int throw_on_;
  Index only_block_begin_;
  mutable std::atomic<int> calls_{0};
  mutable std::atomic<int> counted_{0};
  mutable std::atomic<bool> threw_on_worker_{false};
};

// ScoreBlock calls one fused full-catalog pass makes: one per item tile.
int TilesPerPass(Index item_block) {
  return static_cast<int>((kItems + item_block - 1) / item_block);
}

class AdmissionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_.num_users = kUsers;
    dataset_.num_items = kItems;
    dataset_.is_cold_item.assign(static_cast<size_t>(kItems), false);
    for (Index i = 0; i < kItems; i += 7) {
      dataset_.is_cold_item[static_cast<size_t>(i)] = true;
    }
    Rng rng(11);
    for (Index u = 0; u < kUsers; ++u) {
      for (int t = 0; t < 12; ++t) {
        dataset_.train.push_back({u, rng.UniformInt(kItems)});
      }
    }
    model_ = std::make_unique<StaticRecommender>(
        "admission", RandomEmb(kUsers, kDim, 1), RandomEmb(kItems, kDim, 2));
  }

  // A mixed-traffic request list: full-catalog, explicit pools (equal,
  // unequal, duplicated entries), custom exclusions, the cold shelf, and
  // varying k — every batching mode the fused pass can take.
  std::vector<RecRequest> MixedRequests() const {
    std::vector<RecRequest> requests;
    Rng rng(23);
    for (Index u = 0; u < 20; ++u) {
      RecRequest request;
      request.user = u % kUsers;
      request.k = 5 + (u % 3) * 10;
      switch (u % 5) {
        case 0:
          break;  // full catalog
        case 1:
          for (int j = 0; j < 40; ++j) {
            request.candidates.push_back(rng.UniformInt(kItems));
          }
          break;
        case 2:
          request.candidates = {5, 9, 9, 123, 777, 5};  // dups
          break;
        case 3:
          request.exclusion = ExclusionPolicy::kCustom;
          request.exclude = {1, 2, 3, 2};
          break;
        case 4:
          request.cold_only = true;
          break;
      }
      requests.push_back(std::move(request));
    }
    return requests;
  }

  static void ExpectSameResponse(const RecResponse& got,
                                 const RecResponse& want, size_t tag) {
    ASSERT_EQ(got.status, RecStatus::kOk) << tag;
    ASSERT_EQ(got.user, want.user) << tag;
    ASSERT_EQ(got.items.size(), want.items.size()) << tag;
    for (size_t j = 0; j < want.items.size(); ++j) {
      ASSERT_EQ(got.items[j].item, want.items[j].item) << tag << " rank " << j;
      ASSERT_EQ(got.items[j].score, want.items[j].score)
          << tag << " rank " << j;
    }
  }

  Dataset dataset_;
  std::unique_ptr<StaticRecommender> model_;
};

// The coalescing contract itself: a request fused with arbitrary co-riders
// answers bit-identically to the same request served alone.
TEST_F(AdmissionFixture, FusedBatchesMatchServingAloneBitExact) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 8;  // force splitting across several fused passes
  options.max_wait_us = 0;
  const AdmissionController admission(&engine, options);

  const std::vector<RecRequest> requests = MixedRequests();
  const auto fused = admission.RecommendBatch(requests);
  ASSERT_EQ(fused.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const RecResponse alone = engine.RecommendBatch({requests[i]})[0];
    ExpectSameResponse(fused[i], alone, i);
  }
  EXPECT_EQ(admission.admitted_requests(), requests.size());
}

// The coalescing contract holds under EVERY drain policy, over both the
// plain and the sharded engine: drain order changes when a request is
// served, never what its served response holds.
TEST_F(AdmissionFixture, AllPoliciesPreserveCoalescingOnBothEngines) {
  const ServingEngine plain(model_.get(), dataset_);
  ServingEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  const ServingEngine sharded(model_.get(), dataset_, sharded_options);

  // Mixed traffic with the new ticket metadata on top: generous deadlines
  // (far too long to expire) and a tenant spread, so the deadline and
  // fair-share selection paths actually reorder the drains.
  std::vector<RecRequest> requests = MixedRequests();
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i % 2 == 0) {
      requests[i].deadline_us = 30'000'000 + static_cast<int64_t>(i) * 1000;
    }
    requests[i].tenant = static_cast<Index>(i % 3);
  }

  std::vector<RecResponse> want_plain;
  for (const RecRequest& request : requests) {
    want_plain.push_back(plain.RecommendBatch({request})[0]);
  }

  for (const DrainPolicy policy :
       {DrainPolicy::kFifo, DrainPolicy::kDeadline, DrainPolicy::kFairShare}) {
    AdmissionOptions options;
    options.max_batch = 8;
    options.max_wait_us = 0;
    options.drain_policy = policy;
    options.tenant_weights = {2, 1, 3};
    const AdmissionController plain_admission(&plain, options);
    const AdmissionController sharded_admission(&sharded, options);

    const auto via_plain = plain_admission.RecommendBatch(requests);
    const auto via_sharded = sharded_admission.RecommendBatch(requests);
    ASSERT_EQ(via_plain.size(), requests.size());
    ASSERT_EQ(via_sharded.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ExpectSameResponse(via_plain[i], want_plain[i], i);
      // The sharded engine is bit-identical to the plain one by the shard
      // invariance contract, so one reference pins both.
      ExpectSameResponse(via_sharded[i], want_plain[i], 1000 + i);
    }
    EXPECT_EQ(plain_admission.shed_requests(), 0u);
    EXPECT_EQ(plain_admission.deadline_rejections(), 0u);
  }
}

// Single-caller dispatch is deterministic: a 10-request batch under a
// 4-user size bound drains FIFO into fused passes of 4, 4, 2.
TEST_F(AdmissionFixture, SizeBoundSplitsDeterministically) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 4;
  options.max_wait_us = 0;
  const AdmissionController admission(&engine, options);

  std::vector<RecRequest> requests(10);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user = static_cast<Index>(i) % kUsers;
    requests[i].k = 7;
  }
  const auto responses = admission.RecommendBatch(requests);
  ASSERT_EQ(responses.size(), 10u);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].user, requests[i].user) << i;
    EXPECT_EQ(responses[i].status, RecStatus::kOk) << i;
  }
  EXPECT_EQ(admission.admitted_requests(), 10u);
  EXPECT_EQ(admission.fused_batches(), 3u);
}

// max_batch = 1 is the A/B baseline: every request runs alone.
TEST_F(AdmissionFixture, MaxBatchOneServesEveryRequestAlone) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 1;
  options.max_wait_us = 0;
  const AdmissionController admission(&engine, options);
  std::vector<RecRequest> requests(5);
  for (size_t i = 0; i < requests.size(); ++i) requests[i].user = 3;
  admission.RecommendBatch(requests);
  EXPECT_EQ(admission.fused_batches(), 5u);
}

// max_batch larger than the queue depth at drain time takes what is there:
// one fused pass, not an error and not a stall.
TEST_F(AdmissionFixture, MaxBatchLargerThanQueueDrainsWhatIsQueued) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 64;
  options.max_wait_us = 0;  // immediate drain
  const AdmissionController admission(&engine, options);
  std::vector<RecRequest> requests(5);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user = static_cast<Index>(i);
  }
  const auto responses = admission.RecommendBatch(requests);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status, RecStatus::kOk) << i;
  }
  EXPECT_EQ(admission.fused_batches(), 1u);
  EXPECT_EQ(admission.admitted_requests(), 5u);
}

// The wait bound must release an unfilled batch: a lone request returns
// (correctly) even though no co-rider ever arrives.
TEST_F(AdmissionFixture, WaitBoundReleasesLoneRequest) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 64;
  options.max_wait_us = 10000;  // 10ms: long enough to prove we waited out
  const AdmissionController admission(&engine, options);
  RecRequest request;
  request.user = 1;
  request.k = 9;
  const RecResponse got = admission.Recommend(request);
  const RecResponse want = engine.RecommendBatch({request})[0];
  ExpectSameResponse(got, want, 0);
  EXPECT_EQ(admission.fused_batches(), 1u);
}

// A sharded engine admits identically: fused responses match the sharded
// engine's own answers (which in turn match the unsharded engine by the
// shard-invariance contract).
TEST_F(AdmissionFixture, ShardedEngineAdmissionParity) {
  ServingEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  const ServingEngine engine(model_.get(), dataset_, sharded_options);
  AdmissionOptions options;
  options.max_batch = 6;
  options.max_wait_us = 0;
  const AdmissionController admission(&engine, options);

  const std::vector<RecRequest> requests = MixedRequests();
  const auto fused = admission.RecommendBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    const RecResponse alone = engine.RecommendBatch({requests[i]})[0];
    ExpectSameResponse(fused[i], alone, i);
  }
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

// A zero budget is already expired at enqueue: rejected immediately with
// kDeadlineExceeded, never queued, never scored.
TEST_F(AdmissionFixture, ZeroDeadlineRejectsAtEnqueue) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_wait_us = 0;
  const AdmissionController admission(&engine, options);
  RecRequest request;
  request.user = 7;
  request.k = 5;
  request.deadline_us = 0;
  const RecResponse got = admission.Recommend(request);
  EXPECT_EQ(got.status, RecStatus::kDeadlineExceeded);
  EXPECT_EQ(got.user, 7);
  EXPECT_TRUE(got.items.empty());
  EXPECT_EQ(admission.admitted_requests(), 0u);
  EXPECT_EQ(admission.fused_batches(), 0u);
  EXPECT_EQ(admission.deadline_rejections(), 1u);
}

// A ticket whose budget expires while the leader holds the batch open is
// rejected at drain time instead of scored late — and the collect wait is
// capped at the nearest deadline, so the rejection is prompt. A co-rider
// without a deadline still gets served, bit-exactly.
TEST_F(AdmissionFixture, ExpiredWhileQueuedIsRejectedNotScoredLate) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 64;
  options.max_wait_us = 500000;  // 500ms hold: way past the 2ms deadline
  const AdmissionController admission(&engine, options);

  std::vector<RecRequest> requests(2);
  requests[0].user = 1;
  requests[0].k = 5;
  requests[0].deadline_us = 2000;  // expires during the collect hold
  requests[1].user = 2;
  requests[1].k = 5;  // no deadline

  const auto t0 = std::chrono::steady_clock::now();
  const auto responses = admission.RecommendBatch(requests);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(responses[0].status, RecStatus::kDeadlineExceeded);
  EXPECT_TRUE(responses[0].items.empty());
  const RecResponse want = engine.RecommendBatch({requests[1]})[0];
  ExpectSameResponse(responses[1], want, 1);
  EXPECT_EQ(admission.deadline_rejections(), 1u);
  // The deadline capped the hold: we did NOT sit out the full 500ms wait
  // bound (generous margin for slow CI).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            400);
}

// DrainPolicy::kDeadline drains earliest-deadline-first: the batch whose
// oldest deadline is nearest goes first; deadline-less tickets rank last,
// in arrival order.
TEST_F(AdmissionFixture, DeadlinePolicyDrainsEarliestDeadlineFirst) {
  const ServingEngine engine(model_.get(), dataset_);
  std::vector<std::vector<Index>> drained;  // users per fused pass
  AdmissionOptions options;
  options.max_batch = 2;
  options.max_wait_us = 0;
  options.drain_policy = DrainPolicy::kDeadline;
  const AdmissionController admission(
      [&](const std::vector<RecRequest>& requests) {
        std::vector<Index> users;
        for (const RecRequest& r : requests) users.push_back(r.user);
        drained.push_back(std::move(users));
        return engine.RecommendBatch(requests);
      },
      options);

  // Arrival order 0..3; deadlines (none, 100ms, 50ms, none). EDF batches
  // of 2: [2, 1] then [0, 3]. Budgets are far too long to expire.
  std::vector<RecRequest> requests(4);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user = static_cast<Index>(i);
    requests[i].k = 3;
  }
  requests[1].deadline_us = 100000;
  requests[2].deadline_us = 50000;
  const auto responses = admission.RecommendBatch(requests);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status, RecStatus::kOk) << i;
  }
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], (std::vector<Index>{2, 1}));
  EXPECT_EQ(drained[1], (std::vector<Index>{0, 3}));
}

// ---------------------------------------------------------------------------
// Load shedding with hysteresis
// ---------------------------------------------------------------------------

// Deterministic single-caller shedding: a 10-request batch against a
// 4-deep queue admits the first 4 tickets, crosses the high watermark, and
// sheds the other 6 immediately — then the next call finds the queue
// drained below the resume watermark, un-sheds, and admits again. Both
// hysteresis crossings (start at max, stop at resume) in one sequence.
TEST_F(AdmissionFixture, ShedHysteresisCrossesBothWatermarks) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 64;
  options.max_wait_us = 0;
  options.max_queue_depth = 4;
  options.resume_queue_depth = 2;
  const AdmissionController admission(&engine, options);

  std::vector<RecRequest> requests(10);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user = static_cast<Index>(i) % kUsers;
    requests[i].k = 5;
  }
  const auto responses = admission.RecommendBatch(requests);
  for (size_t i = 0; i < 4; ++i) {
    const RecResponse alone = engine.RecommendBatch({requests[i]})[0];
    ExpectSameResponse(responses[i], alone, i);
  }
  for (size_t i = 4; i < 10; ++i) {
    EXPECT_EQ(responses[i].status, RecStatus::kShed) << i;
    EXPECT_EQ(responses[i].user, requests[i].user) << i;
    EXPECT_TRUE(responses[i].items.empty()) << i;
  }
  EXPECT_EQ(admission.admitted_requests(), 4u);
  EXPECT_EQ(admission.shed_requests(), 6u);

  // The queue has fully drained (0 <= resume watermark 2): shedding stops
  // and the same traffic admits 4 again before re-crossing the high
  // watermark.
  const auto second = admission.RecommendBatch(requests);
  size_t ok = 0;
  size_t shed = 0;
  for (const RecResponse& response : second) {
    if (response.status == RecStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response.status, RecStatus::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(shed, 6u);
  EXPECT_EQ(admission.admitted_requests(), 8u);
  EXPECT_EQ(admission.shed_requests(), 12u);
}

// Without a queue bound (the default), nothing is ever shed — the legacy
// unbounded behavior is preserved exactly.
TEST_F(AdmissionFixture, UnboundedQueueNeverSheds) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 2;
  options.max_wait_us = 0;
  const AdmissionController admission(&engine, options);
  std::vector<RecRequest> requests(30);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user = static_cast<Index>(i) % kUsers;
  }
  const auto responses = admission.RecommendBatch(requests);
  for (const RecResponse& response : responses) {
    EXPECT_EQ(response.status, RecStatus::kOk);
  }
  EXPECT_EQ(admission.shed_requests(), 0u);
}

// ---------------------------------------------------------------------------
// Per-tenant weighted fair share
// ---------------------------------------------------------------------------

// Deficit-style weighted round-robin: with weights {2, 1} and a hot tenant
// 0 that enqueued first, every fused pass still carries tenant 1 traffic —
// 2:1 interleave, never starvation.
TEST_F(AdmissionFixture, FairSharePolicyInterleavesTenantsByWeight) {
  const ServingEngine engine(model_.get(), dataset_);
  std::vector<std::vector<Index>> drained;  // users per fused pass
  AdmissionOptions options;
  options.max_batch = 3;
  options.max_wait_us = 0;
  options.drain_policy = DrainPolicy::kFairShare;
  options.tenant_weights = {2, 1};
  const AdmissionController admission(
      [&](const std::vector<RecRequest>& requests) {
        std::vector<Index> users;
        for (const RecRequest& r : requests) users.push_back(r.user);
        drained.push_back(std::move(users));
        return engine.RecommendBatch(requests);
      },
      options);

  // Hot tenant 0 floods first (users 0..5), tenant 1 queues behind
  // (users 40..42). FIFO would serve tenant 1 only in the last pass;
  // fair share interleaves every pass.
  std::vector<RecRequest> requests;
  for (Index u = 0; u < 6; ++u) {
    RecRequest request;
    request.user = u;
    request.tenant = 0;
    requests.push_back(std::move(request));
  }
  for (Index u = 40; u < 43; ++u) {
    RecRequest request;
    request.user = u;
    request.tenant = 1;
    requests.push_back(std::move(request));
  }
  const auto responses = admission.RecommendBatch(requests);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status, RecStatus::kOk) << i;
  }
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0], (std::vector<Index>{0, 1, 40}));
  EXPECT_EQ(drained[1], (std::vector<Index>{2, 3, 41}));
  EXPECT_EQ(drained[2], (std::vector<Index>{4, 5, 42}));
}

// Unknown tenants (and ids past the weight vector) weigh 1 instead of
// crashing or starving.
TEST_F(AdmissionFixture, FairShareDefaultsUnknownTenantsToWeightOne) {
  const ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 2;
  options.max_wait_us = 0;
  options.drain_policy = DrainPolicy::kFairShare;
  options.tenant_weights = {3};  // tenant 7 below is past the end
  const AdmissionController admission(&engine, options);
  std::vector<RecRequest> requests(4);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user = static_cast<Index>(i);
    requests[i].tenant = (i % 2 == 0) ? 0 : 7;
  }
  const auto responses = admission.RecommendBatch(requests);
  for (size_t i = 0; i < responses.size(); ++i) {
    const RecResponse alone = engine.RecommendBatch({requests[i]})[0];
    ExpectSameResponse(responses[i], alone, i);
  }
}

// ---------------------------------------------------------------------------
// Structured failure fan-out
// ---------------------------------------------------------------------------

// A throwing backend must not strand tickets, poison the queue, or tear
// results: every ticket of the failed pass completes with kBackendError
// and the controller keeps serving afterwards.
TEST_F(AdmissionFixture, ThrowingBackendFailsTicketsWithStatusAndRecovers) {
  const ServingEngine engine(model_.get(), dataset_);
  int calls = 0;
  AdmissionOptions options;
  options.max_wait_us = 0;
  const AdmissionController admission(
      [&](const std::vector<RecRequest>& requests) {
        if (calls++ == 0) throw std::runtime_error("backend down");
        return engine.RecommendBatch(requests);
      },
      options);
  RecRequest request;
  request.user = 1;
  request.k = 3;
  const RecResponse failed = admission.Recommend(request);
  EXPECT_EQ(failed.status, RecStatus::kBackendError);
  EXPECT_EQ(failed.user, 1);
  EXPECT_TRUE(failed.items.empty());
  EXPECT_EQ(admission.backend_failures(), 1u);
  // The queue is consistent after the failure: the next request serves.
  const RecResponse got = admission.Recommend(request);
  const RecResponse want = engine.RecommendBatch({request})[0];
  ExpectSameResponse(got, want, 0);
  EXPECT_EQ(admission.fused_batches(), 2u);
}

// The regression the fault-injection scorer pins: a backend exception in
// the MIDDLE of a fused pass (the Nth ScoreBlock call, here the first tile
// of the second pass) rejects EVERY coalesced ticket of that pass with a
// per-ticket kBackendError — followers neither hang nor see a torn
// result — while earlier and later passes serve normally.
TEST_F(AdmissionFixture, FaultInjectionScorerFailsWholeFusedPass) {
  // An inline pool scores the tiles in order on the dispatching thread, so
  // pass #2 starts at call TilesPerPass + 1 and stops right there.
  ThreadPool inline_pool(0);
  ServingEngineOptions engine_options;
  engine_options.pool = &inline_pool;
  const int tiles = TilesPerPass(engine_options.item_block);
  ASSERT_GT(tiles, 1);
  auto scorer = std::make_unique<FaultInjectionScorer>(
      RandomEmb(kUsers, kDim, 1), RandomEmb(kItems, kDim, 2),
      /*throw_on_call=*/tiles + 1);
  const FaultInjectionScorer* fault = scorer.get();
  const ServingEngine engine(std::move(scorer), dataset_, engine_options);
  AdmissionOptions options;
  options.max_batch = 4;
  options.max_wait_us = 0;
  const AdmissionController admission(&engine, options);

  // 8 full-catalog requests split 4/4: pass 1 serves, pass 2 throws.
  std::vector<RecRequest> requests(8);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user = static_cast<Index>(i);
    requests[i].k = 5;
  }
  const auto responses = admission.RecommendBatch(requests);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(responses[i].status, RecStatus::kOk) << i;
    EXPECT_FALSE(responses[i].items.empty()) << i;
  }
  for (size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(responses[i].status, RecStatus::kBackendError) << i;
    EXPECT_EQ(responses[i].user, requests[i].user) << i;
    EXPECT_TRUE(responses[i].items.empty()) << i;
  }
  EXPECT_EQ(admission.backend_failures(), 1u);
  EXPECT_EQ(fault->score_block_calls(), tiles + 1);
  EXPECT_FALSE(fault->threw_on_worker());

  // The fault was one-shot: the controller (and engine) serve again, and
  // the served answer matches the healthy reference model bit-exactly.
  const StaticRecommender reference("ref", RandomEmb(kUsers, kDim, 1),
                                    RandomEmb(kItems, kDim, 2));
  const ServingEngine reference_engine(&reference, dataset_);
  const RecResponse again = admission.Recommend(requests[0]);
  const RecResponse want =
      reference_engine.RecommendBatch({requests[0]})[0];
  ExpectSameResponse(again, want, 0);
}

// The same fault on a LATER tile of pass 2, thrown on a pool worker while
// sibling shards keep scoring: ParallelFor hands the exception to the
// dispatching thread, which fails the whole pass exactly as above.
TEST_F(AdmissionFixture, FaultOnPoolWorkerTileFailsWholeFusedPass) {
  ThreadPool pool(4);
  ServingEngineOptions engine_options;
  engine_options.pool = &pool;
  engine_options.item_block = 128;
  const int tiles = TilesPerPass(engine_options.item_block);
  ASSERT_GE(tiles, 8);
  // The last tile belongs to the last shard, which a worker runs (the
  // calling thread runs the first); its second scoring is pass 2's.
  const Index last_tile_begin = (tiles - 1) * engine_options.item_block;
  auto scorer = std::make_unique<FaultInjectionScorer>(
      RandomEmb(kUsers, kDim, 1), RandomEmb(kItems, kDim, 2),
      /*throw_on_call=*/2, last_tile_begin);
  const FaultInjectionScorer* fault = scorer.get();
  const ServingEngine engine(std::move(scorer), dataset_, engine_options);
  AdmissionOptions options;
  options.max_batch = 4;
  options.max_wait_us = 0;
  const AdmissionController admission(&engine, options);

  std::vector<RecRequest> requests(8);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user = static_cast<Index>(i);
    requests[i].k = 5;
  }
  const auto responses = admission.RecommendBatch(requests);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(responses[i].status, RecStatus::kOk) << i;
    EXPECT_FALSE(responses[i].items.empty()) << i;
  }
  for (size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(responses[i].status, RecStatus::kBackendError) << i;
    EXPECT_EQ(responses[i].user, requests[i].user) << i;
    EXPECT_TRUE(responses[i].items.empty()) << i;
  }
  EXPECT_EQ(admission.backend_failures(), 1u);
  EXPECT_TRUE(fault->threw_on_worker());
  // The throwing tile is its shard's last, so every tile of pass 2 was
  // scored: the fault neither skipped nor repeated work.
  EXPECT_EQ(fault->score_block_calls(), 2 * tiles);

  const StaticRecommender reference("ref", RandomEmb(kUsers, kDim, 1),
                                    RandomEmb(kItems, kDim, 2));
  const ServingEngine reference_engine(&reference, dataset_);
  const RecResponse again = admission.Recommend(requests[0]);
  const RecResponse want =
      reference_engine.RecommendBatch({requests[0]})[0];
  ExpectSameResponse(again, want, 0);
}

// Followers blocked on a fused pass that fails must be woken with a
// status, not stranded: concurrent callers all resolve, each either served
// bit-exactly or explicitly failed.
TEST_F(AdmissionFixture, ConcurrentFollowersResolveOnBackendFailure) {
  const ServingEngine engine(model_.get(), dataset_);
  std::atomic<int> calls{0};
  AdmissionOptions options;
  options.max_batch = 16;
  options.max_wait_us = 2000;  // hold batches open so callers coalesce
  const AdmissionController admission(
      [&](const std::vector<RecRequest>& requests) {
        if (calls.fetch_add(1) % 3 == 1) {  // fail every third pass
          throw std::runtime_error("flaky backend");
        }
        return engine.RecommendBatch(requests);
      },
      options);

  constexpr int kThreads = 6;
  constexpr int kRounds = 10;
  std::atomic<int> bad{0};
  std::atomic<int> served{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        RecRequest request;
        request.user = static_cast<Index>((t * kRounds + round) % kUsers);
        request.k = 5;
        const RecResponse got = admission.Recommend(request);
        if (got.status == RecStatus::kOk) {
          ++served;
          const RecResponse want =
              engine.RecommendBatch({request})[0];
          if (got.items.size() != want.items.size()) {
            ++bad;
            continue;
          }
          for (size_t j = 0; j < want.items.size(); ++j) {
            if (got.items[j].item != want.items[j].item ||
                got.items[j].score != want.items[j].score) {
              ++bad;
              break;
            }
          }
        } else if (got.status == RecStatus::kBackendError) {
          ++failed;
          if (!got.items.empty()) ++bad;  // torn result
        } else {
          ++bad;  // no shedding/deadlines configured
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(served.load() + failed.load(), kThreads * kRounds);
  EXPECT_EQ(static_cast<uint64_t>(served.load() + failed.load()),
            admission.admitted_requests());
}

TEST_F(AdmissionFixture, EmptyBatchIsANoOp) {
  const ServingEngine engine(model_.get(), dataset_);
  const AdmissionController admission(&engine);
  EXPECT_TRUE(admission.RecommendBatch({}).empty());
  EXPECT_EQ(admission.admitted_requests(), 0u);
  EXPECT_EQ(admission.fused_batches(), 0u);
}

// The concurrency stress (TSan canary): many threads hammer one controller
// with single requests and small batches; every answer must match the
// engine's single-request reference bit-exactly, no matter how tickets
// interleaved into fused batches, and the controller must actually have
// coalesced or split work (dispatch bookkeeping stays consistent).
TEST_F(AdmissionFixture, ConcurrentCallersGetBitExactAnswers) {
  ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 16;
  options.max_wait_us = 300;
  const AdmissionController admission(&engine, options);

  const std::vector<RecRequest> requests = MixedRequests();
  std::vector<RecResponse> reference;
  reference.reserve(requests.size());
  for (const RecRequest& request : requests) {
    reference.push_back(engine.RecommendBatch({request})[0]);
  }

  constexpr int kThreads = 6;
  constexpr int kRounds = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Walk the request list from a thread-specific offset: singles...
        for (size_t s = 0; s < requests.size(); ++s) {
          const size_t i = (s + static_cast<size_t>(t) * 3) % requests.size();
          const RecResponse got = admission.Recommend(requests[i]);
          const RecResponse& want = reference[i];
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
        // ... then a whole batch through the same admission queue.
        const auto batch = admission.RecommendBatch(requests);
        for (size_t i = 0; i < requests.size(); ++i) {
          if (batch[i].items.size() != reference[i].items.size()) {
            ++mismatches;
            continue;
          }
          for (size_t j = 0; j < reference[i].items.size(); ++j) {
            if (batch[i].items[j].item != reference[i].items[j].item ||
                batch[i].items[j].score != reference[i].items[j].score) {
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
  const uint64_t expected_requests =
      static_cast<uint64_t>(kThreads) * kRounds * 2 * requests.size();
  EXPECT_EQ(admission.admitted_requests(), expected_requests);
  EXPECT_GE(admission.fused_batches(), 1u);
  // Every admitted ticket was served by exactly one fused pass, and no
  // pass exceeded the size bound.
  EXPECT_LE(admission.fused_batches(), expected_requests);
}

// Overload-protection concurrency stress (TSan canary for the policy
// paths): multi-tenant traffic with deadlines against a bounded queue
// under the fair-share drain. Every request must resolve to exactly one
// of {served bit-exactly, kShed, kDeadlineExceeded} — no hangs, no torn
// results, and the counters must account for every outcome.
TEST_F(AdmissionFixture, ConcurrentMultiTenantOverloadStress) {
  ServingEngine engine(model_.get(), dataset_);
  AdmissionOptions options;
  options.max_batch = 8;
  options.max_wait_us = 200;
  options.drain_policy = DrainPolicy::kFairShare;
  options.tenant_weights = {1, 2, 1};
  options.max_queue_depth = 6;  // small: force real shedding under load
  options.resume_queue_depth = 2;
  const AdmissionController admission(&engine, options);

  const std::vector<RecRequest> base = MixedRequests();
  std::vector<RecResponse> reference;
  reference.reserve(base.size());
  for (const RecRequest& request : base) {
    reference.push_back(engine.RecommendBatch({request})[0]);
  }

  constexpr int kThreads = 6;
  constexpr int kRounds = 6;
  std::atomic<int> bad{0};
  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> expired{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < base.size(); ++i) {
          RecRequest request = base[i];
          request.tenant = static_cast<Index>(t % 3);
          // A third of the traffic carries a real (but generous) budget;
          // under contention some of it will expire in the queue.
          if (i % 3 == 0) request.deadline_us = 50000;
          const RecResponse got = admission.Recommend(request);
          switch (got.status) {
            case RecStatus::kOk: {
              ++ok;
              const RecResponse& want = reference[i];
              if (got.user != want.user ||
                  got.items.size() != want.items.size()) {
                ++bad;
                break;
              }
              for (size_t j = 0; j < want.items.size(); ++j) {
                if (got.items[j].item != want.items[j].item ||
                    got.items[j].score != want.items[j].score) {
                  ++bad;
                  break;
                }
              }
              break;
            }
            case RecStatus::kShed:
              ++shed;
              if (!got.items.empty()) ++bad;
              break;
            case RecStatus::kDeadlineExceeded:
              ++expired;
              if (!got.items.empty()) ++bad;
              break;
            case RecStatus::kBackendError:
            case RecStatus::kDegraded:
              ++bad;  // the real in-process engine never fails or degrades
              break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  const int total = kThreads * kRounds * static_cast<int>(base.size());
  EXPECT_EQ(ok.load() + shed.load() + expired.load(), total);
  EXPECT_EQ(admission.shed_requests(), static_cast<uint64_t>(shed.load()));
  EXPECT_EQ(admission.deadline_rejections(),
            static_cast<uint64_t>(expired.load()));
  // Served = admitted minus the admitted tickets that expired in-queue.
  EXPECT_LE(static_cast<uint64_t>(ok.load()), admission.admitted_requests());
  EXPECT_EQ(admission.backend_failures(), 0u);
}

}  // namespace
}  // namespace firzen
