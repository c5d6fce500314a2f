// Admission-batching front end: coalesces concurrent Recommend calls into
// fused user batches before they reach a serving backend. Callers send
// their requests to the controller; the engine behind it knows nothing
// about admission. N in-flight single-user requests normally pay N full
// streaming passes over the item catalog; admitted through this controller
// they ride ONE fused score-and-rank pass (one catalog stream, one batched
// Gemm per panel), the classic cross-request micro-batching win for
// read-path inference over frozen state.
//
// Protocol (leader-follower, no dedicated dispatcher thread): a caller
// enqueues its requests as tickets and blocks. The first caller with queued
// work becomes the dispatcher ("leader"): it waits until the queue holds
// max_batch users or the oldest ticket has waited max_wait_us (capped by
// the nearest queued deadline), drains up to max_batch tickets under the
// configured DrainPolicy, runs ONE fused pass through the backend (an
// engine's RecommendBatch), writes each response back through its ticket,
// and wakes the owners. Arrivals during an execution accumulate into the
// next batch, so admission pipelines: one batch scores while the next one
// fills.
//
// Overload protection (all optional, all off by default):
//  * Load shedding — with max_queue_depth > 0 the ticket queue is bounded:
//    once it fills, new requests get RecStatus::kShed IMMEDIATELY instead
//    of queueing unboundedly, and shedding stops only once the queue has
//    drained to resume_queue_depth (hysteresis: distinct start/stop
//    watermarks, so the controller does not flap at the boundary).
//  * Deadlines — tickets whose RecRequest::deadline_us budget expires
//    before their fused pass starts are rejected with
//    RecStatus::kDeadlineExceeded, never scored late. Under
//    DrainPolicy::kDeadline the drain order is earliest-deadline-first.
//  * Fair share — under DrainPolicy::kFairShare the drain interleaves
//    per-tenant queues by weight (round-robin, weight tickets per tenant
//    per round), so one hot tenant cannot starve the rest.
//  * Structured failure fan-out — if a fused pass throws, EVERY coalesced
//    ticket of that pass completes with RecStatus::kBackendError (no
//    exception propagation, no torn results, no stranded followers); the
//    queue stays consistent and unrelated batches are unaffected.
//
// Determinism contract: coalescing is observably side-effect-free for
// every request that IS served. Per-item scores are bit-identical for ANY
// user-batch size (the Gemm A * B^T kernel accumulates the same
// exactly-rounded chain no matter how many rows share the batch — see
// src/tensor/matrix.h), and requests ride private top-K heaps, so a served
// response is bit-identical whether its request ran alone, fused with any
// co-riders, in any drain order, under any policy, or through any shard
// layout. tests/serving_admission_test.cc pins this; the
// BM_ServingAdmission parity gate re-asserts it at benchmark startup.
//
// Thread safety: Recommend/RecommendBatch are const and safe from any
// number of threads — that is the point. Destruction is a teardown
// operation: it must not race with in-flight requests (quiesce callers
// first), and a controller must be destroyed before the engine it fronts.
#ifndef FIRZEN_EVAL_ADMISSION_H_
#define FIRZEN_EVAL_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/eval/serving.h"
#include "src/util/check.h"
#include "src/util/thread_annotations.h"

namespace firzen {

/// How the dispatcher picks which queued tickets ride the next fused pass.
/// Every policy preserves the coalescing contract — drain order changes
/// WHEN a request is served (and whether it is served at all, under
/// deadlines/shedding), never WHAT a served request's response holds.
enum class DrainPolicy {
  /// Arrival order (the legacy behavior).
  kFifo,
  /// Earliest-deadline-first: the batch whose oldest deadline is nearest
  /// drains first; deadline-less tickets rank after all deadlined ones, in
  /// arrival order.
  kDeadline,
  /// Weighted fair share across RecRequest::tenant queues: each drain
  /// round-robins the tenants present in the queue (ascending tenant id),
  /// taking up to tenant_weight(t) tickets per tenant per round, until the
  /// batch is full. Within a tenant, arrival order.
  kFairShare,
};

struct AdmissionOptions {
  /// Most users one fused pass serves; the dispatcher drains the queue in
  /// chunks of at most this many tickets. 1 disables coalescing (every
  /// request runs alone — useful as an A/B baseline).
  Index max_batch = 64;
  /// Longest the dispatcher holds an incomplete batch open for co-riders,
  /// measured from the oldest queued ticket's enqueue time. 0 = never wait:
  /// drain whatever is queued immediately (coalescing then comes only from
  /// requests arriving while a previous batch executes). The
  /// latency/throughput knob: a request's added latency is bounded by
  /// max_wait_us plus one fused pass. When any queued ticket carries a
  /// deadline, the hold is additionally capped at the nearest deadline so
  /// a batch never idles a ticket past its budget.
  int64_t max_wait_us = 200;
  /// Which queued tickets ride the next fused pass (see DrainPolicy).
  DrainPolicy drain_policy = DrainPolicy::kFifo;
  /// Bounded-queue load shedding: once the ticket queue holds this many
  /// tickets, NEW requests are rejected immediately with RecStatus::kShed
  /// (never blocked) until the queue drains to resume_queue_depth.
  /// 0 = unbounded queue, no shedding (the legacy behavior).
  Index max_queue_depth = 0;
  /// Hysteresis low watermark: shedding, once started, stops when the
  /// queue depth has drained to <= this value. Must be < max_queue_depth.
  /// -1 = max_queue_depth / 2. Distinct start/stop watermarks keep the
  /// controller from flapping between shedding and admitting at the
  /// boundary.
  Index resume_queue_depth = -1;
  /// Fair-share weights, indexed by RecRequest::tenant: tenant t may take
  /// up to tenant_weights[t] tickets per drain round. Tenants at or past
  /// the vector's end (and entries < 1) weigh 1. Empty = every tenant
  /// weighs 1 (pure round-robin). Only read under DrainPolicy::kFairShare.
  std::vector<Index> tenant_weights;
};

/// Coalescing front end over any batch-serving backend: a ServingEngine,
/// a DistributedServingEngine (admitted batches become the RPC unit fanned
/// out to the shard servers; kDegraded responses pass through untouched),
/// or an arbitrary Backend function. Callers send requests to the
/// controller, not to the engine.
class AdmissionController {
 public:
  /// Executes one fused request batch; must be safe to call concurrently
  /// (every engine's RecommendBatch is). May throw: a throwing pass fails
  /// every ticket it carried with RecStatus::kBackendError.
  using Backend =
      std::function<std::vector<RecResponse>(const std::vector<RecRequest>&)>;

  /// Fronts an arbitrary backend (an engine, tests, RPC fan-out, ...).
  explicit AdmissionController(Backend backend, AdmissionOptions options = {});

  /// Fronts `engine->RecommendBatch`. The engine must outlive the
  /// controller.
  template <typename Engine>
  explicit AdmissionController(const Engine* engine,
                               AdmissionOptions options = {})
      : AdmissionController(
            [engine](const std::vector<RecRequest>& requests) {
              return engine->RecommendBatch(requests);
            },
            std::move(options)) {
    FIRZEN_CHECK(engine != nullptr);
  }

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// All callers must have returned before destruction.
  ~AdmissionController() = default;

  /// Enqueues the request and blocks until its fused batch has been served
  /// — or returns immediately with a non-kOk status when overload
  /// protection rejects it (kShed, kDeadlineExceeded) or its fused pass
  /// fails (kBackendError). A served (kOk) response is bit-identical to
  /// the backend serving the request alone.
  RecResponse Recommend(const RecRequest& request) const;

  /// Enqueues every request (they may be split across fused batches and
  /// coalesced with other callers' tickets) and blocks until all are
  /// resolved — served, shed, deadline-rejected, or failed; per-request
  /// outcomes are in each response's status. Response order matches
  /// request order. Never throws on backend failure: a throwing fused pass
  /// rejects exactly the tickets it carried with RecStatus::kBackendError
  /// and the controller keeps serving.
  std::vector<RecResponse> RecommendBatch(
      const std::vector<RecRequest>& requests) const;

  const AdmissionOptions& options() const { return options_; }

  /// Requests admitted so far (monotonic; excludes shed and
  /// expired-at-enqueue rejections; for tests and benchmarks).
  uint64_t admitted_requests() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  /// Fused passes executed so far. admitted_requests() / fused_batches()
  /// is the realized coalescing factor.
  uint64_t fused_batches() const {
    return fused_.load(std::memory_order_relaxed);
  }
  /// Requests rejected with kShed so far.
  uint64_t shed_requests() const {
    return shed_.load(std::memory_order_relaxed);
  }
  /// Requests rejected with kDeadlineExceeded so far (at enqueue or at
  /// drain time).
  uint64_t deadline_rejections() const {
    return deadline_rejected_.load(std::memory_order_relaxed);
  }
  /// Fused passes whose backend threw so far (each fails every ticket it
  /// carried with kBackendError).
  uint64_t backend_failures() const {
    return backend_failures_.load(std::memory_order_relaxed);
  }

 private:
  struct Ticket {
    const RecRequest* request = nullptr;
    RecResponse response;
    enum class State { kQueued, kClaimed, kDone } state = State::kQueued;
    std::chrono::steady_clock::time_point enqueued;
    // Absolute deadline (enqueued + request->deadline_us); only meaningful
    // when has_deadline.
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
  };

  void Validate() const;

  /// Completes `ticket` without serving it: status, user, empty items.
  void Reject(Ticket* ticket, RecStatus status) const FIRZEN_REQUIRES(mu_);

  /// True when a NEW request must be shed right now; updates the
  /// hysteresis state machine. Called before enqueueing.
  bool ShouldShed() const FIRZEN_REQUIRES(mu_);

  /// Completes every queued ticket whose deadline has passed with
  /// kDeadlineExceeded and removes it from the queue. Returns true when
  /// any ticket was rejected.
  bool SweepExpired(std::chrono::steady_clock::time_point now) const
      FIRZEN_REQUIRES(mu_);

  /// Picks up to max_batch queued tickets under options_.drain_policy,
  /// removes them from the queue, and returns them in drain order.
  std::vector<Ticket*> SelectBatch() const FIRZEN_REQUIRES(mu_);

  /// Claims up to max_batch queued tickets and serves them in one fused
  /// backend pass. Called with `lock` (over mu_) held; temporarily
  /// releases it around the backend call (MutexUnlock). A throwing backend
  /// is absorbed: every claimed ticket completes with kBackendError.
  /// (Allocation failures before the claim still propagate; the queue is
  /// untouched then.)
  void ServeOneBatch(MutexLock* lock) const FIRZEN_REQUIRES(mu_);

  Backend backend_;
  AdmissionOptions options_;

  mutable Mutex mu_;
  // Signals the collecting leader that the queue grew (its batch may now be
  // full, or a nearer deadline arrived). Followers and leaders-to-be wait on
  // done_cv_: it fires when a batch completes AND when leadership frees up
  // with tickets still queued.
  mutable CondVar queue_cv_;
  mutable CondVar done_cv_;
  // FIFO; tickets live on caller stacks.
  mutable std::vector<Ticket*> queue_ FIRZEN_GUARDED_BY(mu_);
  mutable bool leader_active_ FIRZEN_GUARDED_BY(mu_) = false;
  // Hysteresis state: shedding new arrivals until the queue drains to the
  // resume watermark.
  mutable bool shedding_ FIRZEN_GUARDED_BY(mu_) = false;

  mutable std::atomic<uint64_t> admitted_{0};
  mutable std::atomic<uint64_t> fused_{0};
  mutable std::atomic<uint64_t> shed_{0};
  mutable std::atomic<uint64_t> deadline_rejected_{0};
  mutable std::atomic<uint64_t> backend_failures_{0};
};

}  // namespace firzen

#endif  // FIRZEN_EVAL_ADMISSION_H_
