#include "src/eval/admission.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "src/util/check.h"

namespace firzen {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

void AdmissionController::Validate() const {
  FIRZEN_CHECK_GT(options_.max_batch, 0);
  FIRZEN_CHECK_GE(options_.max_wait_us, 0);
  FIRZEN_CHECK_GE(options_.max_queue_depth, 0);
  if (options_.max_queue_depth > 0) {
    FIRZEN_CHECK_LT(options_.resume_queue_depth, options_.max_queue_depth);
  }
}

AdmissionController::AdmissionController(Backend backend,
                                         AdmissionOptions options)
    : backend_(std::move(backend)), options_(std::move(options)) {
  FIRZEN_CHECK(backend_ != nullptr);
  if (options_.resume_queue_depth < 0) {
    options_.resume_queue_depth = options_.max_queue_depth / 2;
  }
  Validate();
}

RecResponse AdmissionController::Recommend(const RecRequest& request) const {
  return RecommendBatch({request})[0];
}

void AdmissionController::Reject(Ticket* ticket, RecStatus status) const {
  ticket->response.user = ticket->request->user;
  ticket->response.status = status;
  ticket->response.items.clear();
  ticket->state = Ticket::State::kDone;
  if (status == RecStatus::kShed) {
    shed_.fetch_add(1, std::memory_order_relaxed);
  } else if (status == RecStatus::kDeadlineExceeded) {
    deadline_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool AdmissionController::ShouldShed() const {
  if (options_.max_queue_depth <= 0) return false;
  const Index depth = static_cast<Index>(queue_.size());
  // Hysteresis: shedding starts when the queue is full and stops only once
  // it has drained past the (strictly lower) resume watermark, so the
  // controller does not flap between admitting and shedding at the
  // boundary.
  if (shedding_ && depth <= options_.resume_queue_depth) shedding_ = false;
  if (!shedding_ && depth >= options_.max_queue_depth) shedding_ = true;
  return shedding_;
}

bool AdmissionController::SweepExpired(Clock::time_point now) const {
  bool any = false;
  for (Ticket* ticket : queue_) {
    if (ticket->has_deadline && ticket->deadline <= now) {
      Reject(ticket, RecStatus::kDeadlineExceeded);
      any = true;
    }
  }
  if (any) {
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [](const Ticket* t) {
                                  return t->state == Ticket::State::kDone;
                                }),
                 queue_.end());
    done_cv_.NotifyAll();
  }
  return any;
}

std::vector<AdmissionController::Ticket*> AdmissionController::SelectBatch()
    const {
  const size_t take =
      std::min(queue_.size(), static_cast<size_t>(options_.max_batch));
  std::vector<Ticket*> selected;
  selected.reserve(take);
  switch (options_.drain_policy) {
    case DrainPolicy::kFifo: {
      selected.assign(queue_.begin(),
                      queue_.begin() + static_cast<long>(take));
      break;
    }
    case DrainPolicy::kDeadline: {
      // Earliest-deadline-first; deadline-less tickets after every
      // deadlined one; arrival order breaks ties (stable sort over the
      // FIFO queue).
      std::vector<size_t> order(queue_.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Ticket* ta = queue_[a];
        const Ticket* tb = queue_[b];
        if (ta->has_deadline != tb->has_deadline) return ta->has_deadline;
        if (ta->has_deadline && ta->deadline != tb->deadline) {
          return ta->deadline < tb->deadline;
        }
        return false;
      });
      for (size_t i = 0; i < take; ++i) selected.push_back(queue_[order[i]]);
      break;
    }
    case DrainPolicy::kFairShare: {
      // Weighted round-robin over per-tenant FIFO queues: each round
      // visits the queued tenants in ascending id and takes up to
      // weight(t) tickets from tenant t, until the batch is full — so a
      // hot tenant's backlog cannot push other tenants' tickets out of
      // the drain indefinitely.
      std::map<Index, std::vector<Ticket*>> by_tenant;
      for (Ticket* ticket : queue_) {
        by_tenant[ticket->request->tenant].push_back(ticket);
      }
      const auto weight_of = [&](Index tenant) {
        if (tenant >= 0 &&
            tenant < static_cast<Index>(options_.tenant_weights.size())) {
          return std::max<Index>(1, options_.tenant_weights[
                                        static_cast<size_t>(tenant)]);
        }
        return Index{1};
      };
      std::map<Index, size_t> heads;
      while (selected.size() < take) {
        bool progressed = false;
        for (auto& [tenant, tickets] : by_tenant) {
          const Index weight = weight_of(tenant);
          size_t& head = heads[tenant];
          for (Index c = 0; c < weight && selected.size() < take; ++c) {
            if (head >= tickets.size()) break;
            selected.push_back(tickets[head++]);
            progressed = true;
          }
          if (selected.size() >= take) break;
        }
        if (!progressed) break;
      }
      break;
    }
  }
  return selected;
}

std::vector<RecResponse> AdmissionController::RecommendBatch(
    const std::vector<RecRequest>& requests) const {
  std::vector<RecResponse> responses(requests.size());
  if (requests.empty()) return responses;

  // Tickets live on this stack frame; the vector never reallocates, and we
  // do not return until every ticket is done, so queued pointers into it
  // are valid for exactly as long as the queue can hold them.
  std::vector<Ticket> tickets(requests.size());
  MutexLock lock(mu_);
  const auto now = Clock::now();
  size_t enqueued_count = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    Ticket& ticket = tickets[i];
    ticket.request = &requests[i];
    ticket.enqueued = now;
    if (requests[i].deadline_us >= 0) {
      ticket.has_deadline = true;
      ticket.deadline = now + std::chrono::microseconds(requests[i].deadline_us);
    }
    // Overload protection happens HERE, before the ticket can block: a
    // zero budget is already expired at enqueue, and a full queue sheds
    // the arrival immediately instead of queueing it unboundedly.
    if (ticket.has_deadline && requests[i].deadline_us == 0) {
      Reject(&ticket, RecStatus::kDeadlineExceeded);
      continue;
    }
    if (ShouldShed()) {
      Reject(&ticket, RecStatus::kShed);
      continue;
    }
    queue_.push_back(&ticket);
    ++enqueued_count;
  }
  admitted_.fetch_add(enqueued_count, std::memory_order_relaxed);
  // A collecting leader may be blocked waiting for its batch to fill (or
  // for the nearest deadline); wake it to re-evaluate.
  if (enqueued_count > 0 && leader_active_) queue_cv_.NotifyOne();

  const auto all_done = [&] {
    for (const Ticket& t : tickets) {
      if (t.state != Ticket::State::kDone) return false;
    }
    return true;
  };
  const auto any_queued = [&] {
    for (const Ticket& t : tickets) {
      if (t.state == Ticket::State::kQueued) return true;
    }
    return false;
  };
  while (!all_done()) {
    if (!leader_active_ && any_queued()) {
      // No dispatcher and our work is still queued: serve a batch
      // ourselves. Drain order follows the policy, so it may consist of
      // other callers' tickets (and ours may be served by another leader
      // meanwhile) — the loop simply continues until everything we
      // enqueued is done.
      try {
        ServeOneBatch(&lock);
      } catch (...) {
        // Allocation failure before the claim (backend exceptions are
        // absorbed into per-ticket kBackendError statuses and never reach
        // here). Unwind safety: queued Ticket pointers die with this
        // frame, so pull ours out of the shared queue, wait out any of
        // ours another dispatcher has claimed, then surface the error.
        queue_.erase(
            std::remove_if(queue_.begin(), queue_.end(),
                           [&](const Ticket* t) {
                             for (const Ticket& own : tickets) {
                               if (t == &own) return true;
                             }
                             return false;
                           }),
            queue_.end());
        const auto none_claimed = [&] {
          for (const Ticket& t : tickets) {
            if (t.state == Ticket::State::kClaimed) return false;
          }
          return true;
        };
        while (!none_claimed()) done_cv_.Wait(lock);
        throw;
      }
    } else {
      done_cv_.Wait(lock);
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    responses[i] = std::move(tickets[i].response);
  }
  return responses;
}

void AdmissionController::ServeOneBatch(MutexLock* lock) const {
  leader_active_ = true;
  // Hold the batch open for co-riders until it is full, the OLDEST queued
  // ticket has waited its bound (so no request's added latency exceeds
  // max_wait_us regardless of how leadership changes hands), or the
  // NEAREST queued deadline arrives (so the hold itself never expires a
  // ticket the drain could still serve).
  const size_t max_batch = static_cast<size_t>(options_.max_batch);
  if (options_.max_wait_us > 0) {
    while (queue_.size() < max_batch && !queue_.empty()) {
      auto target = queue_.front()->enqueued +
                    std::chrono::microseconds(options_.max_wait_us);
      for (const Ticket* t : queue_) {
        if (t->has_deadline && t->deadline < target) target = t->deadline;
      }
      if (Clock::now() >= target) break;
      // Wakes on new arrivals (batch may be full, or a nearer deadline
      // arrived — recompute either way) and on timeout.
      queue_cv_.WaitUntil(*lock, target);
    }
  }
  // Expired tickets are rejected, never scored late — whatever the drain
  // policy.
  SweepExpired(Clock::now());
  if (queue_.empty()) {
    // Everything queued expired while we collected; nothing to serve.
    leader_active_ = false;
    done_cv_.NotifyAll();
    return;
  }

  // Allocate everything the pass needs BEFORE touching shared state: a
  // bad_alloc past this block would otherwise wedge the controller (stuck
  // leadership, or claimed tickets no one will ever complete).
  std::vector<Ticket*> claimed;
  std::vector<RecRequest> batch;
  try {
    claimed = SelectBatch();
    batch.reserve(claimed.size());
    for (const Ticket* t : claimed) batch.push_back(*t->request);
  } catch (...) {
    leader_active_ = false;
    done_cv_.NotifyAll();  // a waiting caller can take over leadership
    throw;
  }
  // Point of no return: only non-throwing operations between here and the
  // guarded backend call. Resign leadership before executing: the next
  // arrival (or a waiting caller with still-queued tickets, woken below)
  // becomes the next dispatcher and collects the next batch while this
  // one scores.
  for (Ticket* t : claimed) t->state = Ticket::State::kClaimed;
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [](const Ticket* t) {
                                return t->state == Ticket::State::kClaimed;
                              }),
               queue_.end());
  leader_active_ = false;
  if (!queue_.empty()) done_cv_.NotifyAll();
  fused_.fetch_add(1, std::memory_order_relaxed);
  std::vector<RecResponse> results;
  bool backend_threw = false;
  {
    // Drop the lock only around the backend pass; the catch-all keeps any
    // exception from escaping the unlocked region (see MutexUnlock).
    MutexUnlock unlock(*lock, mu_);
    try {
      results = backend_(batch);
    } catch (...) {
      backend_threw = true;
    }
  }
  if (backend_threw) {
    // Structured failure fan-out: the pass is gone, so EVERY coalesced
    // ticket it carried completes with an explicit per-ticket error
    // status — no exception propagation, no torn results, no follower
    // left blocked. The queue was already consistent (claimed tickets
    // left it above), so unrelated batches are unaffected and the
    // controller keeps serving.
    backend_failures_.fetch_add(1, std::memory_order_relaxed);
    for (Ticket* t : claimed) {
      t->response.user = t->request->user;
      t->response.status = RecStatus::kBackendError;
      t->response.items.clear();
      t->state = Ticket::State::kDone;
    }
    done_cv_.NotifyAll();
    return;
  }
  FIRZEN_CHECK_EQ(static_cast<Index>(results.size()),
                  static_cast<Index>(claimed.size()));
  for (size_t i = 0; i < claimed.size(); ++i) {
    claimed[i]->response = std::move(results[i]);
    claimed[i]->state = Ticket::State::kDone;
  }
  done_cv_.NotifyAll();
}

}  // namespace firzen
