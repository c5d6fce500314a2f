// Distributed serving coordinator: the same RecommendBatch surface as
// ServingEngine, executed by fanning each batch out to N shard-server
// connections (src/serve/shard_server.h) over the wire protocol
// (src/serve/wire.h) and merging the per-shard top-K replies with the
// existing MergeTopK — a sharded ServingEngine's merge half, with sockets
// where the in-process ParallelFor used to be.
//
// Determinism contract (the headline): on the healthy path a distributed
// response is BYTE-IDENTICAL to ServingEngine over the same catalog and
// shared state, for any shard layout. Shard servers run the identical
// shared core (PrepareBatch + RankRequestsInRange) over their global item
// ranges of the base scorer, scores cross the wire as raw IEEE-754 bits, per-shard lists
// arrive in RanksBefore order, and the merge is the same MergeTopK — so
// there is no step where a bit could differ.
// tests/distributed_serving_test.cc pins this for shard counts {1,2,3,7}
// across models, exclusion modes, candidate pools, and cold-only.
//
// Graceful degradation: a shard that cannot be reached, times out, or
// answers garbage fails ONLY itself for that batch. The batch completes
// from the surviving shards with RecStatus::kDegraded and the failed shard
// indices in RecResponse::failed_shards (all shards down => kDegraded with
// empty items — never a hang, never a throw). Failed connections are
// re-dialed on the next batch (retry-once-with-backoff inside each
// attempt), so a restarted shard server rejoins transparently.
//
// Deadline cap: the per-shard wait for one batch is
// min(rpc_timeout_ms, smallest deadline_us carried by the batch), measured
// from fan-out start — the coordinator-side mirror of the admission
// collect-wait cap (src/eval/admission.h), so a slow shard can never make
// a deadline-carrying request complete late; it becomes kDegraded within
// budget instead. A deadline of 0 fails every shard immediately (the
// coordinator analogue of "already expired at enqueue").
//
// Composes with AdmissionController unchanged: put one in front of the
// coordinator and admitted batches become the RPC unit; admission statuses
// (kShed, kDeadlineExceeded, kBackendError) and kDegraded pass through
// untouched.
//
// Thread safety: same contract as ServingEngine — share ONE
// coordinator across any number of request threads. Each connection is
// mutex-guarded (a batch's fan-out thread holds exactly one shard's lock
// for its exchange), so concurrent batches serialize per shard but
// pipeline across shards.
#ifndef FIRZEN_SERVE_DISTRIBUTED_SERVING_H_
#define FIRZEN_SERVE_DISTRIBUTED_SERVING_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/eval/serving.h"
#include "src/models/scorer.h"
#include "src/serve/net.h"
#include "src/serve/wire.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace firzen {

struct DistributedServingOptions {
  /// One shard server address per shard ("host:port" or "unix:/path").
  /// Connection order defines the shard indices reported in
  /// RecResponse::failed_shards; the servers' ranges must tile
  /// [0, num_items) exactly (validated at Connect).
  std::vector<std::string> shard_addresses;
  /// Budget for dialing + handshaking one shard (per attempt).
  int64_t connect_timeout_ms = 2000;
  /// Backoff before the single retry of a failed connect attempt.
  int64_t retry_backoff_ms = 50;
  /// Per-batch, per-shard reply budget. Additionally capped by the nearest
  /// RecRequest::deadline_us in the batch (see the file comment).
  int64_t rpc_timeout_ms = 5000;
};

/// Coordinator over N shard-server connections. Construct via Connect();
/// the constructor is private because construction performs I/O that can
/// fail (Status, never an abort on remote behavior).
class DistributedServingEngine {
 public:
  /// Dials and handshakes every shard (retry-once-with-backoff per shard),
  /// then validates the announced ranges tile one catalog. Any unreachable
  /// shard or inconsistent layout fails Connect — a coordinator never
  /// starts blind; degradation is for shards that die AFTER startup.
  static Result<std::unique_ptr<DistributedServingEngine>> Connect(
      DistributedServingOptions options);

  DistributedServingEngine(const DistributedServingEngine&) = delete;
  DistributedServingEngine& operator=(const DistributedServingEngine&) = delete;

  /// Check RecResponse::status: kDegraded responses carry best-effort
  /// items (see the file comment).
  RecResponse Recommend(const RecRequest& request) const;

  /// One wire round-trip per shard, concurrent across shards, merged under
  /// RanksBefore. Thread-safe.
  std::vector<RecResponse> RecommendBatch(
      const std::vector<RecRequest>& requests) const;

  // Kept only because perfbench/ calls it.
  std::vector<RecResponse> RecommendBatchDirect(
      const std::vector<RecRequest>& requests) const {
    return RecommendBatch(requests);
  }

  Index num_items() const { return num_items_; }
  Index num_shards() const { return static_cast<Index>(conns_.size()); }
  /// Global item range [begin, end) announced by one shard.
  ItemBlock shard_range(Index shard) const;

  // Monotonic counters (tests, benches, ops).
  /// Shard round-trips attempted (one per shard per batch).
  uint64_t shard_rpcs() const {
    return shard_rpcs_.load(std::memory_order_relaxed);
  }
  /// Attempted round-trips that failed (connect, send, recv, timeout, or
  /// protocol error) and degraded their batch.
  uint64_t failed_shard_rpcs() const {
    return failed_rpcs_.load(std::memory_order_relaxed);
  }
  /// Responses returned with kDegraded.
  uint64_t degraded_responses() const {
    return degraded_responses_.load(std::memory_order_relaxed);
  }
  /// Successful re-dials of a previously failed connection.
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Wire bytes sent / received, frame headers included.
  uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }

 private:
  /// One shard connection. `mu` serializes the request/reply exchange —
  /// the wire protocol has no request ids, so a connection must carry one
  /// exchange at a time. `fd` is invalid while the shard is down.
  struct Conn {
    Mutex mu;
    net::UniqueFd fd FIRZEN_GUARDED_BY(mu);
    // Written once at Connect (before the engine is shared) and never
    // mutated again — a re-dial only COMPARES the announced info against
    // this copy — so lock-free reads (shard_range) are safe.
    std::string address;
    wire::ShardInfo info;
  };

  DistributedServingEngine() = default;

  /// Dials + handshakes one address within `timeout_ms`; on success fills
  /// *fd and *info. One internal retry after retry_backoff_ms.
  Status DialShard(const std::string& address, int64_t timeout_ms,
                   net::UniqueFd* fd, wire::ShardInfo* info) const;

  /// Runs one request/reply exchange on shard `s` (conn->mu held by the
  /// caller), reconnecting first if the shard is down. `deadline` bounds
  /// everything; failure resets the connection.
  Status ExchangeOnShard(Conn* conn, const std::vector<uint8_t>& payload,
                         size_t expected_replies,
                         std::chrono::steady_clock::time_point deadline,
                         std::vector<wire::ShardReply>* replies) const
      FIRZEN_REQUIRES(conn->mu);

  std::vector<std::unique_ptr<Conn>> conns_;
  Index num_items_ = 0;
  DistributedServingOptions options_;

  mutable std::atomic<uint64_t> shard_rpcs_{0};
  mutable std::atomic<uint64_t> failed_rpcs_{0};
  mutable std::atomic<uint64_t> degraded_responses_{0};
  mutable std::atomic<uint64_t> reconnects_{0};
  mutable std::atomic<uint64_t> bytes_sent_{0};
  mutable std::atomic<uint64_t> bytes_received_{0};
};

}  // namespace firzen

#endif  // FIRZEN_SERVE_DISTRIBUTED_SERVING_H_
