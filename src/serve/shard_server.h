// One catalog shard behind a socket: ShardServer owns a contiguous global
// item range of a base scorer and answers wire::kRecRequestBatch frames
// with that shard's per-request top-K lists — exactly the lists a sharded
// in-process ServingEngine computes for the same range, because
// both run the identical shared core: serving_internal::PrepareBatch over
// the FULL request batch in global ids, then RankRequestsInRange over the
// shard's global item range of the base scorer. The coordinator
// (DistributedServingEngine) merges these lists with MergeTopK, so a
// healthy distributed response is byte-identical to the in-process engine
// by construction — the shared code path is the proof, the
// distributed-invariance suite the pin.
//
// Protocol per connection (see src/serve/wire.h): hello/shard-info
// handshake, then a strict request/reply alternation. Malformed or
// invalid remote input (bad frame, out-of-range user or candidate ids,
// k <= 0) is answered with a wire kError frame and the connection is
// dropped — remote bytes can never reach a FIRZEN_CHECK abort.
//
// Concurrency: each accepted connection gets a handler thread; handlers
// share the scorer and state (both logically const) and lease private
// ScoringArenas, the same concurrency contract the in-process engines
// pin under TSan. Start()/Stop() are setup/teardown; Stop() disconnects
// every client and joins all threads (safe to call twice; the destructor
// calls it).
#ifndef FIRZEN_SERVE_SHARD_SERVER_H_
#define FIRZEN_SERVE_SHARD_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/serving.h"
#include "src/models/scorer.h"
#include "src/models/serialize.h"
#include "src/serve/net.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace firzen {

struct ShardServerOptions {
  /// Where to listen: "host:port" (port 0 = kernel-assigned, published via
  /// bound_address()) or "unix:/path".
  std::string listen_address = "127.0.0.1:0";
  /// Tile width of the fused score-and-select pass, as in the in-process
  /// engines.
  Index item_block = 512;
  /// Pool the fused pass runs on; nullptr = ThreadPool::Global().
  ThreadPool* pool = nullptr;
  /// Upper bound for request user ids (requests with user >= num_users get
  /// a wire error instead of an out-of-bounds gather). 0 = no check — only
  /// for trusted in-process tests.
  Index num_users = 0;
  /// Fault injection for tests: sleep this long before sending each reply.
  int64_t stall_replies_us = 0;
  /// Numeric tier for the scorer ServeEmbeddingsShard mints from the loaded
  /// embeddings (a ShardServer built over an explicit scorer keeps that
  /// scorer's precision). Every shard server of one catalog must run the
  /// same precision — the coordinator merge is precision-agnostic and
  /// cannot reconcile mixed tiers.
  ScoringPrecision precision = ScoringPrecision::kFp32;
};

/// Serves one contiguous item-id shard of a catalog over the wire
/// protocol. The scorer is the BASE (full-catalog) scorer; the server
/// scores its global items [shard.begin, shard.end) through it directly,
/// so per-item scores are bit-identical to any other partitioning of the
/// same base (the Scorer block-invariance contract).
class ShardServer {
 public:
  /// `state` must be non-null with is_cold sized to the base scorer's
  /// catalog, and every replica of a distributed deployment must hold the
  /// SAME state (seen lists + cold bitmap) for responses to be
  /// bit-identical to the in-process oracle. Requires
  /// 0 <= shard.begin <= shard.end <= scorer->num_items().
  ShardServer(std::unique_ptr<Scorer> scorer,
              std::shared_ptr<const ServingSharedState> state, ItemBlock shard,
              ShardServerOptions options = {});
  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;
  ~ShardServer();

  /// Binds, listens, and starts the accept loop. Fails (Status) on bind
  /// errors; never aborts.
  Status Start();

  /// Disconnects all clients, stops accepting, joins every thread.
  /// Idempotent.
  void Stop();

  /// The concrete listen address (with the kernel-assigned port resolved);
  /// valid after a successful Start().
  const std::string& bound_address() const { return bound_address_; }

  Index shard_begin() const { return shard_.begin; }
  Index shard_end() const { return shard_.end; }
  Index num_items() const { return num_items_; }

  /// Requests answered so far across all connections (monotonic). Both
  /// counters move before the reply is sent, so a client that holds a
  /// reply always finds its batch counted.
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Request batches answered so far (monotonic).
  uint64_t batches_served() const {
    return batches_served_.load(std::memory_order_relaxed);
  }

  /// Fault injection (tests): delay every subsequent reply by `us`
  /// microseconds, simulating a stalled shard. Thread-safe.
  void set_stall_replies_us(int64_t us) {
    stall_replies_us_.store(us, std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void HandleConnection(net::UniqueFd conn);
  /// Returns a non-empty message when `requests` must be refused (the
  /// remote-input validation mirroring PrepareRequests' CHECKs).
  std::string ValidateRequests(const std::vector<RecRequest>& requests) const;

  std::unique_ptr<const Scorer> scorer_;
  std::shared_ptr<const ServingSharedState> state_;
  ItemBlock shard_;
  Index num_items_ = 0;
  ShardServerOptions options_;
  std::atomic<int64_t> stall_replies_us_{0};

  net::UniqueFd listen_fd_;
  std::string bound_address_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  Mutex conn_mu_;
  // Joined in Stop().
  std::vector<std::thread> handlers_ FIRZEN_GUARDED_BY(conn_mu_);
  // Shut down in Stop().
  std::vector<int> live_conn_fds_ FIRZEN_GUARDED_BY(conn_mu_);

  mutable ArenaPool arenas_;
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> batches_served_{0};
};

/// A servable shard loaded from a .fzem embeddings file (the
/// firzen_shard_server / firzen_cli serve-shard path): the model backing
/// the scorer plus the running server. The model carries no training
/// interactions, so the shared state is all-warm with no exclusions —
/// identical to what `firzen_cli recommend` builds in-process, which keeps
/// the CLI's distributed and local paths byte-comparable.
struct EmbeddingShardServer {
  std::unique_ptr<StaticRecommender> model;
  std::unique_ptr<ShardServer> server;
};

/// Loads `embeddings_path`, validates [shard_begin, shard_end) against the
/// catalog, and returns a STARTED server listening per `options`.
Result<EmbeddingShardServer> ServeEmbeddingsShard(
    const std::string& embeddings_path, Index shard_begin, Index shard_end,
    ShardServerOptions options = {});

}  // namespace firzen

#endif  // FIRZEN_SERVE_SHARD_SERVER_H_
