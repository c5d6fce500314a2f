#include "src/serve/distributed_serving.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/eval/sharded_serving.h"
#include "src/util/check.h"

namespace firzen {

namespace {

using Clock = std::chrono::steady_clock;

// Milliseconds remaining until `deadline`, rounded UP so sub-millisecond
// budgets still get one poll instead of an instant timeout; <= 0 when the
// deadline has passed.
int64_t RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return (left + 999) / 1000;
}

}  // namespace

Result<std::unique_ptr<DistributedServingEngine>>
DistributedServingEngine::Connect(DistributedServingOptions options) {
  if (options.shard_addresses.empty()) {
    return Status::InvalidArgument("no shard addresses");
  }
  // Bare new: the constructor is private, so make_unique cannot reach it.
  std::unique_ptr<DistributedServingEngine> engine(
      new DistributedServingEngine());
  engine->options_ = std::move(options);
  for (const std::string& address : engine->options_.shard_addresses) {
    auto conn = std::make_unique<Conn>();
    conn->address = address;
    Status dialed = engine->DialShard(address, engine->options_.connect_timeout_ms,
                                      &conn->fd, &conn->info);
    if (!dialed.ok()) {
      return Status(dialed.code(),
                    "shard " + address + ": " + dialed.message());
    }
    engine->conns_.push_back(std::move(conn));
  }

  // The announced ranges must tile [0, num_items) exactly, in ANY address
  // order, and agree on the catalog size: a hole would silently drop part
  // of the catalog, an overlap would double-count items in the merge.
  const Index num_items = engine->conns_[0]->info.num_items;
  std::vector<const wire::ShardInfo*> by_begin;
  for (const auto& conn : engine->conns_) {
    if (conn->info.num_items != num_items) {
      return Status::FailedPrecondition(
          "shard servers disagree on catalog size");
    }
    by_begin.push_back(&conn->info);
  }
  std::sort(by_begin.begin(), by_begin.end(),
            [](const wire::ShardInfo* a, const wire::ShardInfo* b) {
              return a->shard_begin < b->shard_begin;
            });
  Index cursor = 0;
  for (const wire::ShardInfo* info : by_begin) {
    if (info->shard_begin != cursor) {
      return Status::FailedPrecondition(
          "shard ranges do not tile the catalog (hole or overlap at item " +
          std::to_string(cursor) + ")");
    }
    cursor = info->shard_end;
  }
  if (cursor != num_items) {
    return Status::FailedPrecondition(
        "shard ranges do not cover the catalog tail");
  }
  engine->num_items_ = num_items;
  return engine;
}

Status DistributedServingEngine::DialShard(const std::string& address,
                                           int64_t timeout_ms,
                                           net::UniqueFd* fd,
                                           wire::ShardInfo* info) const {
  Status last = Status::OK();
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (attempt > 0 && options_.retry_backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.retry_backoff_ms));
    }
    Result<net::UniqueFd> dialed = net::Connect(address, timeout_ms);
    if (!dialed.ok()) {
      last = dialed.status();
      continue;
    }
    net::UniqueFd conn = std::move(dialed.value());
    const std::vector<uint8_t> hello = wire::EncodeHello();
    Status sent =
        net::SendFrame(conn.get(), wire::FrameType::kHello, hello, timeout_ms);
    if (!sent.ok()) {
      last = sent;
      continue;
    }
    bytes_sent_.fetch_add(hello.size() + wire::kFrameHeaderSize,
                          std::memory_order_relaxed);
    wire::FrameType type;
    std::vector<uint8_t> payload;
    Status received = net::RecvFrame(conn.get(), &type, &payload, timeout_ms);
    if (!received.ok()) {
      last = received;
      continue;
    }
    bytes_received_.fetch_add(payload.size() + wire::kFrameHeaderSize,
                              std::memory_order_relaxed);
    if (type != wire::FrameType::kShardInfo ||
        !wire::DecodeShardInfo(payload.data(), payload.size(), info)) {
      std::string message = "handshake refused";
      if (type == wire::FrameType::kError) {
        wire::DecodeError(payload.data(), payload.size(), &message);
      }
      // A refusal (version mismatch, protocol garbage) is not transient;
      // retrying cannot help.
      return Status::FailedPrecondition(message);
    }
    *fd = std::move(conn);
    return Status::OK();
  }
  return last;
}

RecResponse DistributedServingEngine::Recommend(
    const RecRequest& request) const {
  return RecommendBatch({request})[0];
}

ItemBlock DistributedServingEngine::shard_range(Index shard) const {
  const Conn& conn = *conns_[static_cast<size_t>(shard)];
  return {conn.info.shard_begin, conn.info.shard_end};
}

const std::string& DistributedServingEngine::shard_address(Index shard) const {
  return conns_[static_cast<size_t>(shard)]->address;
}

Status DistributedServingEngine::ExchangeOnShard(
    Conn* conn, const std::vector<uint8_t>& payload, size_t expected_replies,
    Clock::time_point deadline, std::vector<wire::ShardReply>* replies) const {
  if (!conn->fd) {
    // Down since a previous batch: re-dial within this batch's budget
    // (DialShard retries once with backoff internally). The handshake must
    // re-announce the SAME range — a different server squatting the
    // address must not silently bend the tiling.
    const int64_t budget_ms = RemainingMs(deadline);
    if (budget_ms <= 0) return Status::IOError("no budget to reconnect");
    wire::ShardInfo fresh;
    Status dialed = DialShard(conn->address, budget_ms, &conn->fd, &fresh);
    if (!dialed.ok()) return dialed;
    if (fresh.shard_begin != conn->info.shard_begin ||
        fresh.shard_end != conn->info.shard_end ||
        fresh.num_items != conn->info.num_items) {
      conn->fd.reset();
      return Status::FailedPrecondition(
          "reconnected shard announces a different range");
    }
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }

  const int64_t send_ms = RemainingMs(deadline);
  if (send_ms <= 0) return Status::IOError("deadline before send");
  Status sent = net::SendFrame(conn->fd.get(),
                               wire::FrameType::kRecRequestBatch, payload,
                               send_ms);
  if (!sent.ok()) return sent;
  bytes_sent_.fetch_add(payload.size() + wire::kFrameHeaderSize,
                        std::memory_order_relaxed);

  wire::FrameType type;
  std::vector<uint8_t> reply_payload;
  const int64_t recv_ms = RemainingMs(deadline);
  Status received = net::RecvFrame(conn->fd.get(), &type, &reply_payload,
                                   recv_ms <= 0 ? 0 : recv_ms);
  if (!received.ok()) return received;
  bytes_received_.fetch_add(reply_payload.size() + wire::kFrameHeaderSize,
                            std::memory_order_relaxed);
  if (type == wire::FrameType::kError) {
    std::string message = "shard error";
    wire::DecodeError(reply_payload.data(), reply_payload.size(), &message);
    return Status::Internal(message);
  }
  if (type != wire::FrameType::kRecReplyBatch ||
      !wire::DecodeReplyBatch(reply_payload.data(), reply_payload.size(),
                              replies)) {
    return Status::Internal("malformed reply frame");
  }
  if (replies->size() != expected_replies) {
    return Status::Internal("reply count mismatch");
  }
  return Status::OK();
}

std::vector<RecResponse> DistributedServingEngine::RecommendBatch(
    const std::vector<RecRequest>& requests) const {
  std::vector<RecResponse> responses(requests.size());
  if (requests.empty()) return responses;

  // Encode ONCE; every shard receives the identical batch, mirroring how
  // the in-process engine prepares the batch once for all shards.
  const std::vector<uint8_t> payload = wire::EncodeRequestBatch(requests);

  // Per-shard wait cap: the rpc timeout, tightened to the smallest
  // deadline budget any request in the batch carries — the coordinator
  // mirror of the admission collect-wait cap. A shard that cannot answer
  // within the cap degrades the batch instead of completing it late.
  int64_t budget_us = options_.rpc_timeout_ms * 1000;
  for (const RecRequest& request : requests) {
    if (request.deadline_us >= 0) {
      budget_us = std::min(budget_us, request.deadline_us);
    }
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(budget_us);

  const size_t num_shards = conns_.size();
  std::vector<std::vector<wire::ShardReply>> shard_replies(num_shards);
  std::vector<uint8_t> failed(num_shards, 0);

  // Already expired at fan-out (deadline_us <= 0 in the batch): every shard
  // fails without touching its connection — nothing was sent, so the
  // request/reply alternation is intact and the next batch needs no
  // re-dial.
  if (budget_us <= 0) std::fill(failed.begin(), failed.end(), uint8_t{1});

  // One exchange thread per shard: each locks exactly its own shard's
  // connection (no lock ordering to get wrong) and every socket wait is
  // bounded by `deadline`, so the join below is bounded too.
  std::vector<std::thread> threads;
  threads.reserve(num_shards);
  for (size_t s = 0; s < num_shards && budget_us > 0; ++s) {
    threads.emplace_back([&, s] {
      Conn* conn = conns_[s].get();
      MutexLock lock(conn->mu);
      Status status = ExchangeOnShard(conn, payload, requests.size(), deadline,
                                      &shard_replies[s]);
      if (!status.ok()) {
        // Drop the socket: an abandoned in-flight exchange would desync
        // the request/reply alternation for the next batch. The next
        // batch re-dials.
        conn->fd.reset();
        failed[s] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  shard_rpcs_.fetch_add(num_shards, std::memory_order_relaxed);
  std::vector<Index> failed_shards;
  for (size_t s = 0; s < num_shards; ++s) {
    if (failed[s]) failed_shards.push_back(static_cast<Index>(s));
  }
  failed_rpcs_.fetch_add(failed_shards.size(), std::memory_order_relaxed);
  const bool degraded = !failed_shards.empty();
  if (degraded) {
    degraded_responses_.fetch_add(requests.size(), std::memory_order_relaxed);
  }

  // The sharded ServingEngine's merge half: concatenate the surviving
  // shards' RanksBefore-sorted lists, MergeTopK to each request's k.
  for (size_t i = 0; i < requests.size(); ++i) {
    std::vector<ScoredItem> entries;
    for (size_t s = 0; s < num_shards; ++s) {
      if (failed[s]) continue;
      const std::vector<ScoredItem>& top = shard_replies[s][i].items;
      entries.insert(entries.end(), top.begin(), top.end());
    }
    const std::vector<ScoredItem> merged =
        MergeTopK(std::move(entries), requests[i].k);
    responses[i].user = requests[i].user;
    responses[i].status = degraded ? RecStatus::kDegraded : RecStatus::kOk;
    if (degraded) responses[i].failed_shards = failed_shards;
    responses[i].items.reserve(merged.size());
    for (const ScoredItem& e : merged) {
      responses[i].items.push_back({e.item, e.score});
    }
  }
  return responses;
}

}  // namespace firzen
