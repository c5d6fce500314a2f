#include "src/serve/shard_server.h"

#include <sys/socket.h>

#include <chrono>
#include <utility>

#include "src/eval/serving_internal.h"
#include "src/util/check.h"
#include "src/util/ranking.h"
#include "src/util/thread_pool.h"

namespace firzen {

namespace {
// How long the accept loop sleeps between stop-flag checks. Short enough
// that Stop() is prompt, long enough to cost nothing.
constexpr int64_t kAcceptPollMs = 50;
}  // namespace

ShardServer::ShardServer(std::unique_ptr<Scorer> scorer,
                         std::shared_ptr<const ServingSharedState> state,
                         ItemBlock shard, ShardServerOptions options)
    : scorer_(std::move(scorer)),
      state_(std::move(state)),
      shard_(shard),
      options_(std::move(options)) {
  FIRZEN_CHECK(scorer_ != nullptr);
  FIRZEN_CHECK(state_ != nullptr);
  num_items_ = scorer_->num_items();
  FIRZEN_CHECK_EQ(static_cast<Index>(state_->is_cold.size()), num_items_);
  FIRZEN_CHECK_GE(shard_.begin, 0);
  FIRZEN_CHECK_LE(shard_.begin, shard_.end);
  FIRZEN_CHECK_LE(shard_.end, num_items_);
  FIRZEN_CHECK_GT(options_.item_block, 0);
  if (options_.pool == nullptr) options_.pool = ThreadPool::Global();
  view_ = std::make_unique<const ItemRangeScorer>(scorer_.get(), shard_.begin,
                                                  shard_.end);
  stall_replies_us_.store(options_.stall_replies_us,
                          std::memory_order_relaxed);
}

ShardServer::~ShardServer() { Stop(); }

Status ShardServer::Start() {
  FIRZEN_CHECK(!started_);
  Result<net::UniqueFd> listener =
      net::Listen(options_.listen_address, &bound_address_);
  if (!listener.ok()) return listener.status();
  listen_fd_ = std::move(listener.value());
  started_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ShardServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  {
    // Wake handlers blocked in recv: a shutdown makes their pending read
    // return "connection closed" and the handler exits on its own.
    MutexLock lock(conn_mu_);
    for (int fd : live_conn_fds_) shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> handlers;
  {
    MutexLock lock(conn_mu_);
    handlers.swap(handlers_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  listen_fd_.reset();
  started_ = false;
}

void ShardServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<net::UniqueFd> conn = net::Accept(listen_fd_.get(), kAcceptPollMs);
    if (!conn.ok()) return;        // listener broke; nothing to serve
    if (!conn.value()) continue;   // poll tick: re-check the stop flag
    MutexLock lock(conn_mu_);
    if (stopping_.load(std::memory_order_relaxed)) return;
    net::UniqueFd fd = std::move(conn.value());
    live_conn_fds_.push_back(fd.get());
    handlers_.emplace_back(
        [this, raw = std::make_shared<net::UniqueFd>(std::move(fd))]() mutable {
          HandleConnection(std::move(*raw));
        });
  }
}

std::string ShardServer::ValidateRequests(
    const std::vector<RecRequest>& requests) const {
  // Mirror of serving_internal::PrepareRequests' FIRZEN_CHECKs, as
  // recoverable validation: these are remote bytes, not local programming
  // errors, so they must refuse the batch instead of aborting the server.
  for (const RecRequest& req : requests) {
    if (req.k <= 0) return "bad request: k <= 0";
    if (req.user < 0) return "bad request: negative user";
    if (options_.num_users > 0 && req.user >= options_.num_users) {
      return "bad request: user beyond catalog";
    }
    for (Index c : req.candidates) {
      if (c < 0 || c >= num_items_) {
        return "bad request: candidate outside [0, num_items)";
      }
    }
    if (state_->seen.size() > 0 &&
        req.exclusion == ExclusionPolicy::kTrainSeen &&
        req.user >= static_cast<Index>(state_->seen.size())) {
      return "bad request: user beyond exclusion state";
    }
  }
  return "";
}

void ShardServer::HandleConnection(net::UniqueFd conn) {
  const int fd = conn.get();
  // Deregister the fd on every exit path so Stop() never shuts down a
  // recycled descriptor.
  struct Deregister {
    ShardServer* server;
    int fd;
    ~Deregister() {
      MutexLock lock(server->conn_mu_);
      auto& fds = server->live_conn_fds_;
      for (size_t i = 0; i < fds.size(); ++i) {
        if (fds[i] == fd) {
          fds[i] = fds.back();
          fds.pop_back();
          break;
        }
      }
    }
  } deregister{this, fd};

  // Handshake: hello -> shard info (or a version refusal).
  wire::FrameType type;
  std::vector<uint8_t> payload;
  if (!net::RecvFrame(fd, &type, &payload).ok()) return;
  uint32_t version = 0;
  if (type != wire::FrameType::kHello ||
      !wire::DecodeHello(payload.data(), payload.size(), &version)) {
    net::SendFrame(fd, wire::FrameType::kError,
                   wire::EncodeError("expected hello"));
    return;
  }
  if (version != wire::kProtocolVersion) {
    net::SendFrame(fd, wire::FrameType::kError,
                   wire::EncodeError("protocol version mismatch"));
    return;
  }
  wire::ShardInfo info;
  info.shard_begin = shard_.begin;
  info.shard_end = shard_.end;
  info.num_items = num_items_;
  if (!net::SendFrame(fd, wire::FrameType::kShardInfo,
                      wire::EncodeShardInfo(info))
           .ok()) {
    return;
  }

  // Strict request/reply alternation until the peer hangs up or errs.
  std::vector<RecRequest> requests;
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!net::RecvFrame(fd, &type, &payload).ok()) return;
    if (type != wire::FrameType::kRecRequestBatch ||
        !wire::DecodeRequestBatch(payload.data(), payload.size(), &requests)) {
      net::SendFrame(fd, wire::FrameType::kError,
                     wire::EncodeError("expected request batch"));
      return;
    }
    const std::string invalid = ValidateRequests(requests);
    if (!invalid.empty()) {
      net::SendFrame(fd, wire::FrameType::kError, wire::EncodeError(invalid));
      return;
    }

    // The in-process sharded engine's per-shard half, verbatim: prepare
    // the FULL batch in global ids, rank this shard's range through the
    // view, collect each heap's RanksBefore-sorted top-k (global ids).
    const serving_internal::PreparedBatch batch =
        serving_internal::PrepareBatch(requests, *state_, num_items_);
    std::vector<TopKHeap> heaps;
    heaps.reserve(requests.size());
    for (const RecRequest& req : requests) heaps.emplace_back(req.k);
    serving_internal::RankRequestsInRange(*view_, shard_, requests, batch,
                                          *state_, options_.item_block,
                                          options_.pool, &arenas_, &heaps);
    std::vector<wire::ShardReply> replies(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      replies[i].user = requests[i].user;
      replies[i].items = heaps[i].Sorted();
    }

    const int64_t stall = stall_replies_us_.load(std::memory_order_relaxed);
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(stall));
    }
    // Count before replying: a client holding this reply must see its
    // batch in requests_served() / batches_served().
    requests_served_.fetch_add(requests.size(), std::memory_order_relaxed);
    batches_served_.fetch_add(1, std::memory_order_relaxed);
    if (!net::SendFrame(fd, wire::FrameType::kRecReplyBatch,
                        wire::EncodeReplyBatch(replies))
             .ok()) {
      return;
    }
  }
}

Result<EmbeddingShardServer> ServeEmbeddingsShard(
    const std::string& embeddings_path, Index shard_begin, Index shard_end,
    ShardServerOptions options) {
  Result<std::unique_ptr<StaticRecommender>> loaded =
      LoadEmbeddings(embeddings_path);
  if (!loaded.ok()) return loaded.status();
  EmbeddingShardServer out;
  out.model = std::move(loaded.value());
  const Index num_items = out.model->ItemEmbeddings().rows();
  const Index num_users = out.model->user_embeddings().rows();
  if (shard_begin < 0 || shard_end < shard_begin || shard_end > num_items) {
    return Status::InvalidArgument("shard range outside [0, num_items)");
  }
  // Same all-warm, no-exclusion state firzen_cli builds for its local
  // serving paths — the two sides must agree for byte-identical output.
  Dataset empty;
  empty.num_users = num_users;
  empty.num_items = num_items;
  empty.is_cold_item.assign(static_cast<size_t>(num_items), false);
  auto state = ServingSharedState::FromDataset(empty, num_items);
  options.num_users = num_users;
  // Mint before the make_unique call: options is moved into it, and
  // argument evaluation order is unspecified.
  std::unique_ptr<Scorer> scorer = out.model->MakeScorer(options.precision);
  out.server = std::make_unique<ShardServer>(
      std::move(scorer), std::move(state), ItemBlock{shard_begin, shard_end},
      std::move(options));
  Status started = out.server->Start();
  if (!started.ok()) return started;
  return out;
}

}  // namespace firzen
