// Minimal POSIX socket layer under the distributed serving wire protocol:
// address parsing, listen/accept/connect, and deadline-bounded framed I/O.
// Plain sockets only — no external RPC dependency; the two address forms
// are local TCP ("host:port", host numeric IPv4 or "localhost", port 0 =
// kernel-assigned) and Unix domain ("unix:/path/to.sock").
//
// All connected sockets are non-blocking and every I/O helper takes a
// timeout: SendFrame/RecvFrame poll toward an absolute deadline computed
// once per call, so a stalled peer costs at most the budget the caller
// passed — the primitive the coordinator's per-shard deadline cap is built
// on. timeout_ms < 0 means no deadline (block until progress or error).
//
// Errors come back as Status (src/util/status.h), never exceptions;
// timeouts are IOError with "timed out" in the message. EINTR is retried
// internally; SIGPIPE is suppressed (MSG_NOSIGNAL).
#ifndef FIRZEN_SERVE_NET_H_
#define FIRZEN_SERVE_NET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/wire.h"
#include "src/util/status.h"

namespace firzen {
namespace net {

/// RAII file descriptor: closes on destruction, move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& other) noexcept;
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() { reset(); }

  int get() const { return fd_; }
  explicit operator bool() const { return fd_ >= 0; }
  /// Closes the held fd (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Binds and listens on `address`. TCP listeners get SO_REUSEADDR (so a
/// restarted server can rebind its port immediately); Unix listeners
/// unlink a stale socket file first. On success *bound_address holds the
/// concrete address — for "host:0" the kernel-assigned port is resolved,
/// which is how tests and in-process servers publish where they listen.
Result<UniqueFd> Listen(const std::string& address, std::string* bound_address);

/// Accepts one connection from a listening fd, waiting at most
/// `timeout_ms` (< 0 = forever). Returns an INVALID UniqueFd (not an
/// error) on timeout, so accept loops can poll a stop flag between waits.
/// The accepted socket is non-blocking with TCP_NODELAY where applicable.
Result<UniqueFd> Accept(int listen_fd, int64_t timeout_ms);

/// Connects to `address` within `timeout_ms` (< 0 = forever). The returned
/// socket is non-blocking with TCP_NODELAY where applicable.
Result<UniqueFd> Connect(const std::string& address, int64_t timeout_ms);

/// Writes one framed message ([u32 payload_len][u8 type][payload]) fully,
/// polling toward the deadline. Payloads over wire::kMaxFramePayload are
/// refused locally.
Status SendFrame(int fd, wire::FrameType type,
                 const std::vector<uint8_t>& payload, int64_t timeout_ms = -1);

/// Reads exactly one framed message, polling toward the deadline shared by
/// the header and payload reads. A peer close yields
/// IOError("connection closed"); a length prefix over
/// wire::kMaxFramePayload or an unknown frame type is a protocol error
/// (IOError) — the caller should drop the connection.
Status RecvFrame(int fd, wire::FrameType* type, std::vector<uint8_t>* payload,
                 int64_t timeout_ms = -1);

}  // namespace net
}  // namespace firzen

#endif  // FIRZEN_SERVE_NET_H_
