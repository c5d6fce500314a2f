// Wire protocol for distributed shard serving: a minimal length-prefixed
// binary framing over local TCP / Unix sockets, no external deps. The
// coordinator (DistributedServingEngine) speaks it to firzen_shard_server
// processes; tests speak it directly to pin the format.
//
// Frame layout (all integers little-endian):
//
//   [u32 payload_len][u8 frame_type][payload_len bytes of payload]
//
// Conversation: the client opens with kHello (magic + protocol version);
// the server answers kShardInfo (its global item range and catalog size) or
// kError on a version mismatch. After the handshake the client sends
// kRecRequestBatch frames and the server answers each with exactly one
// kRecReplyBatch (same request count, same order) or kError — a strict
// request/reply alternation, so one connection needs no request ids.
//
// Determinism contract: scores travel as their raw 8-byte IEEE-754
// representation (never formatted, never rounded), item ids as 64-bit
// GLOBAL ids, and each per-request reply list is the shard's top-K in
// RanksBefore order (src/util/ranking.h) — exactly the per-shard lists a
// sharded ServingEngine merges in-process. Decoding is therefore bit-exact:
// a request batch and its replies survive the wire unchanged, which is
// what makes the distributed healthy path byte-identical to the
// in-process oracle (tests/distributed_serving_test.cc).
//
// Safety: decoders are bounds-checked and allocation-capped — a truncated,
// oversized, or malformed frame fails decode (returns false) instead of
// reading out of bounds or allocating unboundedly. Nothing here aborts on
// remote input; FIRZEN_CHECK guards only local programming errors.
#ifndef FIRZEN_SERVE_WIRE_H_
#define FIRZEN_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/eval/serving.h"
#include "src/util/ranking.h"

namespace firzen {
namespace wire {

/// First bytes of every kHello/kShardInfo payload ("FZRW").
constexpr uint32_t kMagic = 0x465A5257u;
/// Protocol version; bumped on any incompatible frame change. A server
/// refuses a mismatched hello with kError instead of guessing.
constexpr uint32_t kProtocolVersion = 1;

/// Hard cap on one frame's payload (64 MiB). A length prefix beyond this is
/// a protocol error: real batches are orders of magnitude smaller, and the
/// cap keeps a corrupt prefix from provoking a giant allocation.
constexpr uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/// Size of the fixed frame header ([u32 len][u8 type]).
constexpr size_t kFrameHeaderSize = 5;

enum class FrameType : uint8_t {
  kHello = 1,            // client -> server: magic, version
  kShardInfo = 2,        // server -> client: handshake accept + shard layout
  kRecRequestBatch = 3,  // client -> server: batched RecRequests
  kRecReplyBatch = 4,    // server -> client: per-request shard top-K lists
  kError = 5,            // either direction: human-readable refusal
};

/// A shard server's identity, announced in the handshake: which contiguous
/// global item range it scores and how large the full catalog is. The
/// coordinator validates that its N connections tile [0, num_items)
/// exactly and agree on num_items.
struct ShardInfo {
  Index shard_begin = 0;
  Index shard_end = 0;
  Index num_items = 0;  // full catalog size, not the shard's
};

/// One request's answer from one shard: the shard's top-K for that request
/// in RanksBefore order, item ids GLOBAL. `user` echoes the request for
/// cross-checking the strict request/reply alternation.
struct ShardReply {
  Index user = 0;
  std::vector<ScoredItem> items;
};

// --- Low-level append/read primitives (exposed for tests) ------------------

/// Append-only little-endian payload builder.
class Writer {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// Raw IEEE-754 bits — the bit-exactness carrier for scores.
  void PutF64(double v);
  void PutBytes(const void* data, size_t size);

  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader: every Get returns false on
/// underrun and never reads past the buffer.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool GetU8(uint8_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetF64(double* v);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// Reads an element count that is about to size a vector whose elements
  /// occupy at least `min_element_bytes` each on the wire. Fails when the
  /// count could not possibly fit in the remaining payload — the
  /// allocation cap that keeps a corrupt count from DoSing the decoder.
  bool GetCount(size_t min_element_bytes, uint64_t* count);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- Frame payload encode/decode -------------------------------------------
// Encoders return the frame PAYLOAD only (framing — length prefix + type
// byte — is applied by net.h's SendFrame). Decoders take the received
// payload and return false on any malformation: truncation, trailing
// garbage, bad magic, impossible counts, out-of-range enum values.

std::vector<uint8_t> EncodeHello();
bool DecodeHello(const uint8_t* data, size_t size, uint32_t* version);

std::vector<uint8_t> EncodeShardInfo(const ShardInfo& info);
bool DecodeShardInfo(const uint8_t* data, size_t size, ShardInfo* info);

/// Every RecRequest field crosses the wire: user, k, candidate pool,
/// exclusion policy + custom exclude list, cold_only, deadline_us (-1 =
/// none, preserved exactly), tenant.
std::vector<uint8_t> EncodeRequestBatch(const std::vector<RecRequest>& requests);
bool DecodeRequestBatch(const uint8_t* data, size_t size,
                        std::vector<RecRequest>* requests);

std::vector<uint8_t> EncodeReplyBatch(const std::vector<ShardReply>& replies);
bool DecodeReplyBatch(const uint8_t* data, size_t size,
                      std::vector<ShardReply>* replies);

std::vector<uint8_t> EncodeError(const std::string& message);
bool DecodeError(const uint8_t* data, size_t size, std::string* message);

}  // namespace wire
}  // namespace firzen

#endif  // FIRZEN_SERVE_WIRE_H_
