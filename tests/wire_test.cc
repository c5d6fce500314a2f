// Wire-format round-trip suite: every distributed serving frame type
// (src/serve/wire.h) must decode back to exactly what was encoded — field
// for field, score bit for score bit — and every malformed input
// (truncation, trailing garbage, bad magic, impossible counts, bad enum
// values) must FAIL decode instead of crashing, over-allocating, or
// reading out of bounds. The wire format is the determinism boundary of
// the distributed serving stack: if a bit could bend here, the
// byte-identity contract (tests/distributed_serving_test.cc) would be
// unprovable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/serve/wire.h"

namespace firzen {
namespace {

// Bit-level score equality: NaN payloads, -0.0 vs 0.0, everything.
bool SameBits(Real a, Real b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

void ExpectRequestsEqual(const std::vector<RecRequest>& got,
                         const std::vector<RecRequest>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].user, want[i].user) << i;
    EXPECT_EQ(got[i].k, want[i].k) << i;
    EXPECT_EQ(got[i].candidates, want[i].candidates) << i;
    EXPECT_EQ(got[i].exclusion, want[i].exclusion) << i;
    EXPECT_EQ(got[i].exclude, want[i].exclude) << i;
    EXPECT_EQ(got[i].cold_only, want[i].cold_only) << i;
    EXPECT_EQ(got[i].deadline_us, want[i].deadline_us) << i;
    EXPECT_EQ(got[i].tenant, want[i].tenant) << i;
  }
}

TEST(WireHelloTest, RoundTripAndRejections) {
  const std::vector<uint8_t> payload = wire::EncodeHello();
  uint32_t version = 0;
  ASSERT_TRUE(wire::DecodeHello(payload.data(), payload.size(), &version));
  EXPECT_EQ(version, wire::kProtocolVersion);

  // Any truncated prefix fails.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(wire::DecodeHello(payload.data(), len, &version)) << len;
  }
  // Trailing garbage fails (a frame is exactly its payload).
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(wire::DecodeHello(padded.data(), padded.size(), &version));
  // Bad magic fails.
  std::vector<uint8_t> corrupt = payload;
  corrupt[0] ^= 0xFF;
  EXPECT_FALSE(wire::DecodeHello(corrupt.data(), corrupt.size(), &version));
}

TEST(WireShardInfoTest, RoundTripAndRangeValidation) {
  wire::ShardInfo info;
  info.shard_begin = 33;
  info.shard_end = 71;
  info.num_items = 97;
  const std::vector<uint8_t> payload = wire::EncodeShardInfo(info);
  wire::ShardInfo got;
  ASSERT_TRUE(wire::DecodeShardInfo(payload.data(), payload.size(), &got));
  EXPECT_EQ(got.shard_begin, 33);
  EXPECT_EQ(got.shard_end, 71);
  EXPECT_EQ(got.num_items, 97);

  // Empty shards are legal (the in-process layouts allow them too).
  info.shard_begin = info.shard_end = 0;
  const std::vector<uint8_t> empty = wire::EncodeShardInfo(info);
  ASSERT_TRUE(wire::DecodeShardInfo(empty.data(), empty.size(), &got));

  // Inverted or out-of-catalog ranges fail decode.
  wire::ShardInfo bad;
  bad.shard_begin = 10;
  bad.shard_end = 5;
  bad.num_items = 97;
  const std::vector<uint8_t> inverted = wire::EncodeShardInfo(bad);
  EXPECT_FALSE(wire::DecodeShardInfo(inverted.data(), inverted.size(), &got));
  bad.shard_begin = 10;
  bad.shard_end = 200;
  const std::vector<uint8_t> outside = wire::EncodeShardInfo(bad);
  EXPECT_FALSE(wire::DecodeShardInfo(outside.data(), outside.size(), &got));

  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(wire::DecodeShardInfo(payload.data(), len, &got)) << len;
  }
}

TEST(WireRequestBatchTest, EveryFieldRoundTrips) {
  std::vector<RecRequest> requests;

  RecRequest defaults;  // empty pool, -1 deadline, kTrainSeen
  requests.push_back(defaults);

  RecRequest loaded;
  loaded.user = 123456789012345LL;
  loaded.k = std::numeric_limits<Index>::max();  // huge k survives
  loaded.candidates = {0, 5, 5, 96, 3};          // dups preserved verbatim
  loaded.exclusion = ExclusionPolicy::kCustom;
  loaded.exclude = {7, 7, 1};
  loaded.cold_only = true;
  loaded.deadline_us = 0;  // "already expired" is a meaningful value
  loaded.tenant = 42;
  requests.push_back(loaded);

  RecRequest none;
  none.user = 0;
  none.k = 1;
  none.exclusion = ExclusionPolicy::kNone;
  none.deadline_us = std::numeric_limits<int64_t>::max();
  requests.push_back(none);

  const std::vector<uint8_t> payload = wire::EncodeRequestBatch(requests);
  std::vector<RecRequest> got;
  ASSERT_TRUE(wire::DecodeRequestBatch(payload.data(), payload.size(), &got));
  ExpectRequestsEqual(got, requests);

  // The empty batch is legal and distinct from a malformed one.
  const std::vector<uint8_t> empty = wire::EncodeRequestBatch({});
  ASSERT_TRUE(wire::DecodeRequestBatch(empty.data(), empty.size(), &got));
  EXPECT_TRUE(got.empty());
}

TEST(WireRequestBatchTest, TruncationTrailingBytesAndBadEnumsFail) {
  std::vector<RecRequest> requests(2);
  requests[0].candidates = {1, 2, 3};
  requests[1].exclusion = ExclusionPolicy::kCustom;
  requests[1].exclude = {9};
  const std::vector<uint8_t> payload = wire::EncodeRequestBatch(requests);

  std::vector<RecRequest> got;
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(wire::DecodeRequestBatch(payload.data(), len, &got)) << len;
  }
  std::vector<uint8_t> padded = payload;
  padded.push_back(7);
  EXPECT_FALSE(wire::DecodeRequestBatch(padded.data(), padded.size(), &got));

  // An out-of-range exclusion policy byte fails decode. The policy byte of
  // request 0 sits after the batch count (8), user (8), k (8), and the
  // candidate vector (8 + 3*8).
  std::vector<uint8_t> bad_enum = payload;
  bad_enum[8 + 8 + 8 + 8 + 24] = 99;
  EXPECT_FALSE(
      wire::DecodeRequestBatch(bad_enum.data(), bad_enum.size(), &got));

  // A cold_only byte other than 0/1 fails too (same offset + exclude
  // vector + 1 policy byte later).
  std::vector<uint8_t> bad_bool = payload;
  bad_bool[8 + 8 + 8 + 8 + 24 + 1 + 8] = 2;
  EXPECT_FALSE(
      wire::DecodeRequestBatch(bad_bool.data(), bad_bool.size(), &got));
}

TEST(WireRequestBatchTest, CorruptCountsCannotForceGiantAllocations) {
  // A count prefix claiming 2^60 requests in a 16-byte payload must fail
  // the remaining-bytes check, not attempt the resize.
  wire::Writer w;
  w.PutU64(1ULL << 60);
  w.PutU64(0);
  const std::vector<uint8_t> payload = w.Take();
  std::vector<RecRequest> requests;
  EXPECT_FALSE(
      wire::DecodeRequestBatch(payload.data(), payload.size(), &requests));
  std::vector<wire::ShardReply> replies;
  EXPECT_FALSE(
      wire::DecodeReplyBatch(payload.data(), payload.size(), &replies));
  std::string message;
  EXPECT_FALSE(wire::DecodeError(payload.data(), payload.size(), &message));

  // Same for a nested (per-reply item) count.
  wire::Writer nested;
  nested.PutU64(1);           // one reply
  nested.PutI64(0);           // user
  nested.PutU64(1ULL << 59);  // impossible item count
  const std::vector<uint8_t> nested_payload = nested.Take();
  EXPECT_FALSE(wire::DecodeReplyBatch(nested_payload.data(),
                                      nested_payload.size(), &replies));
}

TEST(WireReplyBatchTest, ScoresRoundTripBitExactly) {
  // The adversarial score set: negative zero, denormals, extremes, values
  // whose decimal formatting would lose bits. (NaN never crosses the wire
  // in practice — TopKHeap drops it pre-serialization — but the format
  // itself is transparent to any bit pattern.)
  const std::vector<Real> scores = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      std::numeric_limits<Real>::denorm_min(),
      -std::numeric_limits<Real>::denorm_min(),
      std::numeric_limits<Real>::min(),
      std::numeric_limits<Real>::max(),
      -std::numeric_limits<Real>::max(),
      std::numeric_limits<Real>::infinity(),
      -std::numeric_limits<Real>::infinity(),
      0.1,  // not exactly representable: printf round-trips lose this
      std::nextafter(1.0, 2.0),
  };
  std::vector<wire::ShardReply> replies(2);
  replies[0].user = 7;
  for (size_t i = 0; i < scores.size(); ++i) {
    replies[0].items.push_back({static_cast<Index>(i), scores[i]});
  }
  replies[1].user = 11;  // empty items list round-trips too

  const std::vector<uint8_t> payload = wire::EncodeReplyBatch(replies);
  std::vector<wire::ShardReply> got;
  ASSERT_TRUE(wire::DecodeReplyBatch(payload.data(), payload.size(), &got));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].user, 7);
  EXPECT_EQ(got[1].user, 11);
  EXPECT_TRUE(got[1].items.empty());
  ASSERT_EQ(got[0].items.size(), scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(got[0].items[i].item, static_cast<Index>(i));
    EXPECT_TRUE(SameBits(got[0].items[i].score, scores[i])) << i;
  }

  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(wire::DecodeReplyBatch(payload.data(), len, &got)) << len;
  }
}

TEST(WireErrorTest, RoundTripIncludingEmptyAndBinary) {
  const std::vector<std::string> messages = {
      "", "shard range mismatch", std::string("nul\0byte", 8)};
  for (const std::string& message : messages) {
    const std::vector<uint8_t> payload = wire::EncodeError(message);
    std::string got;
    ASSERT_TRUE(wire::DecodeError(payload.data(), payload.size(), &got));
    EXPECT_EQ(got, message);
  }
}

}  // namespace
}  // namespace firzen
