#include "serve/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/random.h"

namespace apan {
namespace serve {
namespace {

// ---- Bitwise equality helpers ----------------------------------------------
// Doubles are compared through their bit patterns so that NaN payloads and
// negative zero count as round-trip-preserved, not as mismatches.

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

bool SameFloats(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool Equal(const core::MailRows& a, const core::MailRows& b) {
  if (a.dim != b.dim || a.node != b.node || a.count != b.count ||
      a.tag != b.tag || a.time.size() != b.time.size()) {
    return false;
  }
  for (size_t i = 0; i < a.time.size(); ++i) {
    if (!SameBits(a.time[i], b.time[i])) return false;
  }
  return SameFloats(a.payload, b.payload);
}

bool Equal(const ShardPartial& a, const ShardPartial& b) {
  return a.batch == b.batch && a.from_shard == b.from_shard &&
         Equal(a.rows, b.rows) && a.num_state_updates == b.num_state_updates &&
         a.num_hop0 == b.num_hop0;
}

void ExpectRoundTrip(const ShardMessage& message) {
  const std::vector<uint8_t> payload = wire::EncodeMessage(message);
  Result<ShardMessage> decoded = wire::DecodeMessage(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(Equal(message, *decoded));
}

// ---- Exemplar messages (edge values included) ------------------------------

ShardPartial MakePartial() {
  ShardPartial m;
  m.batch = 41;
  m.from_shard = 3;
  // Negative timestamps, max tags, NaN, ±inf and -0.0 are all
  // representable states the wire must carry bitwise.
  m.rows.dim = 2;
  m.rows.AppendRow(7, 1.5, 1, 0, std::vector<float>{1.0f, -2.5f});
  m.rows.AppendRow(0, -0.0, 1, std::numeric_limits<int64_t>::max());
  m.num_state_updates = 2;
  m.rows.AppendRow(11, -123.5, 1, 5);  // zero payload, negative time
  float* mail =
      m.rows.AppendRow(12, std::numeric_limits<double>::infinity(), 2, 6);
  mail[0] = std::numeric_limits<float>::quiet_NaN();
  mail[1] = -0.0f;
  m.num_hop0 = 2;
  m.rows.AppendRow(9, -0.0, 3, 0, std::vector<float>{0.25f, 0.75f});
  return m;
}

std::vector<ShardMessage> Exemplars() {
  std::vector<ShardMessage> out;
  out.push_back(MakePartial());
  out.push_back(ShardPartial{});  // all-empty partial (the batch sentinel)
  return out;
}

// ---- Round trips -----------------------------------------------------------

TEST(WireTest, RoundTripsEveryAlternative) {
  for (const ShardMessage& message : Exemplars()) {
    ExpectRoundTrip(message);
  }
}

TEST(WireTest, FrameRoundTrip) {
  std::vector<uint8_t> stream;
  const std::vector<ShardMessage> messages = Exemplars();
  for (const ShardMessage& message : messages) {
    wire::AppendFrame(message, &stream);
  }
  // Replay the stream the way a socket reader does: header, payload,
  // repeat; the frames must reproduce the messages in order.
  size_t pos = 0;
  for (const ShardMessage& expected : messages) {
    ASSERT_GE(stream.size() - pos, wire::kFrameHeaderBytes);
    Result<uint32_t> length = wire::DecodeFrameLength(
        std::span<const uint8_t, wire::kFrameHeaderBytes>(
            stream.data() + pos, wire::kFrameHeaderBytes));
    ASSERT_TRUE(length.ok()) << length.status();
    pos += wire::kFrameHeaderBytes;
    ASSERT_GE(stream.size() - pos, *length);
    Result<ShardMessage> decoded = wire::DecodeMessage(
        std::span<const uint8_t>(stream.data() + pos, *length));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(Equal(expected, *decoded));
    pos += *length;
  }
  EXPECT_EQ(pos, stream.size());
}

// ---- Malformed input -------------------------------------------------------

TEST(WireTest, EveryTruncationFailsCleanly) {
  for (const ShardMessage& message : Exemplars()) {
    const std::vector<uint8_t> payload = wire::EncodeMessage(message);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      Result<ShardMessage> decoded = wire::DecodeMessage(
          std::span<const uint8_t>(payload.data(), cut));
      EXPECT_FALSE(decoded.ok())
          << "prefix of " << cut << "/" << payload.size()
          << " bytes decoded as a full message";
    }
  }
}

TEST(WireTest, TrailingBytesRejected) {
  std::vector<uint8_t> payload = wire::EncodeMessage(MakePartial());
  payload.push_back(0);
  EXPECT_FALSE(wire::DecodeMessage(payload).ok());
}

TEST(WireTest, UnknownKindRejected) {
  std::vector<uint8_t> payload = {0xEE};
  EXPECT_FALSE(wire::DecodeMessage(payload).ok());
  EXPECT_FALSE(wire::DecodeMessage({}).ok());
  // Kinds 2, 3 and 4 are retired, never reassigned: a valid partial body
  // behind any of those kind bytes must still come back as an unknown
  // kind.
  for (const uint8_t retired : {uint8_t{2}, uint8_t{3}, uint8_t{4}}) {
    std::vector<uint8_t> relabeled = wire::EncodeMessage(MakePartial());
    relabeled[0] = retired;
    Result<ShardMessage> decoded = wire::DecodeMessage(relabeled);
    ASSERT_FALSE(decoded.ok()) << "kind " << int{retired};
    EXPECT_NE(decoded.status().message().find("unknown message kind"),
              std::string::npos)
        << decoded.status();
  }
}

TEST(WireTest, CorruptCountRejectedBeforeAllocation) {
  // A partial whose row count claims 2^61 entries: the decoder must
  // reject against the bytes remaining, not try to resize.
  std::vector<uint8_t> payload = wire::EncodeMessage(ShardPartial{});
  // Layout: kind(1) + batch(8) + from_shard(4) + rows.node count(8).
  ASSERT_GE(payload.size(), 21u);
  for (size_t i = 13; i < 21; ++i) payload[i] = 0xFF;
  Result<ShardMessage> decoded = wire::DecodeMessage(payload);
  EXPECT_FALSE(decoded.ok());
}

// ---- Shape rules of the flat blocks ----------------------------------------
// Each probe encodes a block that breaks exactly one shape rule (the
// encoder writes whatever it is given) and requires a clean rejection.

void ExpectRejected(const ShardMessage& message) {
  const std::vector<uint8_t> payload = wire::EncodeMessage(message);
  EXPECT_FALSE(wire::DecodeMessage(payload).ok());
}

TEST(WireTest, MailRowsUnequalPerRowArraysRejected) {
  for (int broken = 0; broken < 4; ++broken) {
    ShardPartial m = MakePartial();
    core::MailRows& rows = m.rows;
    if (broken == 0) rows.time.pop_back();
    if (broken == 1) rows.count.push_back(1);
    if (broken == 2) rows.tag.pop_back();
    if (broken == 3) rows.node.push_back(1);  // one node too many
    ExpectRejected(m);
  }
}

TEST(WireTest, MailRowsPayloadNotRowsTimesDimRejected) {
  ShardPartial short_payload = MakePartial();
  short_payload.rows.payload.pop_back();
  ExpectRejected(short_payload);
  ShardPartial wrong_dim = MakePartial();
  wrong_dim.rows.dim = 3;  // 5 rows x 2 floats is not 5 x 3
  ExpectRejected(wrong_dim);
  ShardPartial negative_dim = MakePartial();
  negative_dim.rows.dim = -2;
  ExpectRejected(negative_dim);
  ShardPartial zero_dim = MakePartial();
  zero_dim.rows.dim = 0;  // rows present, payload non-empty
  ExpectRejected(zero_dim);
  ShardPartial overflow_dim = MakePartial();
  overflow_dim.rows.dim = std::numeric_limits<int64_t>::max();
  ExpectRejected(overflow_dim);
}

TEST(WireTest, PartialSectionsMustFitRows) {
  ShardPartial negative = MakePartial();
  negative.num_hop0 = -1;
  ExpectRejected(negative);
  ShardPartial too_many = MakePartial();
  too_many.num_hop0 = 4;  // 2 write-backs + 4 hop-0 rows > 5 rows
  ExpectRejected(too_many);
  ShardPartial overflow = MakePartial();
  overflow.num_state_updates = std::numeric_limits<int64_t>::max();
  overflow.num_hop0 = std::numeric_limits<int64_t>::max();
  ExpectRejected(overflow);
  ShardPartial all_sums = MakePartial();  // still valid: no sections
  all_sums.num_state_updates = 0;
  all_sums.num_hop0 = 0;
  ExpectRoundTrip(all_sums);
}

TEST(WireTest, FrameLengthValidation) {
  const uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_FALSE(
      wire::DecodeFrameLength(std::span<const uint8_t, 4>(zero, 4)).ok());
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(
      wire::DecodeFrameLength(std::span<const uint8_t, 4>(huge, 4)).ok());
  const uint8_t ok[4] = {1, 0, 0, 0};
  Result<uint32_t> one =
      wire::DecodeFrameLength(std::span<const uint8_t, 4>(ok, 4));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, 1u);
}

// ---- Fuzz-style mutation loop ----------------------------------------------

TEST(WireTest, MutationFuzz) {
  Rng rng(0x55AA77);
  const std::vector<ShardMessage> exemplars = Exemplars();
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> payload = wire::EncodeMessage(
        exemplars[static_cast<size_t>(rng.UniformInt(
            uint64_t{exemplars.size()}))]);
    // Mutate: flip up to 4 bytes, then maybe truncate or extend.
    const int flips = static_cast<int>(rng.UniformInt(uint64_t{5}));
    for (int f = 0; f < flips && !payload.empty(); ++f) {
      const size_t at =
          static_cast<size_t>(rng.UniformInt(uint64_t{payload.size()}));
      payload[at] = static_cast<uint8_t>(rng.Next());
    }
    if (rng.Bernoulli(0.3) && !payload.empty()) {
      payload.resize(
          static_cast<size_t>(rng.UniformInt(uint64_t{payload.size()})));
    } else if (rng.Bernoulli(0.2)) {
      payload.push_back(static_cast<uint8_t>(rng.Next()));
    }
    // The only acceptable outcomes: a clean Status error or a valid
    // decode (a mutation can land on a don't-care byte). Crashing or
    // hanging is the bug this test exists to catch.
    Result<ShardMessage> decoded = wire::DecodeMessage(payload);
    rejected += decoded.ok() ? 0 : 1;
  }
  // Random mutation overwhelmingly corrupts structure; if nearly
  // everything decoded the checks are not actually running.
  EXPECT_GT(rejected, 1000);
}

TEST(WireTest, RandomGarbageNeverCrashes) {
  Rng rng(0xBADF00D);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> garbage(
        static_cast<size_t>(rng.UniformInt(uint64_t{257})));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    (void)wire::DecodeMessage(garbage);  // must return, cleanly, every time
  }
}

}  // namespace
}  // namespace serve
}  // namespace apan
