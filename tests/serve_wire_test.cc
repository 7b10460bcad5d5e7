#include "serve/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

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

bool Equal(const FrontierRequest& a, const FrontierRequest& b) {
  if (a.batch != b.batch || a.hop != b.hop || a.from_shard != b.from_shard ||
      a.ordinal_limit != b.ordinal_limit || a.fanout != b.fanout ||
      a.items.size() != b.items.size()) {
    return false;
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].slot != b.items[i].slot ||
        a.items[i].node != b.items[i].node ||
        !SameBits(a.items[i].before_time, b.items[i].before_time)) {
      return false;
    }
  }
  return true;
}

bool Equal(const FrontierResponse& a, const FrontierResponse& b) {
  if (a.batch != b.batch || a.hop != b.hop || a.from_shard != b.from_shard ||
      a.slots != b.slots || a.neighbors.offsets != b.neighbors.offsets ||
      a.neighbors.entries.size() != b.neighbors.entries.size()) {
    return false;
  }
  for (size_t j = 0; j < a.neighbors.entries.size(); ++j) {
    const graph::TemporalNeighbor& n = a.neighbors.entries[j];
    const graph::TemporalNeighbor& m = b.neighbors.entries[j];
    if (n.node != m.node || n.edge_id != m.edge_id ||
        !SameBits(n.timestamp, m.timestamp)) {
      return false;
    }
  }
  return true;
}

bool Equal(const ShardMessage& a, const ShardMessage& b) {
  if (a.index() != b.index()) return false;
  if (const auto* p = std::get_if<ShardPartial>(&a)) {
    return Equal(*p, std::get<ShardPartial>(b));
  }
  if (const auto* r = std::get_if<FrontierRequest>(&a)) {
    return Equal(*r, std::get<FrontierRequest>(b));
  }
  return Equal(std::get<FrontierResponse>(a), std::get<FrontierResponse>(b));
}

void ExpectRoundTrip(const ShardMessage& message) {
  const std::vector<uint8_t> payload = wire::EncodeMessage(message);
  Result<ShardMessage> decoded = wire::DecodeMessage(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(Equal(message, *decoded));
}

// ---- Exemplar messages (every alternative, edge values included) -----------

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

FrontierRequest MakeRequest() {
  FrontierRequest m;
  m.batch = 12;
  m.hop = 2;
  m.from_shard = 1;
  // Max-ordinal limit (the "everything appended" sentinel) and max slot
  // tags must survive unclipped.
  m.ordinal_limit = std::numeric_limits<int64_t>::max();
  m.fanout = 10;
  m.items.push_back({std::numeric_limits<int64_t>::max(), 4, -7.25});
  m.items.push_back({0, 0, 0.0});
  return m;
}

FrontierResponse MakeResponse() {
  FrontierResponse m;
  m.batch = 12;
  m.hop = 2;
  m.from_shard = 2;
  m.slots = {std::numeric_limits<int64_t>::max(), 0, 3};
  m.neighbors.entries = {{5, 17, -1.5}, {6, 18, 2.25}};
  m.neighbors.EndRow();
  m.neighbors.EndRow();  // isolated node: empty sample
  m.neighbors.entries.push_back({7, 19, std::numeric_limits<double>::lowest()});
  m.neighbors.EndRow();
  return m;
}

std::vector<ShardMessage> Exemplars() {
  std::vector<ShardMessage> out;
  out.push_back(MakePartial());
  out.push_back(ShardPartial{});  // all-empty partial (the batch sentinel)
  out.push_back(MakeRequest());
  out.push_back(FrontierRequest{});
  out.push_back(MakeResponse());
  out.push_back(FrontierResponse{});
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

// A frame's payload view (length prefix stripped).
std::span<const uint8_t> FramePayloadOf(const std::vector<uint8_t>& frame) {
  return std::span<const uint8_t>(frame.data() + wire::kFrameHeaderBytes,
                                  frame.size() - wire::kFrameHeaderBytes);
}

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
  std::vector<uint8_t> payload = wire::EncodeMessage(ShardMessage(MakeRequest()));
  payload.push_back(0);
  EXPECT_FALSE(wire::DecodeMessage(payload).ok());
}

TEST(WireTest, UnknownKindRejected) {
  std::vector<uint8_t> payload = {0xEE};
  EXPECT_FALSE(wire::DecodeMessage(payload).ok());
  EXPECT_FALSE(wire::DecodeMessage({}).ok());
}

TEST(WireTest, CorruptCountRejectedBeforeAllocation) {
  // A partial whose row count claims 2^61 entries: the decoder must
  // reject against the bytes remaining, not try to resize.
  std::vector<uint8_t> payload = wire::EncodeMessage(ShardMessage(ShardPartial{}));
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
  std::vector<uint8_t> frame;
  const ShardMessage pair[] = {message, ShardMessage(FrontierRequest{})};
  wire::AppendBatchFrame(pair, &frame);
  EXPECT_FALSE(wire::DecodeMessages(FramePayloadOf(frame)).ok());
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

TEST(WireTest, NeighborOffsetsMustStartAtZero) {
  FrontierResponse m = MakeResponse();
  for (int64_t& offset : m.neighbors.offsets) offset += 1;
  m.neighbors.entries.push_back({8, 20, 0.5});
  ExpectRejected(m);
}

TEST(WireTest, NeighborOffsetsMustNotDecrease) {
  FrontierResponse m = MakeResponse();
  ASSERT_EQ(m.neighbors.offsets, (std::vector<int64_t>{0, 2, 2, 3}));
  m.neighbors.offsets = {0, 3, 2, 3};
  ExpectRejected(m);
}

TEST(WireTest, NeighborOffsetsMustEndAtEntryCount) {
  FrontierResponse m = MakeResponse();
  m.neighbors.offsets.back() = 2;
  ExpectRejected(m);
  FrontierResponse no_offsets = MakeResponse();
  no_offsets.neighbors.offsets.clear();
  no_offsets.slots.clear();
  ExpectRejected(no_offsets);  // entries without any row
}

TEST(WireTest, NeighborRowsMustMatchSlots) {
  FrontierResponse m = MakeResponse();
  m.slots.pop_back();
  ExpectRejected(m);
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

// ---- Coalesced (batch) frames ----------------------------------------------

// Strips the length prefix off a frame, validating it against the actual
// payload size the way a socket reader does.
std::span<const uint8_t> FramePayload(const std::vector<uint8_t>& frame) {
  EXPECT_GE(frame.size(), wire::kFrameHeaderBytes);
  Result<uint32_t> length = wire::DecodeFrameLength(
      std::span<const uint8_t, wire::kFrameHeaderBytes>(
          frame.data(), wire::kFrameHeaderBytes));
  EXPECT_TRUE(length.ok()) << length.status();
  EXPECT_EQ(frame.size() - wire::kFrameHeaderBytes, *length);
  return std::span<const uint8_t>(frame.data() + wire::kFrameHeaderBytes,
                                  frame.size() - wire::kFrameHeaderBytes);
}

TEST(WireTest, BatchFrameRoundTripsMixedKinds) {
  const std::vector<ShardMessage> messages = Exemplars();
  std::vector<uint8_t> frame;
  wire::AppendBatchFrame(messages, &frame);
  Result<std::vector<ShardMessage>> decoded =
      wire::DecodeMessages(FramePayload(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    EXPECT_TRUE(Equal(messages[i], (*decoded)[i])) << "element " << i;
  }
}

TEST(WireTest, SingleElementBatchIsByteIdenticalToPlainFrame) {
  // The degenerate batch must not pay the envelope: a lone message goes
  // out exactly as AppendFrame would send it, and old readers keep
  // decoding it.
  for (const ShardMessage& message : Exemplars()) {
    std::vector<uint8_t> plain;
    wire::AppendFrame(message, &plain);
    std::vector<uint8_t> batched;
    wire::AppendBatchFrame(std::span<const ShardMessage>(&message, 1),
                           &batched);
    EXPECT_EQ(plain, batched);
  }
}

TEST(WireTest, DecodeMessagesAcceptsSingleMessagePayload) {
  // The reader cannot know in advance whether a peer coalesced, so the
  // batch decoder must pass single-message payloads through unchanged.
  for (const ShardMessage& message : Exemplars()) {
    const std::vector<uint8_t> payload = wire::EncodeMessage(message);
    Result<std::vector<ShardMessage>> decoded = wire::DecodeMessages(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_TRUE(Equal(message, (*decoded)[0]));
  }
}

TEST(WireTest, BatchEveryTruncationFailsCleanly) {
  const std::vector<ShardMessage> messages = Exemplars();
  std::vector<uint8_t> frame;
  wire::AppendBatchFrame(messages, &frame);
  const std::span<const uint8_t> payload = FramePayload(frame);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Result<std::vector<ShardMessage>> decoded =
        wire::DecodeMessages(payload.subspan(0, cut));
    EXPECT_FALSE(decoded.ok())
        << "prefix of " << cut << "/" << payload.size()
        << " bytes decoded as a full batch";
  }
}

TEST(WireTest, BatchTrailingBytesRejected) {
  std::vector<uint8_t> frame;
  wire::AppendBatchFrame(Exemplars(), &frame);
  frame.push_back(0);
  const std::span<const uint8_t> payload(
      frame.data() + wire::kFrameHeaderBytes,
      frame.size() - wire::kFrameHeaderBytes);
  EXPECT_FALSE(wire::DecodeMessages(payload).ok());
}

TEST(WireTest, EmptyBatchRejected) {
  // kind 4, count 0: a frame that carries nothing is a protocol error,
  // not a no-op — SendBatch never emits one.
  const std::vector<uint8_t> payload = {4, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(wire::DecodeMessages(payload).ok());
}

TEST(WireTest, NestedBatchRejected) {
  // A batch whose single element is itself a batch envelope. The inner
  // payload is length-consistent on purpose: only the no-nesting rule can
  // reject it.
  std::vector<uint8_t> inner = {4, 1, 0, 0, 0, 0, 0, 0, 0};
  std::vector<uint8_t> payload = {4, 1, 0, 0, 0, 0, 0, 0, 0};
  const uint32_t inner_len = static_cast<uint32_t>(inner.size());
  for (int shift = 0; shift < 32; shift += 8) {
    payload.push_back(static_cast<uint8_t>(inner_len >> shift));
  }
  payload.insert(payload.end(), inner.begin(), inner.end());
  EXPECT_FALSE(wire::DecodeMessages(payload).ok());
}

TEST(WireTest, BatchCorruptCountRejectedBeforeAllocation) {
  std::vector<uint8_t> frame;
  wire::AppendBatchFrame(Exemplars(), &frame);
  std::vector<uint8_t> payload(frame.begin() + wire::kFrameHeaderBytes,
                               frame.end());
  // Layout: kind(1) + count(8). Claim 2^64−1 elements.
  for (size_t i = 1; i < 9; ++i) payload[i] = 0xFF;
  EXPECT_FALSE(wire::DecodeMessages(payload).ok());
}

TEST(WireTest, BatchMutationFuzz) {
  Rng rng(0xC0A1E5CE);
  const std::vector<ShardMessage> exemplars = Exemplars();
  int rejected = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    // Batch a random non-empty subset (with repeats) of the exemplars.
    const size_t count = 1 + static_cast<size_t>(rng.UniformInt(uint64_t{4}));
    std::vector<ShardMessage> batch;
    for (size_t i = 0; i < count; ++i) {
      batch.push_back(exemplars[static_cast<size_t>(
          rng.UniformInt(uint64_t{exemplars.size()}))]);
    }
    std::vector<uint8_t> frame;
    wire::AppendBatchFrame(batch, &frame);
    std::vector<uint8_t> payload(frame.begin() + wire::kFrameHeaderBytes,
                                 frame.end());
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
    Result<std::vector<ShardMessage>> decoded = wire::DecodeMessages(payload);
    rejected += decoded.ok() ? 0 : 1;
  }
  EXPECT_GT(rejected, 500);
}

}  // namespace
}  // namespace serve
}  // namespace apan
