// Binary wire format for ShardMessage — the serialization boundary of the
// transport plane (docs/serving.md, "Transport plane").
//
// A message travels as a length-prefixed frame:
//
//   frame   := u32 payload_length | payload
//   payload := u8 kind | body
//
// Same-destination messages can coalesce into ONE frame (the per-peer
// batching that turns N syscalls per peer per batch into one on a stream
// transport): kind 4 is a batch payload whose body is a count followed by
// length-prefixed single-message payloads —
//
//   batch_payload := u8 4 | u64 count | count × (u32 len | payload)
//
// Batches never nest: an inner payload must carry a single-message kind.
//
// All integers are little-endian fixed-width; floating-point values are
// bit-cast to the same-width integer, so a round trip is bitwise exact for
// every representable value (negative zero, NaN payloads, ±inf). Vectors
// are a u64 count followed by the elements. Mail travels as flat blocks
// (core::MailRows, graph::NeighborRows); docs/serving.md has the full
// body grammar.
//
// Decoding is defensive: every read is bounds-checked, vector counts are
// validated against the bytes actually remaining before any allocation,
// every flat block's shape is validated (equal-length per-row arrays,
// payload = rows × dim, CSR offsets from 0, non-decreasing, ending at the
// entry count), and a payload with trailing bytes is rejected — a
// truncated or corrupt frame yields a non-OK Status, never UB. Encoders
// and decoders are pure functions with no shared state; they are safe to
// call from any thread.

#ifndef APAN_SERVE_WIRE_H_
#define APAN_SERVE_WIRE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "serve/shard_message.h"
#include "util/status.h"

namespace apan {
namespace serve {
namespace wire {

/// Bytes of the frame length prefix (u32 little-endian).
inline constexpr size_t kFrameHeaderBytes = 4;

/// Upper bound on a frame payload. Far above any real batch (a 200-event
/// batch's largest partial is a few hundred KiB); its job is to make a
/// corrupt length prefix fail fast instead of driving a giant allocation.
inline constexpr uint32_t kMaxPayloadBytes = 256u * 1024u * 1024u;

/// \brief Serializes one message into its payload form (kind byte + body,
/// no length prefix).
std::vector<uint8_t> EncodeMessage(const ShardMessage& message);

/// \brief Parses a payload produced by EncodeMessage. Rejects unknown
/// kinds, truncation anywhere, oversized vector counts, and trailing
/// bytes.
Result<ShardMessage> DecodeMessage(std::span<const uint8_t> payload);

/// \brief Appends a full frame (length prefix + payload) for `message` to
/// `out` — the unit a stream transport writes.
void AppendFrame(const ShardMessage& message, std::vector<uint8_t>* out);

/// \brief Appends ONE frame coalescing all of `messages` (kind-4 batch
/// payload; must be non-empty). A one-element span degenerates to
/// AppendFrame, so the uncoalesced fast path stays byte-identical.
void AppendBatchFrame(std::span<const ShardMessage> messages,
                      std::vector<uint8_t>* out);

/// \brief Parses a frame payload that is either a single message (kinds
/// 1–3 — returns a one-element vector) or a kind-4 batch. Rejects nested
/// batches, empty batches, and every single-message corruption mode
/// (truncation, bad counts, trailing bytes — inside each element and
/// around the batch envelope).
Result<std::vector<ShardMessage>> DecodeMessages(
    std::span<const uint8_t> payload);

/// \brief Reads the payload length from a frame header. Rejects zero (a
/// payload always holds at least the kind byte) and lengths above
/// kMaxPayloadBytes.
Result<uint32_t> DecodeFrameLength(
    std::span<const uint8_t, kFrameHeaderBytes> header);

}  // namespace wire
}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_WIRE_H_
