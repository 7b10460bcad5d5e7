#include "serve/wire.h"

#include "serve/codec.h"

namespace apan {
namespace serve {
namespace wire {

namespace {

using namespace codec;

// Payload kind tags. Values are part of the wire format — append only.
constexpr uint8_t kShardPartialKind = 1;
constexpr uint8_t kFrontierRequestKind = 2;
constexpr uint8_t kFrontierResponseKind = 3;
// A coalesced batch of single-message payloads (never nested).
constexpr uint8_t kBatchKind = 4;

// ---- Flat blocks -----------------------------------------------------------

void PutMailRows(std::vector<uint8_t>* out, const core::MailRows& m) {
  PutI64Vec(out, m.node);
  PutF64Vec(out, m.time);
  PutI64Vec(out, m.count);
  PutI64Vec(out, m.tag);
  PutI64(out, m.dim);
  PutF32Vec(out, m.payload);
}

void PutNeighborRows(std::vector<uint8_t>* out, const graph::NeighborRows& m) {
  PutI64Vec(out, m.offsets);
  PutU64(out, m.entries.size());
  for (const graph::TemporalNeighbor& n : m.entries) {
    PutI64(out, n.node);
    PutI64(out, n.edge_id);
    PutF64(out, n.timestamp);
  }
}

/// Reads a flat mail block and validates its shape: the four per-row
/// arrays have equal length and the payload holds rows × dim floats.
Status ReadMailRows(Reader* r, core::MailRows* m, const char* what) {
  APAN_RETURN_NOT_OK(r->ReadI64Vec(&m->node, what));
  APAN_RETURN_NOT_OK(r->ReadF64Vec(&m->time, what));
  APAN_RETURN_NOT_OK(r->ReadI64Vec(&m->count, what));
  APAN_RETURN_NOT_OK(r->ReadI64Vec(&m->tag, what));
  APAN_RETURN_NOT_OK(r->ReadI64(&m->dim, what));
  APAN_RETURN_NOT_OK(r->ReadF32Vec(&m->payload, what));
  const size_t rows = m->node.size();
  if (m->time.size() != rows || m->count.size() != rows ||
      m->tag.size() != rows) {
    return Status::IoError(internal::StrCat(
        "wire: ", what, " has per-row arrays of unequal length (node ",
        rows, ", time ", m->time.size(), ", count ", m->count.size(),
        ", tag ", m->tag.size(), ")"));
  }
  // rows × dim compared by division so a corrupt dim cannot overflow.
  const bool shape_ok =
      m->dim >= 0 &&
      (m->dim == 0
           ? m->payload.empty()
           : m->payload.size() % static_cast<uint64_t>(m->dim) == 0 &&
                 m->payload.size() / static_cast<uint64_t>(m->dim) == rows);
  if (!shape_ok) {
    return Status::IoError(internal::StrCat(
        "wire: ", what, " payload of ", m->payload.size(),
        " floats is not rows (", rows, ") x dim (", m->dim, ")"));
  }
  return Status::OK();
}

/// Reads a CSR neighbor block and validates its offsets: empty (no
/// rows, no entries) or starting at 0, never decreasing, and ending at
/// the entry count.
Status ReadNeighborRows(Reader* r, graph::NeighborRows* m,
                        const char* what) {
  APAN_RETURN_NOT_OK(r->ReadI64Vec(&m->offsets, what));
  uint64_t count = 0;
  APAN_RETURN_NOT_OK(r->ReadCount(&count, 24, what));
  m->entries.resize(static_cast<size_t>(count));
  for (graph::TemporalNeighbor& n : m->entries) {
    APAN_RETURN_NOT_OK(r->ReadI64(&n.node, "neighbor.node"));
    APAN_RETURN_NOT_OK(r->ReadI64(&n.edge_id, "neighbor.edge_id"));
    APAN_RETURN_NOT_OK(r->ReadF64(&n.timestamp, "neighbor.timestamp"));
  }
  const std::vector<int64_t>& offsets = m->offsets;
  const auto entries = static_cast<int64_t>(m->entries.size());
  if (offsets.empty()) {
    if (entries != 0) {
      return Status::IoError(internal::StrCat(
          "wire: ", what, " has ", entries, " entries but no offsets"));
    }
    return Status::OK();
  }
  if (offsets.front() != 0 || offsets.back() != entries) {
    return Status::IoError(internal::StrCat(
        "wire: ", what, " offsets span [", offsets.front(), ", ",
        offsets.back(), "], not [0, ", entries, "]"));
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::IoError(internal::StrCat(
          "wire: ", what, " offsets decrease at row ", i - 1));
    }
  }
  return Status::OK();
}

// ---- Per-kind bodies -------------------------------------------------------

void EncodeBody(std::vector<uint8_t>* out, const ShardPartial& m) {
  PutI64(out, m.batch);
  PutI32(out, m.from_shard);
  PutMailRows(out, m.rows);
  PutI64(out, m.num_state_updates);
  PutI64(out, m.num_hop0);
}

Status DecodeBody(Reader* r, ShardPartial* m) {
  APAN_RETURN_NOT_OK(r->ReadI64(&m->batch, "partial.batch"));
  APAN_RETURN_NOT_OK(r->ReadI32(&m->from_shard, "partial.from_shard"));
  APAN_RETURN_NOT_OK(ReadMailRows(r, &m->rows, "partial.rows"));
  APAN_RETURN_NOT_OK(
      r->ReadI64(&m->num_state_updates, "partial.num_state_updates"));
  APAN_RETURN_NOT_OK(r->ReadI64(&m->num_hop0, "partial.num_hop0"));
  // The sections must tile a prefix of the rows (compared without
  // overflow: each count is checked against what is left).
  const auto rows = static_cast<int64_t>(m->rows.rows());
  if (m->num_state_updates < 0 || m->num_hop0 < 0 ||
      m->num_state_updates > rows ||
      m->num_hop0 > rows - m->num_state_updates) {
    return Status::IoError(internal::StrCat(
        "wire: partial sections (", m->num_state_updates, " write-backs, ",
        m->num_hop0, " hop-0 mails) do not fit its ", rows, " rows"));
  }
  return Status::OK();
}

void EncodeBody(std::vector<uint8_t>* out, const FrontierRequest& m) {
  PutI64(out, m.batch);
  PutI32(out, m.hop);
  PutI32(out, m.from_shard);
  PutI64(out, m.ordinal_limit);
  PutI64(out, m.fanout);
  PutU64(out, m.items.size());
  for (const FrontierItem& item : m.items) {
    PutI64(out, item.slot);
    PutI64(out, item.node);
    PutF64(out, item.before_time);
  }
}

Status DecodeBody(Reader* r, FrontierRequest* m) {
  APAN_RETURN_NOT_OK(r->ReadI64(&m->batch, "request.batch"));
  APAN_RETURN_NOT_OK(r->ReadI32(&m->hop, "request.hop"));
  APAN_RETURN_NOT_OK(r->ReadI32(&m->from_shard, "request.from_shard"));
  APAN_RETURN_NOT_OK(r->ReadI64(&m->ordinal_limit, "request.ordinal_limit"));
  APAN_RETURN_NOT_OK(r->ReadI64(&m->fanout, "request.fanout"));
  uint64_t count = 0;
  APAN_RETURN_NOT_OK(r->ReadCount(&count, 24, "request.items"));
  m->items.resize(static_cast<size_t>(count));
  for (FrontierItem& item : m->items) {
    APAN_RETURN_NOT_OK(r->ReadI64(&item.slot, "item.slot"));
    APAN_RETURN_NOT_OK(r->ReadI64(&item.node, "item.node"));
    APAN_RETURN_NOT_OK(r->ReadF64(&item.before_time, "item.before_time"));
  }
  return Status::OK();
}

void EncodeBody(std::vector<uint8_t>* out, const FrontierResponse& m) {
  PutI64(out, m.batch);
  PutI32(out, m.hop);
  PutI32(out, m.from_shard);
  PutI64Vec(out, m.slots);
  PutNeighborRows(out, m.neighbors);
}

Status DecodeBody(Reader* r, FrontierResponse* m) {
  APAN_RETURN_NOT_OK(r->ReadI64(&m->batch, "response.batch"));
  APAN_RETURN_NOT_OK(r->ReadI32(&m->hop, "response.hop"));
  APAN_RETURN_NOT_OK(r->ReadI32(&m->from_shard, "response.from_shard"));
  APAN_RETURN_NOT_OK(r->ReadI64Vec(&m->slots, "response.slots"));
  APAN_RETURN_NOT_OK(ReadNeighborRows(r, &m->neighbors, "response.neighbors"));
  if (m->neighbors.rows() != m->slots.size()) {
    return Status::IoError(internal::StrCat(
        "wire: response answers ", m->slots.size(), " slots with ",
        m->neighbors.rows(), " neighbor rows"));
  }
  return Status::OK();
}

}  // namespace

namespace {

void EncodePayloadTo(const ShardMessage& message, std::vector<uint8_t>* out) {
  if (const auto* partial = std::get_if<ShardPartial>(&message)) {
    PutU8(out, kShardPartialKind);
    EncodeBody(out, *partial);
  } else if (const auto* request = std::get_if<FrontierRequest>(&message)) {
    PutU8(out, kFrontierRequestKind);
    EncodeBody(out, *request);
  } else {
    PutU8(out, kFrontierResponseKind);
    EncodeBody(out, std::get<FrontierResponse>(message));
  }
}

}  // namespace

std::vector<uint8_t> EncodeMessage(const ShardMessage& message) {
  std::vector<uint8_t> out;
  EncodePayloadTo(message, &out);
  return out;
}

Result<ShardMessage> DecodeMessage(std::span<const uint8_t> payload) {
  Reader reader(payload, "wire");
  uint8_t kind = 0;
  APAN_RETURN_NOT_OK(reader.ReadU8(&kind, "kind"));
  ShardMessage message;
  switch (kind) {
    case kShardPartialKind: {
      ShardPartial m;
      APAN_RETURN_NOT_OK(DecodeBody(&reader, &m));
      message = std::move(m);
      break;
    }
    case kFrontierRequestKind: {
      FrontierRequest m;
      APAN_RETURN_NOT_OK(DecodeBody(&reader, &m));
      message = std::move(m);
      break;
    }
    case kFrontierResponseKind: {
      FrontierResponse m;
      APAN_RETURN_NOT_OK(DecodeBody(&reader, &m));
      message = std::move(m);
      break;
    }
    default:
      return Status::IoError(internal::StrCat(
          "wire: unknown message kind ", static_cast<int>(kind)));
  }
  if (reader.remaining() != 0) {
    return Status::IoError(internal::StrCat(
        "wire: ", reader.remaining(), " trailing bytes after message"));
  }
  return message;
}

void AppendFrame(const ShardMessage& message, std::vector<uint8_t>* out) {
  // Encode the payload straight into `out` after a length slot that is
  // patched afterwards — the frame is built once, with no intermediate
  // payload buffer to copy (Send hits this for every cross-shard message).
  const size_t header_at = out->size();
  PutU32(out, 0);
  EncodePayloadTo(message, out);
  const size_t payload_size = out->size() - header_at - kFrameHeaderBytes;
  APAN_CHECK_MSG(payload_size <= kMaxPayloadBytes,
                 "wire: frame payload exceeds kMaxPayloadBytes");
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + static_cast<size_t>(i)] =
        static_cast<uint8_t>(payload_size >> (8 * i));
  }
}

void AppendBatchFrame(std::span<const ShardMessage> messages,
                      std::vector<uint8_t>* out) {
  APAN_CHECK_MSG(!messages.empty(), "wire: batch frame needs >= 1 message");
  if (messages.size() == 1) {
    AppendFrame(messages.front(), out);  // dominant case, byte-identical
    return;
  }
  const size_t header_at = out->size();
  PutU32(out, 0);
  PutU8(out, kBatchKind);
  PutU64(out, messages.size());
  for (const ShardMessage& message : messages) {
    const size_t inner_at = out->size();
    PutU32(out, 0);
    EncodePayloadTo(message, out);
    const size_t inner_size = out->size() - inner_at - kFrameHeaderBytes;
    APAN_CHECK_MSG(inner_size <= kMaxPayloadBytes,
                   "wire: batch element exceeds kMaxPayloadBytes");
    for (int i = 0; i < 4; ++i) {
      (*out)[inner_at + static_cast<size_t>(i)] =
          static_cast<uint8_t>(inner_size >> (8 * i));
    }
  }
  const size_t payload_size = out->size() - header_at - kFrameHeaderBytes;
  APAN_CHECK_MSG(payload_size <= kMaxPayloadBytes,
                 "wire: batch frame payload exceeds kMaxPayloadBytes");
  for (int i = 0; i < 4; ++i) {
    (*out)[header_at + static_cast<size_t>(i)] =
        static_cast<uint8_t>(payload_size >> (8 * i));
  }
}

Result<std::vector<ShardMessage>> DecodeMessages(
    std::span<const uint8_t> payload) {
  if (payload.empty()) {
    return Status::IoError("wire: empty payload");
  }
  std::vector<ShardMessage> messages;
  if (payload.front() != kBatchKind) {
    Result<ShardMessage> single = DecodeMessage(payload);
    APAN_RETURN_NOT_OK(single.status());
    messages.push_back(std::move(*single));
    return messages;
  }
  Reader reader(payload, "wire");
  uint8_t kind = 0;
  APAN_RETURN_NOT_OK(reader.ReadU8(&kind, "batch.kind"));
  uint64_t count = 0;
  // Each element is at least a length word plus a kind byte.
  APAN_RETURN_NOT_OK(
      reader.ReadCount(&count, kFrameHeaderBytes + 1, "batch.count"));
  if (count == 0) {
    return Status::IoError("wire: empty batch frame");
  }
  messages.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t length = 0;
    APAN_RETURN_NOT_OK(reader.ReadU32(&length, "batch.element_length"));
    if (length == 0 || length > kMaxPayloadBytes) {
      return Status::IoError(internal::StrCat(
          "wire: corrupt batch element length ", length));
    }
    std::span<const uint8_t> element;
    APAN_RETURN_NOT_OK(reader.ReadSpan(length, &element, "batch.element"));
    // DecodeMessage rejects kBatchKind as unknown, so batches never nest.
    Result<ShardMessage> message = DecodeMessage(element);
    APAN_RETURN_NOT_OK(message.status());
    messages.push_back(std::move(*message));
  }
  if (reader.remaining() != 0) {
    return Status::IoError(internal::StrCat(
        "wire: ", reader.remaining(), " trailing bytes after batch"));
  }
  return messages;
}

Result<uint32_t> DecodeFrameLength(
    std::span<const uint8_t, kFrameHeaderBytes> header) {
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(header[static_cast<size_t>(i)])
              << (8 * i);
  }
  if (length == 0) {
    return Status::IoError("wire: zero-length frame payload");
  }
  if (length > kMaxPayloadBytes) {
    return Status::IoError(internal::StrCat(
        "wire: frame payload of ", length, " bytes exceeds the ",
        kMaxPayloadBytes, "-byte cap"));
  }
  return length;
}

}  // namespace wire
}  // namespace serve
}  // namespace apan
