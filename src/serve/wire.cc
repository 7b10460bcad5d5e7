#include "serve/wire.h"

#include "serve/codec.h"

namespace apan {
namespace serve {
namespace wire {

namespace {

using namespace codec;

// Payload kind tags. Values are part of the wire format — append only.
// Kinds 2 and 3 (a retired request/response pair) and 4 (a retired
// coalesced batch) are never reassigned and decode as unknown.
constexpr uint8_t kShardPartialKind = 1;

// ---- Mail block ------------------------------------------------------------

void PutMailRows(std::vector<uint8_t>* out, const core::MailRows& m) {
  PutI64Vec(out, m.node);
  PutF64Vec(out, m.time);
  PutI64Vec(out, m.count);
  PutI64Vec(out, m.tag);
  PutI64(out, m.dim);
  PutF32Vec(out, m.payload);
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

// ---- ShardPartial body ------------------------------------------------------

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

void EncodePayloadTo(const ShardMessage& message, std::vector<uint8_t>* out) {
  PutU8(out, kShardPartialKind);
  EncodeBody(out, message);
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
  if (kind != kShardPartialKind) {
    return Status::IoError(internal::StrCat(
        "wire: unknown message kind ", static_cast<int>(kind)));
  }
  ShardMessage message;
  APAN_RETURN_NOT_OK(DecodeBody(&reader, &message));
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
