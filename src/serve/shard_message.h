// The shard-to-shard message vocabulary of the serving tier.
//
// Everything that crosses a shard boundary — routed mail partials, z(t−)
// write-backs, and the frontier request/response protocol for cross-slice
// k-hop expansion — is one of the ShardMessage alternatives below. The
// structs are pure data (ids, tags, flat payload blocks): no pointers into
// engine state, so a message can be handed to an in-process deque or
// serialized onto a wire (serve/wire.h) without the receiver sharing the
// sender's address space.
//
// Replay tags: every alternative carries enough identity for a receiver to
// drop duplicates — a ShardPartial is keyed by (batch, from_shard), a
// frontier request/response by (batch, hop, peer shard). Sequence-tag
// replay makes reordering harmless (docs/serving.md, "Transport plane");
// the tags make duplication harmless too, which is what lets the engine
// run over an at-least-once transport.

#ifndef APAN_SERVE_SHARD_MESSAGE_H_
#define APAN_SERVE_SHARD_MESSAGE_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "core/mail_rows.h"
#include "graph/csr_rows.h"
#include "graph/temporal_graph.h"

namespace apan {
namespace serve {

/// One shard's slice of one batch's propagation output, addressed to one
/// recipient shard. Sent for every (sender, recipient, batch) triple —
/// empty slices included — so the recipient can detect batch completion
/// by counting senders; (batch, from_shard) is the duplicate-drop tag.
/// All of it is one flat block, so a partial costs a few allocations
/// however many mails it carries.
struct ShardPartial {
  int64_t batch = 0;
  int from_shard = 0;
  /// Three sections: rows [0, num_state_updates) are z(t−) write-backs
  /// (payload = the embedding, tag = 2 * event index + endpoint, time =
  /// event time); the next num_hop0 rows are hop-0 mail in the sender's
  /// event order (tag = sequence tag); the rest are unfinalized ρ sums,
  /// one per recipient (time = newest contribution, count =
  /// contributions).
  core::MailRows rows;
  int64_t num_state_updates = 0;
  int64_t num_hop0 = 0;
};

/// One foreign frontier node to sample, tagged with its slot in the
/// requesting shard's expansion (the sequence tag that makes the
/// reassembled hop order deterministic).
struct FrontierItem {
  int64_t slot = 0;
  graph::NodeId node = -1;
  double before_time = 0.0;
};

/// A batched ask: "sample these nodes of yours, as the graph stood before
/// batch `batch`". Answerable once the owner's watermark reaches `batch`;
/// deferred until then. A requester has at most one request in flight per
/// owner, at strictly increasing (batch, hop) — the owner drops anything
/// at or below its last accepted (batch, hop) from that requester as a
/// duplicate.
struct FrontierRequest {
  int64_t batch = 0;
  int32_t hop = 0;
  int from_shard = 0;
  int64_t ordinal_limit = 0;
  int64_t fanout = 0;
  std::vector<FrontierItem> items;
};

/// The owner's reply: per requested slot, the sampled neighbors, as one
/// CSR block (row i of `neighbors` answers slots[i]). `from_shard` is the
/// answering owner — the requester awaits exactly one response per asked
/// owner and drops re-deliveries by (batch, hop, from_shard).
struct FrontierResponse {
  int64_t batch = 0;
  int32_t hop = 0;
  int from_shard = 0;
  std::vector<int64_t> slots;
  graph::NeighborRows neighbors;
};

/// Shard-to-shard message on the unbounded mail lane. A variant (not a
/// product struct) so a queued message stores only its own payload and a
/// kind/payload mismatch is unrepresentable.
using ShardMessage =
    std::variant<ShardPartial, FrontierRequest, FrontierResponse>;

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARD_MESSAGE_H_
