// The shard-to-shard message vocabulary of the serving tier.
//
// Everything that crosses a shard boundary by message — routed mail
// partials and z(t−) write-backs — is a ShardPartial. The struct is pure
// data (ids, tags, one flat payload block): no pointers into engine
// state, so a message can be handed to an in-process deque or serialized
// onto a wire (serve/wire.h) without the receiver sharing the sender's
// address space. (k-hop sampling reads foreign graph slices directly,
// under each slice's lock; it sends no messages.)
//
// Replay tag: a ShardPartial is keyed by (batch, from_shard). Sequence-tag
// replay makes reordering harmless (docs/serving.md, "Transport plane");
// the tag makes duplication harmless too, which is what lets the engine
// run over an at-least-once transport.

#ifndef APAN_SERVE_SHARD_MESSAGE_H_
#define APAN_SERVE_SHARD_MESSAGE_H_

#include <cstdint>

#include "core/mail_rows.h"

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

/// The message type every serve::Transport carries.
using ShardMessage = ShardPartial;

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARD_MESSAGE_H_
