// The shared node-ownership index of an N-way node partition.
//
// Both partitioned planes — core::NodeStateStore (mailbox slice + z(t−)
// rows) and graph::ShardedTemporalGraph (adjacency slices) — need the
// same two dense maps: node -> owning shard and node -> local row within
// that shard. NodePartition stores the pair once; every store and every
// slice of one engine references the same immutable instance through a
// shared_ptr, so the index costs ~8 bytes/node per ENGINE instead of per
// plane (previously the graph kept a private element-identical copy).
// Rows are assigned in ascending node-id order within each shard, which
// is the layout both planes already assumed.
//
// Two builders ship: the canonical hash (BuildDefault — stateless, any
// tier can recompute it) and a locality-aware greedy assignment over a
// temporal event stream (BuildLocality — LDG-style co-location under a
// balance cap, built from a warmup prefix or a prior epoch's events).
// Either way the result is the same immutable index type, so every
// consumer — engine routing, graph slices, state stores — is
// partition-agnostic.

#ifndef APAN_GRAPH_NODE_PARTITION_H_
#define APAN_GRAPH_NODE_PARTITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/temporal_graph.h"

namespace apan {
namespace graph {

/// \brief Immutable dense index over a disjoint N-way node partition.
struct NodePartition {
  int num_shards = 0;
  std::vector<int32_t> owner_of;     ///< node -> owning shard
  std::vector<int32_t> local_row;    ///< node -> dense row in its shard
  std::vector<int64_t> owned_count;  ///< shard -> number of rows

  int64_t num_nodes() const {
    return static_cast<int64_t>(owner_of.size());
  }

  /// Owner shard of `node` — the shard holding its state-store rows
  /// (mailbox slice + z(t−)) and its adjacency row, and the home shard of
  /// every event whose source it is. An id outside [0, num_nodes()) is an
  /// internal invariant violation (CHECK): entry points validate
  /// caller-supplied ids before routing them.
  int ShardOf(NodeId node) const {
    APAN_CHECK_MSG(node >= 0 && node < num_nodes(),
                   "node id out of range in NodePartition::ShardOf");
    return owner_of[static_cast<size_t>(node)];
  }

  /// Builds from an arbitrary ownership function (must return a shard in
  /// [0, num_shards) for every node; CHECK-fails otherwise).
  static std::shared_ptr<const NodePartition> Build(
      int64_t num_nodes, int num_shards,
      const std::function<int(NodeId)>& owner_fn);

  /// Builds from the canonical ownership hash (graph::NodeShardOf) — the
  /// stateless mapping any tier can recompute without coordination. The
  /// fallback when no interaction history is available yet.
  static std::shared_ptr<const NodePartition> BuildDefault(int64_t num_nodes,
                                                           int num_shards);

  /// Tuning for BuildLocality.
  struct LocalityOptions {
    /// Per-shard node cap as a multiple of the perfectly balanced share:
    /// cap = max(ceil(n/shards), floor(balance_factor * n / shards)).
    /// 1.0 forces perfect balance (degenerates toward round-robin on
    /// skewed streams); larger values trade balance for locality.
    double balance_factor = 1.2;
  };

  /// \brief Greedy locality-aware assignment over a temporal edge stream
  /// (LDG-style): endpoints of observed interactions are co-located on
  /// one shard when its balance cap allows, so k-hop propagation stays
  /// shard-local instead of ~(N-1)/N cross-shard under the hash.
  ///
  /// Single deterministic pass in stream order: an event whose endpoints
  /// are both unassigned pins them to the least-loaded shard (lowest id
  /// on ties); one assigned endpoint pulls the other onto its shard
  /// unless that shard is at cap (then least-loaded); two assigned
  /// endpoints are left alone (first interaction wins). Nodes never seen
  /// in `events` — built from a warmup prefix or a prior epoch, so most
  /// nodes ARE seen — are filled onto least-loaded shards in ascending
  /// node-id order. A pure function of (num_nodes, num_shards, events,
  /// options): every tier handed the same warmup stream computes the
  /// same index.
  static std::shared_ptr<const NodePartition> BuildLocality(
      int64_t num_nodes, int num_shards, std::span<const Event> events,
      const LocalityOptions& options);
  /// Same with default LocalityOptions (a nested-class NSDMI cannot serve
  /// as a default argument inside the enclosing class).
  static std::shared_ptr<const NodePartition> BuildLocality(
      int64_t num_nodes, int num_shards, std::span<const Event> events);
};

}  // namespace graph
}  // namespace apan

#endif  // APAN_GRAPH_NODE_PARTITION_H_
