// Shard-local slices of a continuous-time dynamic graph.
//
// A ShardedTemporalGraph partitions TemporalGraph state by node ownership:
// slice s holds the time-sorted adjacency rows of the nodes shard s owns,
// plus the event-log entries shard s homes (an event is homed on its
// source endpoint's owner, NodePartition::ShardOf(event.src)).
// Batch append is therefore a shard-local operation — each shard appends
// only its owned rows — and the slices together store each adjacency
// occurrence exactly once, so summed slice memory is ~1x a monolithic
// TemporalGraph over the same stream (entries carry one extra ordinal).
//
// Every adjacency entry records the global ordinal of the event that
// created it, and all reads are *versioned*: NeighborsBeforeAsOf /
// MostRecentNeighborsAsOf return only entries with ordinal strictly below
// the caller's limit. A shard sampling batch b against ordinal limit
// "events before batch b" sees exactly the graph the bulk-synchronous
// epoch gate used to expose — even while other shards run ahead appending
// later batches into their own slices. The per-slice watermark (number of
// batches appended) is what a reader of a foreign slice waits on:
// SampleAsOf blocks until the slice has appended batches 0..b-1, then
// samples under the slice lock (serve::ShardedEngine's k-hop expansion).
//
// Thread contract: each slice has one lock (Slice::mu) guarding its rows,
// event log, latest timestamp and watermark, and a condition variable
// signalled after every append. Every method takes the lock of the slice
// it touches, so appends (the owner shard's worker) and reads (any
// thread) may run concurrently. The lock is a leaf: it is released while
// waiting for the watermark and never held while another lock is taken.
// The whole-graph inspectors (num_events, MemoryBytes, Degree) lock one
// slice at a time, so they are exact only at quiescent points (tests,
// benches, post-Flush accounting). docs/static-analysis.md lists the
// slice lock in the annotated lock hierarchy.

#ifndef APAN_GRAPH_SHARDED_TEMPORAL_GRAPH_H_
#define APAN_GRAPH_SHARDED_TEMPORAL_GRAPH_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr_rows.h"
#include "graph/node_partition.h"
#include "graph/temporal_graph.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace apan {
namespace graph {

/// Default owner shard of a node: SplitMix64 scramble then modulo, so
/// contiguous id ranges spread across shards. This is what
/// NodePartition::BuildDefault bakes into the shared ownership index that
/// serve::ShardedEngine's routing, the graph slices and the state stores
/// all consume — the stateless fallback when no locality index has been
/// built.
inline int NodeShardOf(NodeId node, int num_shards) {
  if (num_shards == 1) return 0;
  SplitMix64 hash(static_cast<uint64_t>(node));
  return static_cast<int>(hash.Next() % static_cast<uint64_t>(num_shards));
}

/// \brief Hash-partitioned temporal graph: per-shard adjacency slices with
/// ordinal-versioned reads and per-shard append watermarks.
class ShardedTemporalGraph {
 public:
  /// Ordinal limit meaning "everything appended so far".
  static constexpr int64_t kNoOrdinalLimit =
      std::numeric_limits<int64_t>::max();

  /// Builds its own ownership index from the canonical hash
  /// (NodePartition::BuildDefault) — for standalone use and tests.
  ShardedTemporalGraph(int num_shards, int64_t num_nodes);

  /// Shares a caller-owned ownership index. serve::ShardedEngine builds
  /// ONE NodePartition and hands it to both the graph slices and the
  /// per-shard NodeStateStores — the two planes' maps are
  /// element-identical, so the index is stored once per engine. The
  /// partition must agree with NodeShardOf when cross-plane ownership
  /// agreement matters (the engine's does: both derive from it).
  explicit ShardedTemporalGraph(
      std::shared_ptr<const NodePartition> partition);

  ShardedTemporalGraph(const ShardedTemporalGraph&) = delete;
  ShardedTemporalGraph& operator=(const ShardedTemporalGraph&) = delete;

  int num_shards() const { return num_shards_; }
  int64_t num_nodes() const { return num_nodes_; }
  int OwnerOf(NodeId node) const {
    return partition_->owner_of[static_cast<size_t>(node)];
  }

  /// \brief Appends shard `shard`'s slice of one batch: adjacency entries
  /// for the endpoints it owns and the event-log entries it homes.
  ///
  /// `batch` must be the slice's next unappended batch (== watermark) and
  /// `base_ordinal` the global index of events[0]; on success the slice's
  /// watermark advances to batch + 1 and every reader waiting for it in
  /// SampleAsOf wakes. Events must be in non-decreasing timestamp order,
  /// both within the span and across batches.
  /// \return InvalidArgument for bad endpoints, FailedPrecondition for an
  ///         out-of-order batch or timestamp.
  Status AppendBatchSlice(int shard, int64_t batch,
                          std::span<const Event> events,
                          int64_t base_ordinal);

  /// \brief Resets one slice to its freshly-constructed state: adjacency
  /// rows and homed event log emptied, latest timestamp back to -inf,
  /// watermark back to 0. Call at a quiescent point: a reader waiting for
  /// a batch the reset rewinds past would wait for its re-append.
  void ResetSlice(int shard);

  /// \brief One slice's full contents in checkpointable form — the
  /// public mirror of the private Slice/Entry storage, consumed by
  /// serve/snapshot.cc. Restoring this struct reproduces the slice
  /// bitwise (same rows, same ordinals, same watermark), so versioned
  /// reads after a restore see exactly the pre-crash graph.
  struct SliceCheckpoint {
    struct AdjacencyEntry {
      NodeId node = -1;
      EdgeId edge_id = -1;
      double timestamp = 0.0;
      int64_t ordinal = 0;
    };
    /// rows[local_row] = that owned node's occurrences, storage order.
    std::vector<std::vector<AdjacencyEntry>> rows;
    std::vector<Event> homed_events;
    double latest_timestamp = -std::numeric_limits<double>::infinity();
    int64_t watermark = 0;
  };

  /// Copies out slice `shard`.
  SliceCheckpoint ExportSlice(int shard) const;

  /// \brief Replaces slice `shard` with a decoded checkpoint. The row
  /// count must match this graph's ownership for the shard and every
  /// entry must name a valid node with sorted (timestamp, ordinal) rows;
  /// a violation returns InvalidArgument with the slice untouched. Call at
  /// a quiescent point, like ResetSlice.
  Status RestoreSlice(int shard, const SliceCheckpoint& checkpoint);

  /// Batches appended into `shard`'s slice.
  int64_t watermark(int shard) const;

  /// \brief All neighbors of `node` with timestamp strictly before
  /// `before_time` AND creating-event ordinal strictly below
  /// `ordinal_limit`, oldest first. Reads the owner shard's slice.
  std::vector<TemporalNeighbor> NeighborsBeforeAsOf(
      NodeId node, double before_time, int64_t ordinal_limit) const;

  /// \brief The `k` most recent of NeighborsBeforeAsOf, ascending-time
  /// order (same contract as TemporalGraph::MostRecentNeighbors).
  std::vector<TemporalNeighbor> MostRecentNeighborsAsOf(
      NodeId node, double before_time, int64_t k,
      int64_t ordinal_limit) const;

  /// One node to sample, as the graph stood before `before_time`.
  struct SampleQuery {
    NodeId node = -1;
    double before_time = 0.0;
  };

  /// \brief Samples many nodes of slice `shard` as of batch `batch`: waits
  /// until the slice has appended batches 0..batch-1 (watermark >= batch),
  /// then, under one acquisition of the slice lock, appends one row per
  /// query to `out` — MostRecentNeighborsAsOf(query.node,
  /// query.before_time, k, ordinal_limit). Every query must name a node
  /// the slice owns (CHECK-enforced). Allocation-free once `out` is warm.
  /// \return milliseconds spent waiting for the watermark (0 when the
  ///   slice was already far enough; no clock is read then).
  double SampleAsOf(int shard, int64_t batch,
                    std::span<const SampleQuery> queries, int64_t k,
                    int64_t ordinal_limit, NeighborRows* out) const;

  /// Stored occurrences of `node` (quiescent inspector).
  int64_t Degree(NodeId node) const;

  /// Total events across all homed slice logs (quiescent inspector; each
  /// event is homed on exactly one slice).
  int64_t num_events() const;

  /// Events homed on one slice (quiescent inspector).
  int64_t SliceEventCount(int shard) const;

  /// Bytes of one slice's adjacency + homed event log
  /// (Mailbox::MemoryBytes-style payload accounting).
  int64_t SliceMemoryBytes(int shard) const;

  /// Summed slice memory — compare against the monolithic
  /// TemporalGraph::MemoryBytes over the same stream to verify the
  /// partition stores the graph ~once, not once per shard.
  int64_t MemoryBytes() const;

 private:
  /// One adjacency occurrence plus the global ordinal of the event that
  /// created it (the version key for as-of reads).
  struct Entry {
    NodeId node = -1;
    EdgeId edge_id = -1;
    double timestamp = 0.0;
    int64_t ordinal = 0;
  };

  struct Slice {
    /// Leaf lock over everything below (see the thread contract above).
    mutable util::Mutex mu;
    /// Signalled after every append and restore: readers in SampleAsOf
    /// wait here for the watermark.
    mutable util::CondVar appended;
    /// rows[local_row_[v]] = v's occurrences, ordinal- and time-sorted.
    std::vector<std::vector<Entry>> rows APAN_GUARDED_BY(mu);
    /// Event-log entries homed on this shard, in append order.
    std::vector<Event> homed_events APAN_GUARDED_BY(mu);
    /// -inf so the first appended event passes the monotonicity check at
    /// any timestamp, matching TemporalGraph::AddEvent's first-event rule.
    double latest_timestamp APAN_GUARDED_BY(mu) =
        -std::numeric_limits<double>::infinity();
    int64_t watermark APAN_GUARDED_BY(mu) = 0;
  };

  bool ValidNode(NodeId node) const {
    return node >= 0 && node < num_nodes_;
  }
  const Slice& SliceOf(NodeId node) const {
    return *slices_[static_cast<size_t>(OwnerOf(node))];
  }
  /// `node`'s row in `slice`, which must be its owner's.
  const std::vector<Entry>& RowIn(const Slice& slice, NodeId node) const
      APAN_REQUIRES(slice.mu) {
    return slice.rows[static_cast<size_t>(
        partition_->local_row[static_cast<size_t>(node)])];
  }
  /// The `k` newest entries of `row`'s visible prefix, appended to `out`
  /// oldest first.
  static void AppendMostRecent(const std::vector<Entry>& row,
                               double before_time, int64_t k,
                               int64_t ordinal_limit,
                               std::vector<TemporalNeighbor>* out);

  int num_shards_;
  int64_t num_nodes_;
  /// Shared ownership index (owner + local row per node); possibly the
  /// same instance the engine's NodeStateStores reference.
  std::shared_ptr<const NodePartition> partition_;
  std::vector<std::unique_ptr<Slice>> slices_;
};

}  // namespace graph
}  // namespace apan

#endif  // APAN_GRAPH_SHARDED_TEMPORAL_GRAPH_H_
