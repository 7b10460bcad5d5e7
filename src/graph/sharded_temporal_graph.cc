#include "graph/sharded_temporal_graph.h"

#include <algorithm>

#include "graph/visible_prefix.h"
#include "util/stopwatch.h"

namespace apan {
namespace graph {

ShardedTemporalGraph::ShardedTemporalGraph(int num_shards, int64_t num_nodes)
    : ShardedTemporalGraph(
          NodePartition::BuildDefault(num_nodes, num_shards)) {}

ShardedTemporalGraph::ShardedTemporalGraph(
    std::shared_ptr<const NodePartition> partition)
    : num_shards_(partition != nullptr ? partition->num_shards : 0),
      num_nodes_(partition != nullptr ? partition->num_nodes() : 0),
      partition_(std::move(partition)) {
  APAN_CHECK_MSG(partition_ != nullptr, "null NodePartition");
  APAN_CHECK_MSG(num_shards_ > 0,
                 "ShardedTemporalGraph needs at least one shard");
  APAN_CHECK_MSG(num_nodes_ > 0,
                 "ShardedTemporalGraph needs at least one node");
  slices_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    slices_.push_back(std::make_unique<Slice>());
    Slice& slice = *slices_.back();
    util::MutexLock lock(slice.mu);
    slice.rows.resize(
        static_cast<size_t>(partition_->owned_count[static_cast<size_t>(s)]));
  }
}

void ShardedTemporalGraph::ResetSlice(int shard) {
  APAN_CHECK_MSG(shard >= 0 && shard < num_shards_,
                 "shard id out of range in ResetSlice");
  Slice& slice = *slices_[static_cast<size_t>(shard)];
  util::MutexLock lock(slice.mu);
  for (auto& row : slice.rows) row.clear();
  slice.homed_events.clear();
  slice.latest_timestamp = -std::numeric_limits<double>::infinity();
  slice.watermark = 0;
}

ShardedTemporalGraph::SliceCheckpoint ShardedTemporalGraph::ExportSlice(
    int shard) const {
  APAN_CHECK_MSG(shard >= 0 && shard < num_shards_,
                 "shard id out of range in ExportSlice");
  const Slice& slice = *slices_[static_cast<size_t>(shard)];
  util::MutexLock lock(slice.mu);
  SliceCheckpoint out;
  out.rows.resize(slice.rows.size());
  for (size_t r = 0; r < slice.rows.size(); ++r) {
    out.rows[r].reserve(slice.rows[r].size());
    for (const Entry& e : slice.rows[r]) {
      out.rows[r].push_back({e.node, e.edge_id, e.timestamp, e.ordinal});
    }
  }
  out.homed_events = slice.homed_events;
  out.latest_timestamp = slice.latest_timestamp;
  out.watermark = slice.watermark;
  return out;
}

Status ShardedTemporalGraph::RestoreSlice(int shard,
                                          const SliceCheckpoint& checkpoint) {
  APAN_CHECK_MSG(shard >= 0 && shard < num_shards_,
                 "shard id out of range in RestoreSlice");
  Slice& slice = *slices_[static_cast<size_t>(shard)];
  util::MutexLock lock(slice.mu);
  if (checkpoint.rows.size() != slice.rows.size()) {
    return Status::InvalidArgument(internal::StrCat(
        "slice restore: checkpoint has ", checkpoint.rows.size(),
        " rows but shard ", shard, " owns ", slice.rows.size(), " nodes"));
  }
  if (checkpoint.watermark < 0) {
    return Status::InvalidArgument(internal::StrCat(
        "slice restore: negative watermark ", checkpoint.watermark));
  }
  // Validate everything before mutating so a rejected checkpoint leaves
  // the live slice untouched.
  for (size_t r = 0; r < checkpoint.rows.size(); ++r) {
    const auto& row = checkpoint.rows[r];
    for (size_t i = 0; i < row.size(); ++i) {
      if (!ValidNode(row[i].node)) {
        return Status::InvalidArgument(internal::StrCat(
            "slice restore: row ", r, " entry ", i, " names node ",
            row[i].node, " outside [0, ", num_nodes_, ")"));
      }
      if (i > 0 && (row[i].timestamp < row[i - 1].timestamp ||
                    row[i].ordinal < row[i - 1].ordinal)) {
        return Status::InvalidArgument(internal::StrCat(
            "slice restore: row ", r, " is not (timestamp, ordinal) sorted ",
            "at entry ", i));
      }
    }
  }
  for (const Event& event : checkpoint.homed_events) {
    if (!ValidNode(event.src) || !ValidNode(event.dst)) {
      return Status::InvalidArgument(internal::StrCat(
          "slice restore: homed event endpoints out of range: ", event.src,
          " -> ", event.dst));
    }
  }
  for (size_t r = 0; r < slice.rows.size(); ++r) {
    slice.rows[r].clear();
    slice.rows[r].reserve(checkpoint.rows[r].size());
    for (const auto& e : checkpoint.rows[r]) {
      slice.rows[r].push_back({e.node, e.edge_id, e.timestamp, e.ordinal});
    }
  }
  slice.homed_events = checkpoint.homed_events;
  slice.latest_timestamp = checkpoint.latest_timestamp;
  slice.watermark = checkpoint.watermark;
  slice.appended.NotifyAll();
  return Status::OK();
}

Status ShardedTemporalGraph::AppendBatchSlice(int shard, int64_t batch,
                                              std::span<const Event> events,
                                              int64_t base_ordinal) {
  APAN_CHECK_MSG(shard >= 0 && shard < num_shards_,
                 "shard id out of range in AppendBatchSlice");
  Slice& slice = *slices_[static_cast<size_t>(shard)];
  util::MutexLock lock(slice.mu);
  const int64_t expected = slice.watermark;
  if (batch != expected) {
    return Status::FailedPrecondition(internal::StrCat(
        "out-of-order slice append: batch ", batch, " on shard ", shard,
        " whose watermark is ", expected));
  }
  // Validate the whole span before mutating anything: a mid-batch failure
  // must not leave the earlier events' entries behind with the watermark
  // unadvanced — re-appending the fixed batch would then duplicate them.
  double latest = slice.latest_timestamp;
  for (const Event& event : events) {
    if (!ValidNode(event.src) || !ValidNode(event.dst)) {
      return Status::InvalidArgument(internal::StrCat(
          "event endpoints out of range: ", event.src, " -> ", event.dst,
          " (num_nodes=", num_nodes_, ")"));
    }
    if (event.timestamp < latest) {
      return Status::FailedPrecondition(internal::StrCat(
          "out-of-order append: ", event.timestamp, " < ", latest));
    }
    latest = event.timestamp;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    const int64_t ordinal = base_ordinal + static_cast<int64_t>(i);
    // Default edge id = global ordinal, matching TemporalGraph::AddEvent's
    // "index into the event log" default.
    const EdgeId edge_id = event.edge_id >= 0 ? event.edge_id : ordinal;
    slice.latest_timestamp = event.timestamp;
    if (OwnerOf(event.src) == shard) {
      slice.rows[static_cast<size_t>(
                     partition_->local_row[static_cast<size_t>(event.src)])]
          .push_back({event.dst, edge_id, event.timestamp, ordinal});
      // The source endpoint's owner homes the event-log entry.
      Event stored = event;
      stored.edge_id = edge_id;
      slice.homed_events.push_back(stored);
    }
    if (OwnerOf(event.dst) == shard && event.dst != event.src) {
      slice.rows[static_cast<size_t>(
                     partition_->local_row[static_cast<size_t>(event.dst)])]
          .push_back({event.src, edge_id, event.timestamp, ordinal});
    }
  }
  slice.watermark = batch + 1;
  slice.appended.NotifyAll();
  return Status::OK();
}

int64_t ShardedTemporalGraph::watermark(int shard) const {
  const Slice& slice = *slices_[static_cast<size_t>(shard)];
  util::MutexLock lock(slice.mu);
  return slice.watermark;
}

std::vector<TemporalNeighbor> ShardedTemporalGraph::NeighborsBeforeAsOf(
    NodeId node, double before_time, int64_t ordinal_limit) const {
  if (!ValidNode(node)) return {};
  const Slice& slice = SliceOf(node);
  util::MutexLock lock(slice.mu);
  const auto& row = RowIn(slice, node);
  const size_t end = VisibleEnd(row, before_time, ordinal_limit);
  std::vector<TemporalNeighbor> out;
  out.reserve(end);
  for (size_t i = 0; i < end; ++i) {
    out.push_back({row[i].node, row[i].edge_id, row[i].timestamp});
  }
  return out;
}

std::vector<TemporalNeighbor> ShardedTemporalGraph::MostRecentNeighborsAsOf(
    NodeId node, double before_time, int64_t k,
    int64_t ordinal_limit) const {
  std::vector<TemporalNeighbor> out;
  if (!ValidNode(node)) return out;
  const Slice& slice = SliceOf(node);
  util::MutexLock lock(slice.mu);
  AppendMostRecent(RowIn(slice, node), before_time, k, ordinal_limit, &out);
  return out;
}

double ShardedTemporalGraph::SampleAsOf(int shard, int64_t batch,
                                        std::span<const SampleQuery> queries,
                                        int64_t k, int64_t ordinal_limit,
                                        NeighborRows* out) const {
  APAN_CHECK_MSG(shard >= 0 && shard < num_shards_,
                 "shard id out of range in SampleAsOf");
  const Slice& slice = *slices_[static_cast<size_t>(shard)];
  util::MutexLock lock(slice.mu);
  double waited_ms = 0.0;
  if (slice.watermark < batch) {
    Stopwatch wait;
    while (slice.watermark < batch) slice.appended.Wait(slice.mu);
    waited_ms = wait.ElapsedMillis();
  }
  for (const SampleQuery& query : queries) {
    APAN_CHECK_MSG(ValidNode(query.node) && OwnerOf(query.node) == shard,
                   "SampleAsOf query names a node the slice does not own");
    AppendMostRecent(RowIn(slice, query.node), query.before_time, k,
                     ordinal_limit, &out->entries);
    out->EndRow();
  }
  return waited_ms;
}

void ShardedTemporalGraph::AppendMostRecent(
    const std::vector<Entry>& row, double before_time, int64_t k,
    int64_t ordinal_limit, std::vector<TemporalNeighbor>* out) {
  if (k <= 0) return;
  const size_t end = VisibleEnd(row, before_time, ordinal_limit);
  const size_t take = std::min(static_cast<size_t>(k), end);
  for (size_t i = end - take; i < end; ++i) {
    out->push_back({row[i].node, row[i].edge_id, row[i].timestamp});
  }
}

int64_t ShardedTemporalGraph::Degree(NodeId node) const {
  if (!ValidNode(node)) return 0;
  const Slice& slice = SliceOf(node);
  util::MutexLock lock(slice.mu);
  return static_cast<int64_t>(RowIn(slice, node).size());
}

int64_t ShardedTemporalGraph::num_events() const {
  int64_t total = 0;
  for (int s = 0; s < num_shards_; ++s) total += SliceEventCount(s);
  return total;
}

int64_t ShardedTemporalGraph::SliceEventCount(int shard) const {
  const Slice& slice = *slices_[static_cast<size_t>(shard)];
  util::MutexLock lock(slice.mu);
  return static_cast<int64_t>(slice.homed_events.size());
}

int64_t ShardedTemporalGraph::SliceMemoryBytes(int shard) const {
  const Slice& slice = *slices_[static_cast<size_t>(shard)];
  util::MutexLock lock(slice.mu);
  int64_t bytes =
      static_cast<int64_t>(slice.homed_events.size() * sizeof(Event));
  for (const auto& row : slice.rows) {
    bytes += static_cast<int64_t>(row.size() * sizeof(Entry));
  }
  return bytes;
}

int64_t ShardedTemporalGraph::MemoryBytes() const {
  int64_t total = 0;
  for (int s = 0; s < num_shards_; ++s) total += SliceMemoryBytes(s);
  return total;
}

}  // namespace graph
}  // namespace apan
