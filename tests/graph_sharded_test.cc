#include "graph/sharded_temporal_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "graph/sampling.h"
#include "graph/temporal_graph.h"
#include "graph/visible_prefix.h"
#include "util/random.h"

namespace apan {
namespace graph {
namespace {

constexpr int64_t kAll = ShardedTemporalGraph::kNoOrdinalLimit;

// Appends the same random stream batch-wise into every slice of `sliced`
// and event-wise into `mono`; returns the events.
std::vector<Event> FillBoth(ShardedTemporalGraph& sliced, TemporalGraph& mono,
                            int64_t num_nodes, int num_events,
                            size_t batch_size, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  double t = 0.0;
  for (int i = 0; i < num_events; ++i) {
    t += rng.Exponential(1.0);
    const auto a = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const auto b = static_cast<NodeId>(rng.UniformInt(num_nodes));
    events.push_back({a, b, t, -1});
  }
  int64_t batch = 0;
  for (size_t lo = 0; lo < events.size(); lo += batch_size, ++batch) {
    const size_t hi = std::min(lo + batch_size, events.size());
    std::span<const Event> slice(events.data() + lo, hi - lo);
    for (int s = 0; s < sliced.num_shards(); ++s) {
      EXPECT_TRUE(sliced
                      .AppendBatchSlice(s, batch, slice,
                                        static_cast<int64_t>(lo))
                      .ok());
    }
  }
  for (const Event& e : events) EXPECT_TRUE(mono.AddEvent(e).ok());
  return events;
}

TEST(ShardedTemporalGraphTest, OwnershipMatchesSharedHash) {
  ShardedTemporalGraph g(4, 100);
  for (NodeId v = 0; v < 100; ++v) {
    EXPECT_EQ(g.OwnerOf(v), NodeShardOf(v, 4));
  }
}

TEST(ShardedTemporalGraphTest, AppendIsShardLocalAndWatermarked) {
  ShardedTemporalGraph g(2, 10);
  std::vector<Event> batch0 = {{0, 1, 1.0, -1}, {2, 3, 2.0, -1}};
  EXPECT_EQ(g.watermark(0), 0);
  ASSERT_TRUE(g.AppendBatchSlice(0, 0, batch0, 0).ok());
  EXPECT_EQ(g.watermark(0), 1);
  EXPECT_EQ(g.watermark(1), 0);  // shard 1 has not absorbed the batch
  ASSERT_TRUE(g.AppendBatchSlice(1, 0, batch0, 0).ok());
  EXPECT_EQ(g.watermark(1), 1);
  // Each event homed exactly once, each occurrence stored exactly once.
  EXPECT_EQ(g.num_events(), 2);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Degree(2), 1);
  EXPECT_EQ(g.Degree(3), 1);
}

TEST(ShardedTemporalGraphTest, RejectsOutOfOrderBatchAndTimestamp) {
  ShardedTemporalGraph g(2, 10);
  std::vector<Event> batch0 = {{0, 1, 5.0, -1}};
  ASSERT_TRUE(g.AppendBatchSlice(0, 0, batch0, 0).ok());
  // Skipping a batch or replaying one fails on the watermark.
  EXPECT_TRUE(g.AppendBatchSlice(0, 2, batch0, 1).IsFailedPrecondition());
  EXPECT_TRUE(g.AppendBatchSlice(0, 0, batch0, 0).IsFailedPrecondition());
  // Older timestamps fail, even though only shard 1's slice stores rows.
  std::vector<Event> stale = {{0, 1, 4.0, -1}};
  EXPECT_TRUE(g.AppendBatchSlice(0, 1, stale, 1).IsFailedPrecondition());
  std::vector<Event> bad_node = {{0, 99, 6.0, -1}};
  EXPECT_TRUE(g.AppendBatchSlice(0, 1, bad_node, 1).IsInvalidArgument());
}

TEST(ShardedTemporalGraphTest, AcceptsNegativeFirstTimestamp) {
  // TemporalGraph::AddEvent accepts any first timestamp (times measured
  // relative to a reference point can start negative); the slices must
  // agree or the engine aborts on streams the monolithic path serves.
  ShardedTemporalGraph g(2, 4);
  std::vector<Event> batch = {{0, 1, -100.0, -1}, {2, 3, -50.0, -1}};
  ASSERT_TRUE(g.AppendBatchSlice(0, 0, batch, 0).ok());
  ASSERT_TRUE(g.AppendBatchSlice(1, 0, batch, 0).ok());
  EXPECT_EQ(g.num_events(), 2);
  EXPECT_EQ(g.Degree(0), 1);
  // Still-older timestamps in the next batch are rejected as usual.
  std::vector<Event> stale = {{0, 1, -200.0, -1}};
  EXPECT_TRUE(g.AppendBatchSlice(0, 1, stale, 2).IsFailedPrecondition());
}

TEST(ShardedTemporalGraphTest, FailedAppendLeavesSliceUnchanged) {
  // A mid-batch validation failure must not mutate the slice: the
  // watermark stays put, so the caller may re-append the fixed batch
  // without duplicating the valid prefix's entries.
  ShardedTemporalGraph g(1, 10);
  std::vector<Event> bad = {{0, 1, 1.0, -1}, {2, 99, 2.0, -1}};
  EXPECT_TRUE(g.AppendBatchSlice(0, 0, bad, 0).IsInvalidArgument());
  EXPECT_EQ(g.watermark(0), 0);
  EXPECT_EQ(g.num_events(), 0);
  EXPECT_EQ(g.Degree(0), 0);
  EXPECT_EQ(g.Degree(1), 0);
  std::vector<Event> fixed = {{0, 1, 1.0, -1}, {2, 3, 2.0, -1}};
  ASSERT_TRUE(g.AppendBatchSlice(0, 0, fixed, 0).ok());
  EXPECT_EQ(g.num_events(), 2);
  EXPECT_EQ(g.Degree(0), 1);  // exactly once, no duplicate from `bad`
  EXPECT_EQ(g.Degree(1), 1);
}

TEST(ShardedTemporalGraphTest, ReadsMatchMonolithicGraph) {
  const int64_t nodes = 24;
  ShardedTemporalGraph sliced(4, nodes);
  TemporalGraph mono(nodes);
  FillBoth(sliced, mono, nodes, 400, 32, 77);

  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto v = static_cast<NodeId>(rng.UniformInt(nodes));
    const double cutoff = rng.Uniform(0.0, 500.0);
    const auto a = sliced.NeighborsBeforeAsOf(v, cutoff, kAll);
    const auto b = mono.NeighborsBefore(v, cutoff);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_EQ(a[i].edge_id, b[i].edge_id);
      EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    }
    const auto ra = sliced.MostRecentNeighborsAsOf(v, cutoff, 5, kAll);
    const auto rb = mono.MostRecentNeighbors(v, cutoff, 5);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].node, rb[i].node);
      EXPECT_EQ(ra[i].timestamp, rb[i].timestamp);
    }
  }
}

TEST(ShardedTemporalGraphTest, OrdinalLimitMatchesPrefixGraph) {
  // Reading as-of ordinal L must equal a monolithic graph built from only
  // the first L events — the versioned-read property that lets shards run
  // ahead of each other without an epoch gate.
  const int64_t nodes = 24;
  ShardedTemporalGraph sliced(4, nodes);
  TemporalGraph full(nodes);
  const auto events = FillBoth(sliced, full, nodes, 400, 32, 99);

  Rng rng(8);
  for (const int64_t limit : {0L, 1L, 31L, 32L, 100L, 399L, 400L}) {
    TemporalGraph prefix(nodes);
    for (int64_t i = 0; i < limit; ++i) {
      ASSERT_TRUE(prefix.AddEvent(events[static_cast<size_t>(i)]).ok());
    }
    for (int trial = 0; trial < 50; ++trial) {
      const auto v = static_cast<NodeId>(rng.UniformInt(nodes));
      const double cutoff = rng.Uniform(0.0, 500.0);
      const auto a = sliced.MostRecentNeighborsAsOf(v, cutoff, 6, limit);
      const auto b = prefix.MostRecentNeighbors(v, cutoff, 6);
      ASSERT_EQ(a.size(), b.size())
          << "node " << v << " limit " << limit << " cutoff " << cutoff;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_EQ(a[i].timestamp, b[i].timestamp);
      }
    }
  }
}

// ---- Tail-first visible-prefix search ---------------------------------------

struct StampedEntry {
  double timestamp = 0.0;
  int64_t ordinal = 0;
};

/// The whole-row cut VisibleEnd replaces: the min of two lower_bounds.
size_t LowerBoundVisibleEnd(const std::vector<StampedEntry>& row,
                            double before_time, int64_t ordinal_limit) {
  auto end = std::lower_bound(
      row.begin(), row.end(), before_time,
      [](const StampedEntry& e, double t) { return e.timestamp < t; });
  if (ordinal_limit != std::numeric_limits<int64_t>::max()) {
    end = std::min(end, std::lower_bound(row.begin(), row.end(),
                                         ordinal_limit,
                                         [](const StampedEntry& e, int64_t l) {
                                           return e.ordinal < l;
                                         }));
  }
  return static_cast<size_t>(end - row.begin());
}

TEST(VisiblePrefixProperty, TailSearchMatchesLowerBoundAtEveryHorizon) {
  constexpr int64_t kNoLimit = std::numeric_limits<int64_t>::max();
  Rng rng(77);
  for (const size_t n : {0, 1, 2, 3, 7, 8, 9, 64, 257}) {
    for (int trial = 0; trial < 4; ++trial) {
      // Time-sorted with ties (several entries per timestamp), ordinals
      // strictly increasing: the shape of a slice's adjacency row.
      std::vector<StampedEntry> row(n);
      double t = rng.Uniform(-5.0, 5.0);
      int64_t ordinal = static_cast<int64_t>(rng.UniformInt(4));
      for (auto& e : row) {
        t += 0.5 * static_cast<double>(rng.UniformInt(3));
        ordinal += 1 + static_cast<int64_t>(rng.UniformInt(3));
        e = {t, ordinal};
      }
      // Horizons at, just past, below and above every entry, so the cut
      // lands on every position 0..n, including none- and all-visible.
      std::vector<double> times = {-1e300, 1e300};
      std::vector<int64_t> limits = {0, kNoLimit, kNoLimit - 1};
      for (const auto& e : row) {
        times.push_back(e.timestamp);
        times.push_back(e.timestamp + 0.25);
        limits.push_back(e.ordinal);
        limits.push_back(e.ordinal + 1);
      }
      std::vector<bool> cut_seen(n + 1, false);
      for (const double before : times) {
        const auto by_time = [before](const StampedEntry& e) {
          return e.timestamp < before;
        };
        ASSERT_EQ(TailPartitionPoint(row, by_time),
                  static_cast<size_t>(std::partition_point(row.begin(),
                                                           row.end(), by_time) -
                                      row.begin()));
        for (const int64_t limit : limits) {
          const size_t want = LowerBoundVisibleEnd(row, before, limit);
          ASSERT_EQ(VisibleEnd(row, before, limit), want)
              << "n=" << n << " before=" << before << " limit=" << limit;
          cut_seen[want] = true;
        }
      }
      EXPECT_EQ(std::count(cut_seen.begin(), cut_seen.end(), true),
                static_cast<std::ptrdiff_t>(n + 1))
          << "some horizon position was never exercised, n=" << n;
    }
  }
}

TEST(ShardedTemporalGraphTest, SlicedMemoryIsOnceNotPerShard) {
  const int64_t nodes = 24;
  for (const int shards : {1, 2, 8}) {
    ShardedTemporalGraph sliced(shards, nodes);
    TemporalGraph mono(nodes);
    FillBoth(sliced, mono, nodes, 300, 25, 13);
    int64_t summed = 0;
    for (int s = 0; s < shards; ++s) summed += sliced.SliceMemoryBytes(s);
    EXPECT_EQ(summed, sliced.MemoryBytes());
    // Each occurrence stored once (entries carry one extra ordinal, so
    // the ratio is a constant ~1.3x, independent of the shard count).
    const double ratio = static_cast<double>(summed) /
                         static_cast<double>(mono.MemoryBytes());
    EXPECT_GT(ratio, 0.9) << shards << " shards";
    EXPECT_LT(ratio, 1.5) << shards << " shards";
    EXPECT_EQ(sliced.num_events(), mono.num_events());
  }
}

// Property (cross-shard no-future-leakage): a 2-hop expansion whose hop-2
// frontier nodes are owned by a *foreign* shard still sees only events
// strictly before before_time — on the sliced graph exactly as on the
// monolithic one. The expansion below mirrors serve::ShardedEngine's
// k-hop expansion: every frontier node is sampled from its owner's slice.
TEST(ShardedTemporalGraphProperty, CrossShardTwoHopNoFutureLeakage) {
  const int64_t nodes = 30;
  const int shards = 4;
  const int64_t fanout = 4;
  ShardedTemporalGraph sliced(shards, nodes);
  TemporalGraph mono(nodes);
  const auto events = FillBoth(sliced, mono, nodes, 500, 40, 4242);

  Rng rng(31);
  int64_t foreign_hop2_frontiers = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const auto& e = events[static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(events.size())))];
    const double before_time = e.timestamp;
    const std::vector<NodeId> seeds = {e.src, e.dst};
    const int home = sliced.OwnerOf(e.src);

    // Reference: monolithic 2-hop expansion.
    const auto expected =
        KHopMostRecent(mono, seeds, before_time, 2, fanout);

    // Sliced: hop by hop, each frontier node sampled from its owner's
    // slice (what the engine's foreign-slice reads do), reassembled in
    // frontier order.
    std::vector<HopEntry> actual;
    std::vector<NodeId> frontier = seeds;
    for (int32_t hop = 1; hop <= 2; ++hop) {
      std::vector<NodeId> next;
      for (const NodeId v : frontier) {
        if (hop == 2 && sliced.OwnerOf(v) != home) ++foreign_hop2_frontiers;
        const auto sampled =
            sliced.MostRecentNeighborsAsOf(v, before_time, fanout, kAll);
        for (const auto& n : sampled) {
          // The leakage invariant, at every hop, for every owner.
          ASSERT_LT(n.timestamp, before_time)
              << "hop " << hop << " node " << v << " owner "
              << sliced.OwnerOf(v);
          actual.push_back({n.node, n.edge_id, n.timestamp, hop});
          next.push_back(n.node);
        }
      }
      frontier = std::move(next);
      if (frontier.empty()) break;
    }

    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].node, expected[i].node);
      EXPECT_EQ(actual[i].via_edge, expected[i].via_edge);
      EXPECT_EQ(actual[i].timestamp, expected[i].timestamp);
      EXPECT_EQ(actual[i].hop, expected[i].hop);
      EXPECT_LT(expected[i].timestamp, before_time);  // monolithic too
    }
  }
  // The property must actually have exercised foreign-owned hop-2
  // frontiers, or the test proves nothing about shard boundaries.
  EXPECT_GT(foreign_hop2_frontiers, 100);
}

// ---- Concurrent append and foreign reads ------------------------------------
// The engine's workers read each other's slices directly: a worker
// expanding batch b waits under the slice lock until the owner appended
// batch b-1, then samples as of b. These run owners and readers on real
// threads (and under the TSan and ASan+UBSan tiers, via the `state`
// label).

bool SameRows(std::span<const TemporalNeighbor> a,
              const std::vector<TemporalNeighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].edge_id != b[i].edge_id ||
        a[i].timestamp != b[i].timestamp) {
      return false;
    }
  }
  return true;
}

TEST(ShardedTemporalGraphTest, ForeignReadBlocksUntilOwnerAppendsPrevious) {
  const int64_t nodes = 16;
  ShardedTemporalGraph sliced(2, nodes);
  TemporalGraph mono(nodes);
  std::vector<Event> batch0;
  for (NodeId v = 0; v + 1 < nodes; ++v) {
    batch0.push_back({v, v + 1, static_cast<double>(v), -1});
  }
  for (const Event& e : batch0) ASSERT_TRUE(mono.AddEvent(e).ok());
  std::vector<ShardedTemporalGraph::SampleQuery> queries;
  for (NodeId v = 0; v < nodes; ++v) {
    if (sliced.OwnerOf(v) == 1) queries.push_back({v, 100.0});
  }
  ASSERT_FALSE(queries.empty());
  const auto limit = static_cast<int64_t>(batch0.size());

  // A read as of batch 0 needs nothing appended: it returns at once, and
  // empty.
  NeighborRows rows;
  EXPECT_EQ(sliced.SampleAsOf(1, 0, queries, 3, 0, &rows), 0.0);
  ASSERT_EQ(rows.rows(), queries.size());
  EXPECT_TRUE(rows.entries.empty());

  // As of batch 1 it must wait for shard 1's append of batch 0 — shard
  // 0's append does not release it.
  ASSERT_TRUE(sliced.AppendBatchSlice(0, 0, batch0, 0).ok());
  rows.Clear();
  std::atomic<bool> returned{false};
  double waited_ms = 0.0;
  std::thread reader([&] {
    waited_ms = sliced.SampleAsOf(1, 1, queries, 3, limit, &rows);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load()) << "read as of batch 1 ran before batch 0";
  ASSERT_TRUE(sliced.AppendBatchSlice(1, 0, batch0, 0).ok());
  reader.join();
  EXPECT_TRUE(returned.load());
  EXPECT_GT(waited_ms, 0.0);
  ASSERT_EQ(rows.rows(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(SameRows(rows.Row(q),
                         mono.MostRecentNeighbors(queries[q].node, 100.0, 3)))
        << "node " << queries[q].node;
  }
}

TEST(ShardedTemporalGraphTest, ConcurrentAppendAndForeignReadsMatchMonolithic) {
  const int64_t nodes = 40;
  const int shards = 4;
  const size_t batch_size = 8;
  const int64_t num_batches = 60;
  const int64_t fanout = 4;
  Rng rng(2024);
  std::vector<Event> events;
  double t = 0.0;
  for (int64_t i = 0; i < num_batches * static_cast<int64_t>(batch_size);
       ++i) {
    t += rng.Exponential(1.0);
    events.push_back({static_cast<NodeId>(rng.UniformInt(nodes)),
                      static_cast<NodeId>(rng.UniformInt(nodes)), t, -1});
  }
  const auto batch_of = [&](int64_t b) {
    return std::span<const Event>(events).subspan(
        static_cast<size_t>(b) * batch_size, batch_size);
  };
  // expected[b][v]: v's as-of rows for batch b — a monolithic graph of
  // batches 0..b-1, sampled before batch b's first event.
  std::vector<std::vector<std::vector<TemporalNeighbor>>> expected(
      static_cast<size_t>(num_batches));
  TemporalGraph prefix(nodes);
  for (int64_t b = 0; b < num_batches; ++b) {
    const double before = batch_of(b).front().timestamp;
    for (NodeId v = 0; v < nodes; ++v) {
      expected[static_cast<size_t>(b)].push_back(
          prefix.MostRecentNeighbors(v, before, fanout));
    }
    for (const Event& e : batch_of(b)) ASSERT_TRUE(prefix.AddEvent(e).ok());
  }

  // Per shard, an owner appending its slice batch by batch and a reader
  // sampling every other shard's slice as of each batch — the engine's
  // worker pattern without the engine. Owners never wait, so readers
  // always finish.
  ShardedTemporalGraph sliced(shards, nodes);
  std::atomic<int64_t> append_failures{0};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> rows_checked{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      for (int64_t b = 0; b < num_batches; ++b) {
        const auto base = b * static_cast<int64_t>(batch_size);
        if (!sliced.AppendBatchSlice(s, b, batch_of(b), base).ok()) {
          ++append_failures;
        }
      }
    });
    threads.emplace_back([&, s] {
      std::vector<ShardedTemporalGraph::SampleQuery> queries;
      NeighborRows rows;
      for (int64_t b = 0; b < num_batches; ++b) {
        const double before = batch_of(b).front().timestamp;
        for (int owner = 0; owner < shards; ++owner) {
          if (owner == s) continue;
          queries.clear();
          for (NodeId v = 0; v < nodes; ++v) {
            if (sliced.OwnerOf(v) == owner) queries.push_back({v, before});
          }
          rows.Clear();
          sliced.SampleAsOf(owner, b, queries, fanout,
                            b * static_cast<int64_t>(batch_size), &rows);
          for (size_t q = 0; q < queries.size(); ++q) {
            const auto& want = expected[static_cast<size_t>(b)]
                                       [static_cast<size_t>(queries[q].node)];
            if (rows.rows() != queries.size() ||
                !SameRows(rows.Row(q), want)) {
              ++mismatches;
            }
            ++rows_checked;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(append_failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Every reader checked every foreign node at every batch.
  EXPECT_EQ(rows_checked.load(), (shards - 1) * nodes * num_batches);
  for (int s = 0; s < shards; ++s) EXPECT_EQ(sliced.watermark(s), num_batches);
}

}  // namespace
}  // namespace graph
}  // namespace apan
