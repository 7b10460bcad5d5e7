#include "core/propagator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <unordered_map>

#include "core/node_state_store.h"

namespace apan {
namespace core {
namespace {

constexpr int64_t kDim = 4;

ApanConfig Config(int32_t hops) {
  ApanConfig c;
  c.num_nodes = 6;
  c.embedding_dim = kDim;
  c.mailbox_slots = 4;
  c.sampled_neighbors = 2;
  c.propagation_hops = hops;
  return c;
}

InteractionRecord Record(graph::NodeId src, graph::NodeId dst, double t,
                         graph::EdgeId edge, float zs, float zd) {
  InteractionRecord r;
  r.event = {src, dst, t, edge};
  r.z_src.assign(kDim, zs);
  r.z_dst.assign(kDim, zd);
  return r;
}

struct Fixture {
  Fixture() : graph(6), features(kDim) {
    // Pre-existing history: 0-1 @1, 1-2 @2, 2-3 @3.
    for (int i = 0; i < 3; ++i) {
      features.Append(std::vector<float>(kDim, 0.0f));
      APAN_CHECK(graph.AddEvent({i, i + 1, static_cast<double>(i + 1),
                                 static_cast<graph::EdgeId>(i)})
                     .ok());
    }
  }
  graph::TemporalGraph graph;
  graph::EdgeFeatureStore features;
};

TEST(MailPropagatorTest, MakeMailIsSum) {
  Fixture f;
  MailPropagator prop(Config(1), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append({1, 2, 3, 4});
  auto mail = prop.MakeMail(Record(0, 1, 10.0, e, 0.5f, 0.25f));
  // mail = z_src + e + z_dst.
  EXPECT_FLOAT_EQ(mail[0], 0.5f + 1.0f + 0.25f);
  EXPECT_FLOAT_EQ(mail[3], 0.5f + 4.0f + 0.25f);
}

TEST(MailPropagatorTest, EndpointsAlwaysReceiveUnreduced) {
  Fixture f;
  MailPropagator prop(Config(0), &f.graph, &f.features);
  graph::EdgeId e1 = f.features.Append(std::vector<float>(kDim, 0.0f));
  graph::EdgeId e2 = f.features.Append(std::vector<float>(kDim, 0.0f));
  // Node 0 involved in two events: gets two separate deliveries.
  auto deliveries = prop.ComputeDeliveries(
      {Record(0, 4, 10.0, e1, 1.0f, 0.0f), Record(0, 5, 11.0, e2, 2.0f, 0.0f)});
  int node0 = 0;
  for (const auto& d : deliveries) {
    if (d.recipient == 0) {
      ++node0;
      EXPECT_EQ(d.contributions, 1);
    }
  }
  EXPECT_EQ(node0, 2);
  EXPECT_EQ(deliveries.size(), 4u);  // 2 events x 2 endpoints, no hops
}

TEST(MailPropagatorTest, PropagatedMailsAreMeanReduced) {
  Fixture f;
  // Node 2 is a 1-hop neighbor of both 1 and 3; two events touching 1 and
  // 3 both reach node 2, reduced to one delivery.
  MailPropagator prop(Config(1), &f.graph, &f.features);
  graph::EdgeId e1 = f.features.Append(std::vector<float>(kDim, 0.0f));
  graph::EdgeId e2 = f.features.Append(std::vector<float>(kDim, 0.0f));
  auto deliveries = prop.ComputeDeliveries(
      {Record(1, 4, 10.0, e1, 1.0f, 0.0f),
       Record(3, 5, 11.0, e2, 3.0f, 0.0f)});
  const MailDelivery* to2 = nullptr;
  for (const auto& d : deliveries) {
    if (d.recipient == 2) {
      EXPECT_EQ(to2, nullptr) << "node 2 must get exactly one delivery";
      to2 = &d;
    }
  }
  ASSERT_NE(to2, nullptr);
  EXPECT_EQ(to2->contributions, 2);
  // Mean of mails (1.0) and (3.0) elementwise = 2.0.
  EXPECT_FLOAT_EQ(to2->mail[0], 2.0f);
  EXPECT_EQ(to2->timestamp, 11.0);  // newest contribution
}

TEST(MailPropagatorTest, ZeroHopsReachesOnlyEndpoints) {
  Fixture f;
  MailPropagator prop(Config(0), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  auto deliveries =
      prop.ComputeDeliveries({Record(1, 4, 10.0, e, 0.0f, 0.0f)});
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].recipient, 1);
  EXPECT_EQ(deliveries[1].recipient, 4);
}

TEST(MailPropagatorTest, TwoHopReachesNeighborsOfNeighbors) {
  Fixture f;
  MailPropagator prop(Config(2), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  // Event at node 3: hop1 = {2}, hop2 = neighbors of 2 = {1, 3}; 3 is an
  // endpoint so only 1 appears in the reduced section.
  auto deliveries =
      prop.ComputeDeliveries({Record(3, 5, 10.0, e, 0.0f, 0.0f)});
  std::map<graph::NodeId, int64_t> got;
  for (const auto& d : deliveries) got[d.recipient] += 1;
  EXPECT_TRUE(got.count(3));  // endpoint
  EXPECT_TRUE(got.count(5));  // endpoint
  EXPECT_TRUE(got.count(2));  // 1-hop
  EXPECT_TRUE(got.count(1));  // 2-hop via 2
}

TEST(MailPropagatorTest, SamplingNeverUsesTheFuture) {
  Fixture f;
  MailPropagator prop(Config(1), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  // At t=1.5, node 1's only past neighbor is 0 (edge @1); edge to 2 (@2)
  // is in the future.
  auto deliveries =
      prop.ComputeDeliveries({Record(1, 5, 1.5, e, 0.0f, 0.0f)});
  for (const auto& d : deliveries) {
    EXPECT_NE(d.recipient, 2) << "future edge leaked into propagation";
  }
}

TEST(MailPropagatorTest, PropagateWritesMailboxes) {
  Fixture f;
  ApanConfig cfg = Config(1);
  MailPropagator prop(cfg, &f.graph, &f.features);
  Mailbox box(cfg.num_nodes, cfg.mailbox_slots, cfg.embedding_dim);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  const int64_t delivered =
      prop.Propagate({Record(1, 4, 10.0, e, 1.0f, 1.0f)}, &box);
  EXPECT_GT(delivered, 2);
  EXPECT_EQ(box.ValidCount(1), 1);
  EXPECT_EQ(box.ValidCount(4), 1);
  EXPECT_FLOAT_EQ(box.RawSlot(1, 0)[0], 2.0f);  // 1 + 0 + 1
}

TEST(MailPropagatorTest, SelfLoopSingleEndpointDelivery) {
  Fixture f;
  MailPropagator prop(Config(0), &f.graph, &f.features);
  graph::EdgeId e = f.features.Append(std::vector<float>(kDim, 0.0f));
  auto deliveries =
      prop.ComputeDeliveries({Record(2, 2, 10.0, e, 1.0f, 1.0f)});
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].recipient, 2);
}

TEST(MailPropagatorTest, NegativeTimesStampMailAtTheNewestContribution) {
  // History at t=-10 (0-1); an event at t=-5 (1-2) reaches node 0 at hop
  // 1. Its reduced mail must carry the event's time, not a time later
  // than every contribution.
  graph::TemporalGraph graph(3);
  graph::EdgeFeatureStore features(kDim);
  const graph::EdgeId history = features.Append(std::vector<float>(kDim, 0));
  ASSERT_TRUE(graph.AddEvent({0, 1, -10.0, history}).ok());
  ApanConfig config = Config(1);
  config.num_nodes = 3;
  MailPropagator prop(config, &graph, &features);
  const graph::EdgeId e = features.Append(std::vector<float>(kDim, 0));
  const InteractionRecord record = Record(1, 2, -5.0, e, 1.0f, 1.0f);

  const MailDelivery* to0 = nullptr;
  const auto deliveries = prop.ComputeDeliveries({record});
  for (const auto& d : deliveries) {
    if (d.recipient == 0) to0 = &d;
  }
  ASSERT_NE(to0, nullptr);
  EXPECT_EQ(to0->timestamp, -5.0);

  // The flat kernel over the same expansion.
  RecordRows rows;
  rows.events = {record.event};
  rows.event_index = {0};
  rows.z.assign(2 * kDim, 1.0f);
  graph::HopRows hops;
  hops.entries = graph::KHopMostRecent(graph, {1, 2}, -5.0, 1, 2);
  hops.EndRow();
  NodeRowIndex scratch;
  MailRows hop0, partial;
  prop.ComputePartialRows(rows, hops, &scratch, &hop0, &partial);
  ASSERT_EQ(partial.rows(), 1u);
  EXPECT_EQ(partial.node[0], 0);
  EXPECT_EQ(partial.time[0], -5.0);
}

// ---- Parity against an independent reference ------------------------------

// The per-recipient ρ loop as the single-worker propagator first wrote it
// (one std::unordered_map accumulator, record-major, hop-entry order),
// with the negative-time fix: newest starts at the first contribution.
// Returns the deliveries in the order they are applied: hop 0 in event
// order, then one reduced mail per recipient sorted by id.
std::vector<MailDelivery> ReferenceDeliveries(
    const std::vector<InteractionRecord>& records,
    const std::vector<std::vector<graph::HopEntry>>& hops,
    const graph::EdgeFeatureStore& features, int64_t d) {
  struct Accumulator {
    std::vector<float> sum;
    double newest = -std::numeric_limits<double>::infinity();
    int64_t count = 0;
  };
  std::unordered_map<graph::NodeId, Accumulator> propagated;
  std::vector<MailDelivery> out;
  for (size_t r = 0; r < records.size(); ++r) {
    const InteractionRecord& record = records[r];
    std::vector<float> mail(static_cast<size_t>(d));
    const float* e = features.Row(record.event.edge_id);
    for (int64_t i = 0; i < d; ++i) {
      mail[static_cast<size_t>(i)] = record.z_src[static_cast<size_t>(i)] +
                                     e[i] +
                                     record.z_dst[static_cast<size_t>(i)];
    }
    const double t = record.event.timestamp;
    for (const auto& entry : hops[r]) {
      if (entry.node == record.event.src || entry.node == record.event.dst) {
        continue;
      }
      auto& acc = propagated[entry.node];
      if (acc.sum.empty()) acc.sum.assign(static_cast<size_t>(d), 0.0f);
      for (int64_t i = 0; i < d; ++i) {
        acc.sum[static_cast<size_t>(i)] += mail[static_cast<size_t>(i)];
      }
      acc.newest = std::max(acc.newest, t);
      ++acc.count;
    }
    out.push_back({record.event.src, mail, t, 1});
    if (record.event.dst != record.event.src) {
      out.push_back({record.event.dst, mail, t, 1});
    }
  }
  std::map<graph::NodeId, Accumulator> sorted(propagated.begin(),
                                              propagated.end());
  for (auto& [recipient, acc] : sorted) {
    const float inv = 1.0f / static_cast<float>(acc.count);
    for (float& v : acc.sum) v *= inv;
    out.push_back({recipient, acc.sum, acc.newest, acc.count});
  }
  return out;
}

void ExpectSameMailboxes(const NodeStateStore& want, const NodeStateStore& got,
                         int64_t num_nodes, int batch) {
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    ASSERT_EQ(want.ValidCount(v), got.ValidCount(v))
        << "node " << v << " after batch " << batch;
    EXPECT_EQ(std::bit_cast<uint64_t>(want.NewestTimestamp(v)),
              std::bit_cast<uint64_t>(got.NewestTimestamp(v)))
        << "node " << v << " after batch " << batch;
    for (int64_t slot = 0; slot < want.slots(); ++slot) {
      const auto a = want.RawSlot(v, slot);
      const auto b = got.RawSlot(v, slot);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
          << "node " << v << " slot " << slot << " after batch " << batch;
    }
  }
}

TEST(MailPropagatorTest, FlatKernelMatchesReferenceBitwise) {
  constexpr int64_t kNodes = 12;
  constexpr int64_t kWide = 5;
  Rng rng(0xF1A7);
  graph::TemporalGraph graph(kNodes);
  graph::EdgeFeatureStore features(kWide);
  for (int i = 0; i < 64; ++i) {
    std::vector<float> row(kWide);
    for (float& v : row) v = static_cast<float>(rng.Normal() * 3.0);
    features.Append(row);
  }
  ApanConfig config;
  config.num_nodes = kNodes;
  config.embedding_dim = kWide;
  config.num_heads = 1;
  config.mailbox_slots = 4;
  config.sampled_neighbors = 3;
  config.propagation_hops = 2;
  MailPropagator prop(config, &graph, &features);
  NodeStateStore reference(kNodes, config.mailbox_slots, kWide);
  NodeStateStore adapter(kNodes, config.mailbox_slots, kWide);
  NodeStateStore flat(kNodes, config.mailbox_slots, kWide);
  NodeRowIndex scratch;  // reused across batches, as a worker does
  MailRows hop0, partial;

  const auto node = [&rng] {
    return static_cast<graph::NodeId>(rng.UniformInt(uint64_t{kNodes}));
  };
  double t = -50.0;  // negative times included
  for (int batch = 0; batch < 60; ++batch) {
    const size_t num_records = 1 + rng.UniformInt(uint64_t{25});
    std::vector<InteractionRecord> records(num_records);
    std::vector<std::vector<graph::HopEntry>> hops(num_records);
    std::vector<int64_t> event_index(num_records);
    RecordRows rows;
    graph::HopRows hop_rows;
    for (size_t r = 0; r < num_records; ++r) {
      InteractionRecord& rec = records[r];
      t += rng.Uniform(0.0, 2.0);
      const graph::NodeId src = node();
      const graph::NodeId dst = rng.Bernoulli(0.15) ? src : node();
      rec.event = {src, dst, t,
                   static_cast<graph::EdgeId>(rng.UniformInt(uint64_t{64}))};
      rec.z_src.resize(kWide);
      rec.z_dst.resize(kWide);
      // Mixed magnitudes make any change of summation order visible.
      for (float& v : rec.z_src) {
        v = static_cast<float>(rng.Normal() *
                               std::pow(10.0, rng.Uniform(-3, 3)));
      }
      for (float& v : rec.z_dst) v = static_cast<float>(rng.Normal());
      if (!rng.Bernoulli(0.2)) {  // else: an empty expansion
        const size_t entries = 1 + rng.UniformInt(uint64_t{12});
        for (size_t k = 0; k < entries; ++k) {
          graph::NodeId v = node();
          if (rng.Bernoulli(0.25)) v = rng.Bernoulli(0.5) ? src : dst;
          hops[r].push_back({v, 0, t - 1.0, static_cast<int32_t>(1 + k % 2)});
        }
      }
      event_index[r] = static_cast<int64_t>(r);
      rows.events.push_back(rec.event);
      rows.event_index.push_back(event_index[r]);
      rows.z.insert(rows.z.end(), rec.z_src.begin(), rec.z_src.end());
      rows.z.insert(rows.z.end(), rec.z_dst.begin(), rec.z_dst.end());
      hop_rows.entries.insert(hop_rows.entries.end(), hops[r].begin(),
                              hops[r].end());
      hop_rows.EndRow();
    }

    reference.DeliverBatch(
        ReferenceDeliveries(records, hops, features, kWide));

    PartialPropagation part =
        prop.ComputePartialFromHops(records, event_index, hops);
    std::vector<MailDelivery> adapted;
    for (auto& tagged : part.hop0) {
      adapted.push_back(std::move(tagged.delivery));
    }
    for (auto& p : part.partial) {
      adapted.push_back(MailPropagator::FinalizeReduce(std::move(p)));
    }
    adapter.DeliverBatch(std::move(adapted));

    prop.ComputePartialRows(rows, hop_rows, &scratch, &hop0, &partial);
    for (size_t i = 0; i < hop0.rows(); ++i) {
      flat.DeliverMail(hop0.node[i], hop0.Row(i), hop0.time[i]);
    }
    for (size_t i = 0; i < partial.rows(); ++i) {
      MailPropagator::FinalizeSum(partial.MutableRow(i), partial.count[i]);
      flat.DeliverMail(partial.node[i], partial.Row(i), partial.time[i]);
    }

    ExpectSameMailboxes(reference, adapter, kNodes, batch);
    ExpectSameMailboxes(reference, flat, kNodes, batch);
    if (HasFatalFailure()) return;
  }
}

TEST(MailPropagatorTest, DimensionMismatchRejectedAtConstruction) {
  graph::TemporalGraph g(3);
  graph::EdgeFeatureStore wrong(kDim + 1);
  ApanConfig cfg = Config(1);
  cfg.num_nodes = 3;
  EXPECT_DEATH(MailPropagator(cfg, &g, &wrong), "mail dim");
}

}  // namespace
}  // namespace core
}  // namespace apan
