// Tests of the benchmark's own arithmetic on hand-built inputs, and of
// the oracle's two replay paths agreeing bitwise.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "data/synthetic.h"
#include "perfbench/bench_stats.h"
#include "perfbench/replay.h"

namespace apan {
namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailRule, P99OfAThousandHasTenBeyond) {
  std::vector<double> v = OneTo(1000);
  std::reverse(v.begin(), v.end());  // order must not matter
  const Percentile p = NearestRank(v, 0.99);
  EXPECT_EQ(p.value, 990.0);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(TailSupported(p));
}

TEST(TailRule, OneSampleShortFailsTheRule) {
  const Percentile p = NearestRank(OneTo(999), 0.99);
  EXPECT_EQ(p.value, 990.0);  // ceil(989.01) = 990
  EXPECT_EQ(p.beyond, 9u);
  EXPECT_FALSE(TailSupported(p));
}

TEST(TailRule, MedianAndEdges) {
  EXPECT_EQ(NearestRank(OneTo(1000), 0.50).value, 500.0);
  EXPECT_EQ(NearestRank({7.0}, 0.99).value, 7.0);
  EXPECT_EQ(NearestRank({7.0}, 0.99).beyond, 0u);
  const Percentile empty = NearestRank({}, 0.99);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(TailSupported(empty));
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(TailRule, WindowedIsTheMedianOfWindowPercentiles) {
  // Three windows of 1,100: p99 per window is 1089, 2189, and 101089
  // for the window shifted by 100,000 — one outlier window.
  std::vector<double> v;
  for (const double shift : {0.0, 1100.0, 100000.0}) {
    for (int i = 1; i <= 1100; ++i) v.push_back(shift + i);
  }
  const WindowedPercentile p = NearestRankWindowed(v, 0.99, 1100);
  EXPECT_EQ(p.windows, 3u);
  EXPECT_EQ(p.value, 2189.0);
  EXPECT_EQ(p.smallest.samples, 1100u);
  EXPECT_EQ(p.smallest.beyond, 11u);
}

TEST(TailRule, WindowedFoldsAShortTailIntoTheLastWindow) {
  const WindowedPercentile p = NearestRankWindowed(OneTo(2500), 0.50, 1100);
  EXPECT_EQ(p.windows, 2u);  // 1,100 + 1,400
  EXPECT_EQ(p.smallest.samples, 1100u);
  // Window medians 550 and 1100 + 700 = 1800.
  EXPECT_EQ(p.value, 0.5 * (550.0 + 1800.0));
  EXPECT_EQ(NearestRankWindowed(OneTo(10), 0.5, 1100).windows, 1u);
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 0},
      {"a", 1.0, 3.0, 0, 0},
      {"b", 2.0, 5.0, 0, 0},    // overlaps a: [1, 5] counted once
      {"c", 8.0, 12.0, 0, 0},   // runs past the root: clipped to [8, 10]
      {"leaf", 2.5, 4.0, 2, 0}, // child of b
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 1.5);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.5);
}

TEST(SpanSelfTime, AggregatesByName) {
  std::vector<Span> spans = {
      {"batch", 0.0, 4.0, -1, 0}, {"read", 0.0, 1.0, 0, 0},
      {"batch", 4.0, 9.0, -1, 1}, {"read", 4.0, 6.0, 2, 1},
  };
  const auto by_name = SelfTimeByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("read"), 3.0);
  EXPECT_DOUBLE_EQ(by_name.at("batch"), 3.0 + 3.0);
}

TEST(ApplyLag, FirstPollAfterReturnThatCoversTheBatch) {
  ApplyLagTracker lag;
  lag.OnReturn(0, 1.0);
  lag.OnPoll(1.5, 0);  // nothing applied yet
  lag.OnReturn(1, 2.0);
  lag.OnPoll(2.5, 1);  // batch 0 applied: lag 1.5
  lag.OnReturn(2, 3.0);
  lag.OnPoll(2.75, 3);  // covers 1; batch 2 not returned by 2.75
  EXPECT_FALSE(lag.Complete());
  lag.OnPoll(3.25, 3);
  ASSERT_TRUE(lag.Complete());
  ASSERT_EQ(lag.lags_ms().size(), 3u);
  EXPECT_DOUBLE_EQ(lag.lags_ms()[0], 1.5);
  EXPECT_DOUBLE_EQ(lag.lags_ms()[1], 0.75);
  EXPECT_DOUBLE_EQ(lag.lags_ms()[2], 0.25);
}

TEST(ApplyLag, CounterJumpResolvesEveryCoveredBatch) {
  ApplyLagTracker lag;
  for (int b = 0; b < 4; ++b) lag.OnReturn(b, static_cast<double>(b));
  lag.OnPoll(10.0, 2);
  EXPECT_EQ(lag.lags_ms().size(), 2u);
  lag.OnPoll(11.0, 4);
  ASSERT_TRUE(lag.Complete());
  EXPECT_EQ(lag.lags_ms(), (std::vector<double>{10.0, 9.0, 9.0, 8.0}));
}

TEST(PeakRss, ParsesVmHwmInKilobytes) {
  const char* status =
      "Name:\tserve_bench\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\n"
      "VmRSS:\t  1024 kB\n";
  ASSERT_TRUE(ParsePeakRssMb(status).has_value());
  EXPECT_DOUBLE_EQ(*ParsePeakRssMb(status), 200.0);
  EXPECT_DOUBLE_EQ(*ParsePeakRssMb("VmHWM: 1536 kB"), 1.5);
}

TEST(PeakRss, RejectsMissingOrMalformedLines) {
  EXPECT_FALSE(ParsePeakRssMb("VmRSS:\t 1024 kB\n").has_value());
  EXPECT_FALSE(ParsePeakRssMb("VmHWM:\t abc kB\n").has_value());
  EXPECT_FALSE(ParsePeakRssMb("VmHWM:\t 12 MB\n").has_value());
  EXPECT_FALSE(ParsePeakRssMb("").has_value());
}

TEST(Replay, TracedPathIsBitwiseTheComposedPath) {
  data::SyntheticConfig sc = data::SyntheticConfig::WikipediaLike().Scaled(0.1);
  const data::Dataset ds = *data::GenerateSynthetic(sc);
  core::ApanConfig config;
  config.num_nodes = ds.num_nodes;
  config.embedding_dim = ds.feature_dim();
  config.propagation_hops = 2;
  config.dropout = 0.0f;
  SequentialReplay composed(config, &ds.features, 5);
  SequentialReplay traced(config, &ds.features, 5);
  SpanRecorder recorder;
  const size_t batch = 50;
  for (size_t lo = 0; lo + batch <= ds.events.size(); lo += batch) {
    const std::vector<graph::Event> events(ds.events.begin() + lo,
                                           ds.events.begin() + lo + batch);
    EXPECT_EQ(composed.StepComposed(events),
              traced.StepTraced(events, &recorder));
  }
  const core::NodeStateStore& a = composed.model().state_store();
  const core::NodeStateStore& b = traced.model().state_store();
  int64_t nonempty = 0;
  for (graph::NodeId v = 0; v < config.num_nodes; ++v) {
    ASSERT_EQ(a.ValidCount(v), b.ValidCount(v)) << "node " << v;
    ASSERT_EQ(a.LastEmbedding(v), b.LastEmbedding(v)) << "node " << v;
    if (a.ValidCount(v) == 0) continue;
    ++nonempty;
    ASSERT_EQ(a.NewestTimestamp(v), b.NewestTimestamp(v)) << "node " << v;
    for (int64_t s = 0; s < a.ValidCount(v); ++s) {
      const auto x = a.RawSlot(v, s);
      const auto y = b.RawSlot(v, s);
      ASSERT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
          << "node " << v << " slot " << s;
    }
  }
  EXPECT_GT(nonempty, 10);
  EXPECT_EQ(traced.counts().batches, composed.counts().batches);
  EXPECT_GT(traced.counts().hop_entries, 0);
  EXPECT_GT(traced.counts().deliveries, traced.counts().events);

  // One root span per batch; every layer span hangs off its batch's root.
  const auto& spans = recorder.spans();
  int64_t roots = 0;
  for (const Span& s : spans) {
    if (s.parent < 0) {
      ++roots;
      continue;
    }
    const Span& root = spans[static_cast<size_t>(s.parent)];
    EXPECT_EQ(root.name, "oracle.batch");
    EXPECT_EQ(root.batch, s.batch);
    EXPECT_GE(s.start_ms, root.start_ms);
    EXPECT_LE(s.end_ms, root.end_ms);
  }
  EXPECT_EQ(roots, traced.counts().batches);
}

}  // namespace
}  // namespace perfbench
}  // namespace apan
