#include "serve/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <thread>

#include "data/synthetic.h"
#include "serve_state_util.h"
#include "tensor/kernels.h"

namespace apan {
namespace serve {
namespace {

using testutil::ExpectModelStateUntouched;
using testutil::ExpectStitchedMailboxEqual;
using testutil::ExpectStitchedPayloadsNear;
using testutil::SequentialOracle;

struct Fixture {
  Fixture()
      : dataset(*data::GenerateSynthetic(
            data::SyntheticConfig::WikipediaLike().Scaled(0.05))) {
    config.num_nodes = dataset.num_nodes;
    config.embedding_dim = dataset.feature_dim();
    config.mailbox_slots = 5;
    config.sampled_neighbors = 5;
    config.propagation_hops = 1;
    config.dropout = 0.0f;
  }

  std::vector<graph::Event> BatchEvents(size_t lo, size_t hi) const {
    return std::vector<graph::Event>(dataset.events.begin() + lo,
                                     dataset.events.begin() + hi);
  }

  data::Dataset dataset;
  core::ApanConfig config;
};

// ---- ShardedEngine: functional ---------------------------------------------

TEST(ShardedEngineTest, ScoresEveryEvent) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 1);
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&model, options);
  auto result = engine.InferBatch(f.BatchEvents(0, 50));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->scores.size(), 50u);
  for (float s : result->scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
  engine.Flush();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches_ingested, 1);
  EXPECT_EQ(stats.batches_propagated, 1);
  EXPECT_GT(stats.mails_routed, 0);
  EXPECT_EQ(stats.mails_dropped, 0);
}

// The determinism claim: cross-shard mail arrives out of order by
// construction, yet after Flush() the engine's per-shard stores, stitched
// by ownership, hold mailbox timestamps and counts bitwise-identical to
// the thread-free sequential oracle on the same stream (sequence-tagged
// replay restores per-node delivery order, and ρ is finalized over the
// whole batch after merging every shard's partials). A free-running
// engine encodes against mailboxes that in-flight batches have not yet
// reached, so only counts and timestamps are stream-determined here;
// the flush-stepped tests below also compare scores and payloads.

/// Free-running: no flush between batches, so cross-shard interleavings
/// genuinely occur while the stream is in flight.
void ExpectFreeRunningMatchesOracle(int num_shards, int hops,
                                    size_t num_events) {
  Fixture f;
  f.config.propagation_hops = hops;
  SequentialOracle oracle(f.config, &f.dataset.features, 7);
  core::ApanModel sharded(f.config, &f.dataset.features, 7);
  ShardedEngine::Options options;
  options.num_shards = num_shards;
  ShardedEngine engine(&sharded, options);
  for (size_t lo = 0; lo < num_events; lo += 50) {
    auto events = f.BatchEvents(lo, lo + 50);
    oracle.Step(events);
    ASSERT_TRUE(engine.InferBatch(events).ok());
  }
  engine.Flush();

  // The engine serves out of its own shard-local graph slices AND state
  // stores; the model's monolithic graph stays empty and its lazily-
  // allocated default store was never even materialized (weights are
  // accessed const-only — the strongest form of "untouched").
  EXPECT_EQ(sharded.graph().num_events(), 0);
  EXPECT_EQ(oracle.model().graph().num_events(),
            engine.sharded_graph().num_events());
  EXPECT_FALSE(sharded.state_store_allocated())
      << "engine materialized the model's state plane";
  ExpectModelStateUntouched(sharded, f.config.num_nodes);
  ExpectStitchedMailboxEqual(engine, oracle.model(), f.config.num_nodes,
                             /*min_nonempty=*/20);

  // Summed slice memory is ~1x the monolithic graph (each adjacency
  // occurrence lives in exactly one slice; entries carry one extra
  // ordinal), not num_shards x.
  const double slice_bytes =
      static_cast<double>(engine.sharded_graph().MemoryBytes());
  const double mono_bytes =
      static_cast<double>(oracle.model().graph().MemoryBytes());
  EXPECT_GT(slice_bytes, 0.9 * mono_bytes);
  EXPECT_LT(slice_bytes, 1.5 * mono_bytes);

  // Per-shard watermarks replaced the global epoch gate: after Flush every
  // slice has absorbed every accepted batch.
  const auto batches = static_cast<int64_t>(num_events / 50);
  for (int s = 0; s < num_shards; ++s) {
    EXPECT_EQ(engine.sharded_graph().watermark(s), batches) << "shard " << s;
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches_ingested, batches);
  EXPECT_EQ(stats.batches_propagated, batches);
  EXPECT_EQ(stats.batches_rejected, 0);
  EXPECT_EQ(stats.batches_invalid, 0);
  if (num_shards == 1) {
    EXPECT_EQ(stats.mails_cross_shard, 0);
    EXPECT_EQ(stats.frontier_requests, 0);
  } else {
    EXPECT_GT(stats.mails_cross_shard, 0) << "shards must exchange mail";
    // Even 1-hop expansion crosses slices: an event's dst endpoint is
    // foreign for most events under a hash partition.
    EXPECT_GT(stats.frontier_requests, 0) << "expansion must cross slices";
    EXPECT_GT(stats.frontier_nodes_forwarded, 0);
  }
}

TEST(ShardedEngineTest, MatchesOracleMailboxBitwise) {
  ExpectFreeRunningMatchesOracle(/*num_shards=*/4, /*hops=*/1, 400);
}

TEST(ShardedEngineTest, MatchesOracleBitwiseTwoHops) {
  // Two-hop fan-out: hop-2 frontiers routinely land on nodes owned by a
  // third shard, so the frontier-forwarding protocol (request → owner
  // slice sample → response, slot-tag reassembly) is exercised across
  // chained foreign hops.
  ExpectFreeRunningMatchesOracle(/*num_shards=*/4, /*hops=*/2, 300);
}

TEST(ShardedEngineTest, FreeRunningMatchesOracleAcrossShardCounts) {
  for (const int shards : {1, 2}) {
    for (const int hops : {1, 2}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, " << hops
                                      << " hops");
      ExpectFreeRunningMatchesOracle(shards, hops, 300);
    }
  }
}

/// Flush-stepped: a Flush between batches makes every encode read fully
/// settled state, exactly as the oracle does, so scores and raw mail
/// payloads are comparable too. `prepare` (optional) runs on both models
/// before serving starts. Returns the largest score gap.
double RunFlushStepped(
    const Fixture& f, int num_shards, float tolerance,
    const std::function<void(const core::ApanModel&)>& prepare = nullptr) {
  SequentialOracle oracle(f.config, &f.dataset.features, 3);
  core::ApanModel sharded(f.config, &f.dataset.features, 3);
  if (prepare) {
    prepare(oracle.model());
    prepare(sharded);
  }
  ShardedEngine::Options options;
  options.num_shards = num_shards;
  ShardedEngine engine(&sharded, options);
  double max_gap = 0.0;
  for (size_t lo = 0; lo < 600; lo += 50) {
    auto events = f.BatchEvents(lo, lo + 50);
    const std::vector<float> expected = oracle.Step(events);
    auto got = engine.InferBatch(events);
    EXPECT_TRUE(got.ok()) << got.status();
    if (!got.ok()) return max_gap;
    EXPECT_EQ(got->scores.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      max_gap = std::max(
          max_gap, static_cast<double>(std::abs(got->scores[i] - expected[i])));
    }
    engine.Flush();
  }
  ExpectStitchedMailboxEqual(engine, oracle.model(), f.config.num_nodes,
                             /*min_nonempty=*/20);
  ExpectStitchedPayloadsNear(engine, oracle.model(), f.config.num_nodes,
                             tolerance);
  return max_gap;
}

TEST(ShardedEngineTest, SingleShardFlushSteppedMatchesOracleBitwise) {
  // One shard is the paper's single-worker deployment: every reduction
  // runs in the oracle's order, so scores, raw payloads, counts and
  // timestamps agree with no tolerance.
  for (const int hops : {1, 2}) {
    SCOPED_TRACE(testing::Message() << hops << " hops");
    Fixture f;
    f.config.mailbox_slots = 8;
    f.config.propagation_hops = hops;
    EXPECT_EQ(RunFlushStepped(f, /*num_shards=*/1, /*tolerance=*/0.0f), 0.0);
  }
}

/// Sets the Eq. 7 link calibration through the model's parameters
/// (link_scale {1, 1} and link_bias {1} are the first two registered).
void SetLinkCalibration(const core::ApanModel& model, float scale,
                        float bias) {
  std::vector<tensor::Tensor> params = model.Parameters();
  ASSERT_GE(params.size(), 2u);
  ASSERT_EQ(params[0].shape(), (tensor::Shape{1, 1}));
  ASSERT_EQ(params[1].shape(), (tensor::Shape{1}));
  params[0].data()[0] = scale;
  params[1].data()[0] = bias;
}

TEST(ShardedEngineTest, CalibratedDecoderMatchesOracleBitwise) {
  // Every other serve test keeps link_scale = 1 and link_bias = 0, where
  // a decoder that dropped the calibration would still pass.
  constexpr float kScale = 1.75f;
  constexpr float kBias = -0.375f;
  Fixture f;
  f.config.mailbox_slots = 8;
  EXPECT_EQ(RunFlushStepped(f, /*num_shards=*/1, /*tolerance=*/0.0f,
                            [&](const core::ApanModel& model) {
                              SetLinkCalibration(model, kScale, kBias);
                            }),
            0.0);

  // The engine and the oracle share the inference decoder, so hold that
  // decoder to the training graph's arithmetic too: same logits, and not
  // the uncalibrated ones.
  core::ApanModel model(f.config, &f.dataset.features, 3);
  SetLinkCalibration(model, kScale, kBias);
  Rng rng(5);
  const int64_t d = f.config.embedding_dim;
  const tensor::Tensor z_src = tensor::Tensor::Randn({16, d}, &rng);
  const tensor::Tensor z_dst = tensor::Tensor::Randn({16, d}, &rng);
  const tensor::Tensor graph = model.ScoreLinkLogits(z_src, z_dst);
  tensor::NoGradGuard no_grad;
  const tensor::Tensor fused = model.ScoreLinkLogits(z_src, z_dst);
  ASSERT_EQ(fused.shape(), graph.shape());
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(fused.item(i), graph.item(i), 1e-5f) << "row " << i;
    const float uncalibrated =
        tensor::kernels::Dot(z_src.data() + i * d, z_dst.data() + i * d, d) *
        inv_sqrt_d;
    EXPECT_NEAR(fused.item(i), uncalibrated * kScale + kBias, 1e-5f)
        << "row " << i;
  }
}

TEST(ShardedEngineTest, FlushSteppedPayloadsAndScoresTrackOracle) {
  // Across shards, ρ sums of one recipient are merged from several
  // senders, so payloads and scores agree up to floating-point summation
  // order.
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    Fixture f;
    f.config.mailbox_slots = 8;
    EXPECT_LT(RunFlushStepped(f, shards, /*tolerance=*/1e-3f), 1e-3);
  }
}

TEST(ShardedEngineTest, RepeatedRunsAreDeterministic) {
  Fixture f;
  std::vector<float> first_scores;
  for (int run = 0; run < 2; ++run) {
    core::ApanModel model(f.config, &f.dataset.features, 5);
    ShardedEngine::Options options;
    options.num_shards = 4;
    ShardedEngine engine(&model, options);
    std::vector<float> scores;
    for (size_t lo = 0; lo < 200; lo += 50) {
      auto result = engine.InferBatch(f.BatchEvents(lo, lo + 50));
      ASSERT_TRUE(result.ok());
      scores.insert(scores.end(), result->scores.begin(),
                    result->scores.end());
      engine.Flush();  // settle state so scores are timing-independent
    }
    if (run == 0) {
      first_scores = std::move(scores);
    } else {
      ASSERT_EQ(first_scores.size(), scores.size());
      for (size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(first_scores[i], scores[i]) << "score " << i;
      }
    }
  }
}

// ---- ShardedEngine: lifecycle + overload -----------------------------------

TEST(ShardedEngineTest, ShutdownRejectsFurtherWork) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 6);
  ShardedEngine::Options options;
  options.num_shards = 2;
  ShardedEngine engine(&model, options);
  ASSERT_TRUE(engine.InferBatch(f.BatchEvents(0, 10)).ok());
  engine.Shutdown();
  auto r = engine.InferBatch(f.BatchEvents(10, 20));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  engine.Shutdown();  // idempotent
}

TEST(ShardedEngineTest, ShutdownDrainsAcceptedWork) {
  // Shutdown without a prior Flush must still apply every accepted
  // batch's mail (the engine drains before stopping the workers).
  Fixture f;
  core::ApanModel drained(f.config, &f.dataset.features, 9);
  SequentialOracle oracle(f.config, &f.dataset.features, 9);
  for (size_t lo = 0; lo < 200; lo += 50) {
    oracle.Step(f.BatchEvents(lo, lo + 50));
  }
  ShardedEngine::Options options;
  options.num_shards = 4;
  ShardedEngine engine(&drained, options);
  for (size_t lo = 0; lo < 200; lo += 50) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + 50)).ok());
  }
  engine.Shutdown();  // no Flush first
  // The stores outlive Shutdown (they die with the engine), so drained
  // state is still inspectable here.
  ExpectStitchedMailboxEqual(engine, oracle.model(), f.config.num_nodes,
                             /*min_nonempty=*/20);
}

TEST(ShardedEngineTest, DropPolicyAccountsEveryRecord) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 8);
  ShardedEngine::Options options;
  options.num_shards = 2;
  options.queue_capacity = 1;
  options.overflow = OverflowPolicy::kDropNewest;
  ShardedEngine engine(&model, options);
  const size_t batch = 25;
  size_t pushed = 0;
  for (size_t lo = 0; lo + batch <= 400; lo += batch) {
    ASSERT_TRUE(engine.InferBatch(f.BatchEvents(lo, lo + batch)).ok());
    pushed += batch;
  }
  engine.Flush();
  const auto stats = engine.stats();
  // Whether a given batch was dropped is timing-dependent, but every
  // record is accounted for exactly once: propagated or dropped.
  EXPECT_EQ(stats.batches_propagated * static_cast<int64_t>(batch) +
                stats.mails_dropped,
            static_cast<int64_t>(pushed));
  EXPECT_EQ(stats.batches_propagated, stats.batches_ingested);
  // Refused batches are visible, not silent: the rejection counter
  // reconciles attempts against ingested, and mails_dropped is exactly
  // the rejected batches' records.
  EXPECT_EQ(stats.batches_ingested + stats.batches_rejected,
            static_cast<int64_t>(pushed / batch));
  EXPECT_EQ(stats.mails_dropped,
            stats.batches_rejected * static_cast<int64_t>(batch));
}

TEST(ShardedEngineTest, ConcurrentFlushInferShutdownStress) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 13);
  ShardedEngine::Options options;
  options.num_shards = 4;
  options.queue_capacity = 2;  // exercise back-pressure
  ShardedEngine engine(&model, options);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> accepted{0};
  // One producer keeps the stream-order contract; flushers and shutdowns
  // interleave against it.
  std::thread producer([&] {
    for (size_t lo = 0; lo + 20 <= 400; lo += 20) {
      auto r = engine.InferBatch(f.BatchEvents(lo, lo + 20));
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
        break;
      }
      accepted.fetch_add(1);
    }
    stop.store(true);
  });
  std::vector<std::thread> flushers;
  for (int t = 0; t < 2; ++t) {
    flushers.emplace_back([&] {
      while (!stop.load()) engine.Flush();
      engine.Flush();
    });
  }
  producer.join();
  for (auto& th : flushers) th.join();
  // Two racing shutdowns: the second must wait for (not skip) the first.
  std::thread s1([&] { engine.Shutdown(); });
  std::thread s2([&] { engine.Shutdown(); });
  s1.join();
  s2.join();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches_ingested, accepted.load());
  EXPECT_EQ(stats.batches_propagated, accepted.load());
}

TEST(ShardedEngineTest, ZeroQueueCapacityIsClamped) {
  // capacity = 0 must behave like capacity = 1, not wedge kBlock
  // back-pressure forever.
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 6);
  ShardedEngine::Options options;
  options.num_shards = 2;
  options.queue_capacity = 0;
  ShardedEngine engine(&model, options);
  ASSERT_TRUE(engine.InferBatch(f.BatchEvents(0, 20)).ok());
  ASSERT_TRUE(engine.InferBatch(f.BatchEvents(20, 40)).ok());
  engine.Flush();
  EXPECT_EQ(engine.stats().batches_propagated, 2);
}

TEST(ShardedEngineTest, EmptyBatchRejected) {
  Fixture f;
  core::ApanModel model(f.config, &f.dataset.features, 6);
  ShardedEngine engine(&model, {});
  EXPECT_TRUE(engine.InferBatch({}).status().IsInvalidArgument());
  EXPECT_EQ(engine.stats().batches_invalid, 1);
}

// ---- ShardedEngine: ingress validation --------------------------------------

/// Feeds a 2-shard engine one valid batch, then a copy of the next batch
/// corrupted by `corrupt`: the corrupt batch must come back
/// InvalidArgument with nothing ingested, and the same batch uncorrupted
/// must then be served and flushed exactly as the oracle serves it.
using Corruption =
    std::function<void(const Fixture&, std::vector<graph::Event>*)>;

void ExpectCorruptBatchRejected(const Corruption& corrupt) {
  Fixture f;
  SequentialOracle oracle(f.config, &f.dataset.features, 12);
  core::ApanModel model(f.config, &f.dataset.features, 12);
  ShardedEngine::Options options;
  options.num_shards = 2;
  ShardedEngine engine(&model, options);

  const auto first = f.BatchEvents(0, 100);
  oracle.Step(first);
  ASSERT_TRUE(engine.InferBatch(first).ok());

  const auto next = f.BatchEvents(100, 120);
  auto bad = next;
  corrupt(f, &bad);
  auto rejected = engine.InferBatch(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument()) << rejected.status();

  ASSERT_TRUE(engine.InferBatch(next).ok());
  oracle.Step(next);
  engine.Flush();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches_invalid, 1);
  EXPECT_EQ(stats.batches_ingested, 2);
  EXPECT_EQ(stats.batches_propagated, 2);
  ExpectStitchedMailboxEqual(engine, oracle.model(), f.config.num_nodes);
}

TEST(ShardedEngineIngressTest, NodeIdOutOfRange) {
  ExpectCorruptBatchRejected([](const Fixture& f, auto* batch) {
    (*batch)[7].dst = f.config.num_nodes;
  });
  ExpectCorruptBatchRejected(
      [](const Fixture&, auto* batch) { (*batch)[7].src = -1; });
}

TEST(ShardedEngineIngressTest, EdgeIdOutOfRange) {
  ExpectCorruptBatchRejected([](const Fixture& f, auto* batch) {
    (*batch)[7].edge_id = f.dataset.features.num_edges();
  });
}

TEST(ShardedEngineIngressTest, TimestampBeforePreviousBatch) {
  // The batch is internally ordered; only the bound carried over from
  // the previous batch catches it.
  ExpectCorruptBatchRejected([](const Fixture& f, auto* batch) {
    (*batch)[0].timestamp = f.dataset.events[99].timestamp - 1.0;
  });
}

TEST(ShardedEngineIngressTest, TimestampDecreasesWithinBatch) {
  // Every time is past the previous batch; event 8 precedes event 7.
  ExpectCorruptBatchRejected([](const Fixture&, auto* batch) {
    (*batch)[7].timestamp = batch->back().timestamp + 1.0;
  });
}

TEST(ShardedEngineIngressTest, NonFiniteTimestamp) {
  ExpectCorruptBatchRejected([](const Fixture&, auto* batch) {
    (*batch)[7].timestamp = std::numeric_limits<double>::quiet_NaN();
  });
  ExpectCorruptBatchRejected([](const Fixture&, auto* batch) {
    (*batch)[7].timestamp = std::numeric_limits<double>::infinity();
  });
}

TEST(ShardedEngineIngressTest, NegativeEdgeIdResolvesToOrdinal) {
  // A negative edge id stands for the event's global ordinal, so it is
  // served while that ordinal indexes a feature row and refused after.
  Fixture f;
  graph::EdgeFeatureStore features(f.dataset.features.dim());
  const auto dim = static_cast<size_t>(features.dim());
  for (graph::EdgeId id = 0; id < 25; ++id) {
    const float* row = f.dataset.features.Row(id);
    features.Append(std::vector<float>(row, row + dim));
  }
  core::ApanModel model(f.config, &features, 12);
  ShardedEngine::Options options;
  options.num_shards = 2;
  ShardedEngine engine(&model, options);
  auto unlabeled = f.BatchEvents(0, 30);
  for (graph::Event& e : unlabeled) e.edge_id = -1;
  const std::vector<graph::Event> first(unlabeled.begin(),
                                        unlabeled.begin() + 20);
  const std::vector<graph::Event> overflow(unlabeled.begin() + 20,
                                           unlabeled.end());
  const std::vector<graph::Event> fits(unlabeled.begin() + 20,
                                       unlabeled.begin() + 25);
  ASSERT_TRUE(engine.InferBatch(first).ok());     // ordinals 0..19
  EXPECT_TRUE(engine.InferBatch(overflow).status().IsInvalidArgument());
  ASSERT_TRUE(engine.InferBatch(fits).ok());      // ordinals 20..24
  engine.Flush();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches_propagated, 2);
  EXPECT_EQ(stats.batches_invalid, 1);
  EXPECT_EQ(engine.sharded_graph().num_events(), 25);
}

}  // namespace
}  // namespace serve
}  // namespace apan
