// Shared test helpers for the serving engine: a thread-free sequential
// oracle, and stitched-mailbox equality between a ShardedEngine's
// per-shard NodeStateStores and the oracle's monolithic mailbox.
//
// After the state-plane split the engine's served state lives in N
// disjoint per-shard stores, not in the model. Determinism is asserted by
// *stitching*: for every node, read the owner shard's store and compare
// against the oracle — counts and timestamps must match bitwise (no
// tolerance). The oracle has no threads, so it cannot share a concurrency
// bug with the engine. Used by serve_sharded_test, serve_transport_test,
// serve_state_test and serve_recovery_test.

#ifndef APAN_TESTS_SERVE_STATE_UTIL_H_
#define APAN_TESTS_SERVE_STATE_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/apan_model.h"
#include "serve/sharded_engine.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace apan {
namespace serve {
namespace testutil {

/// \brief The thread-free sequential oracle: one ApanModel stepped batch
/// by batch on the calling thread. Per batch it dedups the nodes in
/// first-appearance order, encodes them (EncodeNodes), scores every event
/// (ScoreLinkLogits + Sigmoid), then completes the batch
/// (ProcessBatchPostInference) before the next one is encoded — exactly
/// a ShardedEngine that is flushed after every batch.
class SequentialOracle {
 public:
  /// Same (config, features, seed) as the engine's model gives the same
  /// weights.
  SequentialOracle(const core::ApanConfig& config,
                   const graph::EdgeFeatureStore* features, uint64_t seed)
      : model_(std::make_unique<core::ApanModel>(config, features, seed)) {
    model_->SetTraining(false);
  }

  /// Scores `events` and applies them; returns P(edge) per event.
  std::vector<float> Step(const std::vector<graph::Event>& events) {
    tensor::NoGradGuard no_grad;
    tensor::ArenaScope arena;
    std::vector<graph::NodeId> nodes;
    std::unordered_map<graph::NodeId, int64_t> row_of;
    std::vector<int64_t> src_rows, dst_rows;
    auto intern = [&](graph::NodeId v) {
      const auto [it, inserted] =
          row_of.try_emplace(v, static_cast<int64_t>(nodes.size()));
      if (inserted) nodes.push_back(v);
      return it->second;
    };
    for (const graph::Event& e : events) {
      src_rows.push_back(intern(e.src));
      dst_rows.push_back(intern(e.dst));
    }
    const core::ApanEncoder::Output out = model_->EncodeNodes(nodes);
    const tensor::Tensor probs = tensor::Sigmoid(
        model_->ScoreLinkLogits(tensor::GatherRows(out.embeddings, src_rows),
                                tensor::GatherRows(out.embeddings, dst_rows)));
    std::vector<float> scores(probs.data(), probs.data() + probs.numel());

    const int64_t d = model_->config().embedding_dim;
    const float* flat = out.embeddings.data();
    std::vector<core::InteractionRecord> records(events.size());
    for (size_t i = 0; i < events.size(); ++i) {
      records[i].event = events[i];
      records[i].z_src.assign(flat + src_rows[i] * d,
                              flat + (src_rows[i] + 1) * d);
      records[i].z_dst.assign(flat + dst_rows[i] * d,
                              flat + (dst_rows[i] + 1) * d);
    }
    EXPECT_TRUE(model_->ProcessBatchPostInference(records).ok());
    return scores;
  }

  const core::ApanModel& model() const { return *model_; }

 private:
  std::unique_ptr<core::ApanModel> model_;
};

/// Asserts the engine's stitched per-shard mailbox state is bitwise-equal
/// (valid counts + time-sorted timestamps) to `reference`'s monolithic
/// mailbox (normally SequentialOracle::model()), and that at least
/// `min_nonempty` nodes actually hold mail (a trivially-empty comparison
/// must not pass). Call after Flush/Shutdown
/// while the engine is still alive (the stores live in the engine).
inline void ExpectStitchedMailboxEqual(const ShardedEngine& engine,
                                       const core::ApanModel& reference,
                                       int64_t num_nodes,
                                       int64_t min_nonempty = 10) {
  int64_t nonempty = 0;
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    const core::NodeStateStore& store =
        engine.state_store(engine.router().ShardOf(v));
    ASSERT_TRUE(store.Owns(v)) << "router/store ownership disagree, node " << v;
    ASSERT_EQ(store.ValidCount(v), reference.mailbox().ValidCount(v))
        << "node " << v;
    if (store.ValidCount(v) == 0) continue;
    ++nonempty;
    const auto ra = store.ReadBatch({v});
    const auto rb = reference.mailbox().ReadBatch({v});
    ASSERT_EQ(ra.counts[0], rb.counts[0]) << "node " << v;
    for (size_t i = 0; i < ra.timestamps.size(); ++i) {
      ASSERT_EQ(ra.timestamps[i], rb.timestamps[i])
          << "node " << v << " slot " << i;  // bitwise: no tolerance
    }
  }
  EXPECT_GT(nonempty, min_nonempty);
}

/// Asserts every stitched mailbox slot's raw payload matches `reference`
/// slot for slot (the ring sequence per node is the monolithic one, so
/// even raw storage order agrees). `tolerance` 0 means bitwise.
inline void ExpectStitchedPayloadsNear(const ShardedEngine& engine,
                                       const core::ApanModel& reference,
                                       int64_t num_nodes, float tolerance) {
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    const core::NodeStateStore& store =
        engine.state_store(engine.router().ShardOf(v));
    const int64_t count = reference.mailbox().ValidCount(v);
    ASSERT_EQ(count, store.ValidCount(v)) << "node " << v;
    for (int64_t slot = 0; slot < count; ++slot) {
      const auto a = reference.mailbox().RawSlot(v, slot);
      const auto b = store.RawSlot(v, slot);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        if (tolerance == 0.0f) {
          ASSERT_EQ(std::bit_cast<uint32_t>(a[i]),
                    std::bit_cast<uint32_t>(b[i]))
              << "node " << v << " slot " << slot << " dim " << i << ": "
              << a[i] << " vs " << b[i];
        } else {
          ASSERT_NEAR(a[i], b[i], tolerance)
              << "node " << v << " slot " << slot << " dim " << i;
        }
      }
    }
  }
}

/// Asserts the engine left the model's own mutable state untouched. The
/// strongest form holds when nothing else used the model monolithically:
/// the lazily-allocated default store was never even materialized. When
/// another actor did materialize it (e.g. offline training before
/// deployment), fall back to checking it holds no mail.
inline void ExpectModelStateUntouched(const core::ApanModel& model,
                                      int64_t num_nodes) {
  if (!model.state_store_allocated()) return;  // never materialized
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    ASSERT_EQ(model.mailbox().ValidCount(v), 0)
        << "engine wrote the model's mailbox, node " << v;
  }
}

}  // namespace testutil
}  // namespace serve
}  // namespace apan

#endif  // APAN_TESTS_SERVE_STATE_UTIL_H_
