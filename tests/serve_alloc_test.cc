// Heap allocations per event on a warmed ShardedEngine.
//
// The asynchronous link keeps its per-batch scratch in worker-reused
// buffers and moves mail as flat blocks, so once warm, a batch costs a
// roughly fixed number of allocations whatever its size. This test
// counts global operator new across every thread and bounds the
// *marginal* cost: batches of 200 events against batches of 20 on the
// same engine, so fixed per-batch costs cancel out.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "data/synthetic.h"
#include "serve/sharded_engine.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace apan {
namespace serve {
namespace {

/// Largest marginal heap allocations per event the asynchronous link may
/// cost once warm.
constexpr double kMaxAllocationsPerEvent = 3.0;

struct AllocCase {
  int shards;
  int32_t hops;
};

class AllocTest : public ::testing::TestWithParam<AllocCase> {};

TEST_P(AllocTest, MarginalAllocationsPerEventAreBounded) {
  const AllocCase param = GetParam();
  data::SyntheticConfig synthetic;
  synthetic.num_users = 400;
  synthetic.num_items = 200;
  synthetic.num_events = 24000;
  synthetic.feature_dim = 16;
  const data::Dataset dataset = *data::GenerateSynthetic(synthetic);

  core::ApanConfig config;
  config.num_nodes = dataset.num_nodes;
  config.embedding_dim = dataset.feature_dim();
  config.mailbox_slots = 5;
  config.sampled_neighbors = 5;
  config.propagation_hops = param.hops;
  config.dropout = 0.0f;
  core::ApanModel model(config, &dataset.features, /*seed=*/7);
  ShardedEngine::Options options;
  options.num_shards = param.shards;
  options.stage_metrics = false;
  ShardedEngine engine(&model, options);

  size_t cursor = 0;
  // Runs `batches` batches of `size` events, each flushed, and returns
  // the heap allocations all threads made meanwhile.
  const auto run = [&](size_t size, int batches) {
    const int64_t before = g_allocations.load();
    for (int b = 0; b < batches; ++b) {
      const std::vector<graph::Event> events(
          dataset.events.begin() + static_cast<std::ptrdiff_t>(cursor),
          dataset.events.begin() + static_cast<std::ptrdiff_t>(cursor + size));
      cursor += size;
      EXPECT_TRUE(engine.InferBatch(events).ok());
      engine.Flush();
    }
    return g_allocations.load() - before;
  };

  // Warm-up: every worker buffer grows to the largest batch it will see,
  // and the graph slices' adjacency rows get past their first doublings.
  run(200, 40);
  run(20, 20);

  constexpr int kBatches = 20;
  const int64_t small = run(20, kBatches);
  const int64_t large = run(200, kBatches);
  const double per_event =
      static_cast<double>(large - small) / (kBatches * (200.0 - 20.0));
  RecordProperty("allocations_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, kMaxAllocationsPerEvent)
      << param.shards << " shard(s), " << param.hops << " hop(s): " << small
      << " allocations for " << kBatches << " batches of 20, " << large
      << " for " << kBatches << " batches of 200";
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndHops, AllocTest,
    ::testing::Values(AllocCase{1, 1}, AllocCase{1, 2}, AllocCase{2, 1},
                      AllocCase{2, 2}),
    [](const ::testing::TestParamInfo<AllocCase>& info) {
      return std::to_string(info.param.shards) + "shards_" +
             std::to_string(info.param.hops) + "hops";
    });

}  // namespace
}  // namespace serve
}  // namespace apan
