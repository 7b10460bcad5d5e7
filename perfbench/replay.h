// The benchmark's sequential oracle: a thread-free replay of the stream
// through the public core/graph calls, one batch at a time, with no
// staleness (every batch's mail lands before the next batch encodes).
//
// Two paths run the same arithmetic:
//   StepComposed  ApanModel::EncodeNodes + ScoreLinkLogits +
//                 ProcessBatchPostInference — the model's own composition;
//   StepTraced    the calls those compose (state read, encoder forward,
//                 decoder, state write, k-hop sampling, propagation,
//                 mailbox delivery, graph append), each wrapped in a span
//                 so the replay attributes its time layer by layer.
// bench_stats_test.cc checks the two are bitwise equal.

#ifndef APAN_PERFBENCH_REPLAY_H_
#define APAN_PERFBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/apan_model.h"
#include "graph/edge_features.h"
#include "graph/temporal_graph.h"
#include "perfbench/bench_stats.h"

namespace apan {
namespace perfbench {

/// In-memory span log; written out once the run ends.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}
  /// Opens a span and returns its index (the parent of nested spans).
  int Begin(const char* name, int64_t batch, int parent) {
    spans_.push_back({name, NowMs(), 0.0, parent, batch});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_ms = NowMs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  using Clock = std::chrono::steady_clock;
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Work counts of the traced replay (denominators of the layer ratios).
struct ReplayCounts {
  int64_t batches = 0;
  int64_t events = 0;
  int64_t unique_nodes = 0;     ///< Nodes encoded, summed over batches.
  int64_t read_bytes = 0;       ///< State bytes read, from tensor shapes.
  int64_t hop_entries = 0;      ///< k-hop samples drawn.
  int64_t deliveries = 0;       ///< Mails delivered (hop 0 + reduced).
};

class SequentialReplay {
 public:
  SequentialReplay(const core::ApanConfig& config,
                   const graph::EdgeFeatureStore* features, uint64_t seed);

  /// Scores `batch` and applies its mail through the model's composed
  /// public calls. Returns one probability per event.
  std::vector<float> StepComposed(const std::vector<graph::Event>& batch);

  /// The same batch through the individual layer calls, recording one
  /// root span per batch and one child span per layer call.
  std::vector<float> StepTraced(const std::vector<graph::Event>& batch,
                                SpanRecorder* recorder);

  const core::ApanModel& model() const { return model_; }
  const ReplayCounts& counts() const { return counts_; }

 private:
  core::ApanModel model_;
  ReplayCounts counts_;
};

}  // namespace perfbench
}  // namespace apan

#endif  // APAN_PERFBENCH_REPLAY_H_
