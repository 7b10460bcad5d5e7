#include "perfbench/replay.h"

#include <unordered_map>
#include <utility>

#include "graph/sampling.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace apan {
namespace perfbench {

namespace {

/// Unique nodes of a batch in first-appearance order, plus each event's
/// src/dst row in that list — the engine's per-batch dedup (paper §3.2).
struct Dedup {
  std::vector<graph::NodeId> nodes;
  std::vector<int64_t> src_rows;
  std::vector<int64_t> dst_rows;
};

Dedup DedupNodes(const std::vector<graph::Event>& batch) {
  Dedup d;
  std::unordered_map<graph::NodeId, int64_t> index_of;
  auto intern = [&](graph::NodeId v) {
    auto [it, inserted] =
        index_of.try_emplace(v, static_cast<int64_t>(d.nodes.size()));
    if (inserted) d.nodes.push_back(v);
    return it->second;
  };
  for (const graph::Event& e : batch) {
    d.src_rows.push_back(intern(e.src));
    d.dst_rows.push_back(intern(e.dst));
  }
  return d;
}

std::vector<core::InteractionRecord> MakeRecords(
    const std::vector<graph::Event>& batch, const Dedup& d,
    const tensor::Tensor& embeddings, int64_t dim) {
  std::vector<core::InteractionRecord> records;
  records.reserve(batch.size());
  const float* flat = embeddings.data();
  for (size_t i = 0; i < batch.size(); ++i) {
    core::InteractionRecord rec;
    rec.event = batch[i];
    const float* zs = flat + d.src_rows[i] * dim;
    const float* zd = flat + d.dst_rows[i] * dim;
    rec.z_src.assign(zs, zs + dim);
    rec.z_dst.assign(zd, zd + dim);
    records.push_back(std::move(rec));
  }
  return records;
}

std::vector<float> ScoreProbabilities(const core::ApanModel& model,
                                      const tensor::Tensor& embeddings,
                                      const Dedup& d) {
  const tensor::Tensor z_src = tensor::GatherRows(embeddings, d.src_rows);
  const tensor::Tensor z_dst = tensor::GatherRows(embeddings, d.dst_rows);
  const tensor::Tensor probs =
      tensor::Sigmoid(model.ScoreLinkLogits(z_src, z_dst));
  return std::vector<float>(probs.data(), probs.data() + probs.numel());
}

/// RAII span around one layer call.
class Scoped {
 public:
  Scoped(SpanRecorder* rec, const char* name, int64_t batch, int parent)
      : rec_(rec), id_(rec->Begin(name, batch, parent)) {}
  ~Scoped() { rec_->End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace

SequentialReplay::SequentialReplay(const core::ApanConfig& config,
                                   const graph::EdgeFeatureStore* features,
                                   uint64_t seed)
    : model_(config, features, seed) {
  model_.SetTraining(false);
}

std::vector<float> SequentialReplay::StepComposed(
    const std::vector<graph::Event>& batch) {
  tensor::NoGradGuard no_grad;
  tensor::ArenaScope arena;
  const int64_t dim = model_.config().embedding_dim;
  const Dedup d = DedupNodes(batch);
  const core::ApanEncoder::Output out = model_.EncodeNodes(d.nodes);
  std::vector<float> scores = ScoreProbabilities(model_, out.embeddings, d);
  const auto records = MakeRecords(batch, d, out.embeddings, dim);
  APAN_CHECK(model_.ProcessBatchPostInference(records).ok());
  ++counts_.batches;
  counts_.events += static_cast<int64_t>(batch.size());
  counts_.unique_nodes += static_cast<int64_t>(d.nodes.size());
  return scores;
}

std::vector<float> SequentialReplay::StepTraced(
    const std::vector<graph::Event>& batch, SpanRecorder* recorder) {
  tensor::NoGradGuard no_grad;
  tensor::ArenaScope arena;
  const core::ApanConfig& config = model_.config();
  const int64_t dim = config.embedding_dim;
  const int64_t b = counts_.batches;
  Scoped root(recorder, "oracle.batch", b, -1);
  const int parent = root.id();
  core::NodeStateStore& store = model_.state_store();

  const Dedup d = DedupNodes(batch);
  tensor::Tensor last;
  core::Mailbox::ReadResult read;
  {
    Scoped span(recorder, "core.state.read", b, parent);
    last = store.GatherLastEmbeddings(d.nodes);
    read = store.ReadBatch(d.nodes);
  }
  core::ApanEncoder::Output out;
  {
    Scoped span(recorder, "core.encoder.forward", b, parent);
    out = model_.encoder().Forward(last, read);
  }
  std::vector<float> scores;
  {
    Scoped span(recorder, "core.decoder.score", b, parent);
    scores = ScoreProbabilities(model_, out.embeddings, d);
  }
  const auto records = MakeRecords(batch, d, out.embeddings, dim);
  {
    Scoped span(recorder, "core.state.write", b, parent);
    model_.ApplyEmbeddings(records);
  }
  std::vector<std::vector<graph::HopEntry>> hops(records.size());
  if (config.propagation_hops > 0) {
    Scoped span(recorder, "graph.sample", b, parent);
    for (size_t r = 0; r < records.size(); ++r) {
      const graph::Event& e = records[r].event;
      hops[r] = graph::KHopMostRecent(model_.graph(), {e.src, e.dst},
                                      e.timestamp, config.propagation_hops,
                                      config.sampled_neighbors);
    }
  }
  std::vector<core::MailDelivery> deliveries;
  {
    Scoped span(recorder, "core.propagate", b, parent);
    std::vector<int64_t> event_index(records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      event_index[i] = static_cast<int64_t>(i);
    }
    core::PartialPropagation part =
        model_.propagator().ComputePartialFromHops(records, event_index, hops);
    deliveries.reserve(part.hop0.size() + part.partial.size());
    for (auto& tagged : part.hop0) {
      deliveries.push_back(std::move(tagged.delivery));
    }
    for (auto& partial : part.partial) {
      deliveries.push_back(core::MailPropagator::FinalizeReduce(std::move(partial)));
    }
  }
  const auto num_deliveries = static_cast<int64_t>(deliveries.size());
  {
    Scoped span(recorder, "core.state.deliver", b, parent);
    store.DeliverBatch(std::move(deliveries));
  }
  {
    Scoped span(recorder, "graph.append", b, parent);
    for (const auto& r : records) {
      APAN_CHECK(model_.graph().AddEvent(r.event).ok());
    }
  }

  const auto n = static_cast<int64_t>(d.nodes.size());
  const int64_t slots = config.mailbox_slots;
  ++counts_.batches;
  counts_.events += static_cast<int64_t>(batch.size());
  counts_.unique_nodes += n;
  // z(t−) rows + mails + mask (floats), slot timestamps (doubles), counts.
  counts_.read_bytes +=
      n * dim * 4 + n * slots * dim * 4 + n * slots * 4 + n * slots * 8 + n * 8;
  for (const auto& h : hops) counts_.hop_entries += static_cast<int64_t>(h.size());
  counts_.deliveries += num_deliveries;
  return scores;
}

}  // namespace perfbench
}  // namespace apan
