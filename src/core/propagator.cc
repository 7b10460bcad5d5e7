#include "core/propagator.h"

#include <algorithm>
#include <numeric>

namespace apan {
namespace core {

MailPropagator::MailPropagator(const ApanConfig& config,
                               const graph::TemporalGraph* graph,
                               const graph::EdgeFeatureStore* features)
    : config_(config), graph_(graph), features_(features) {
  APAN_CHECK(graph != nullptr && features != nullptr);
  APAN_CHECK(config.Validate().ok());
  APAN_CHECK_MSG(features->dim() == config.embedding_dim,
                 "mail dim must equal edge feature dim (paper §3.5)");
}

namespace {

/// φ into `out`: mail = (z_src + e) + z_dst, elementwise.
void MakeMailInto(const float* z_src, const float* e, const float* z_dst,
                  int64_t d, float* out) {
  for (int64_t i = 0; i < d; ++i) out[i] = z_src[i] + e[i] + z_dst[i];
}

/// Record access for the per-struct API (InteractionRecord + nested hop
/// vectors) — the adapter path of ComputePartialFromHops.
struct StructRecords {
  std::span<const InteractionRecord> records;
  std::span<const int64_t> event_index;
  std::span<const std::vector<graph::HopEntry>> hops;
  int64_t dim;

  size_t size() const { return records.size(); }
  const graph::Event& event(size_t r) const { return records[r].event; }
  int64_t index(size_t r) const { return event_index[r]; }
  const float* z_src(size_t r) const {
    APAN_CHECK_MSG(static_cast<int64_t>(records[r].z_src.size()) == dim &&
                       static_cast<int64_t>(records[r].z_dst.size()) == dim,
                   "interaction embeddings have wrong dimension");
    return records[r].z_src.data();
  }
  const float* z_dst(size_t r) const { return records[r].z_dst.data(); }
  std::span<const graph::HopEntry> hop_entries(size_t r) const {
    return hops[r];
  }
};

/// Record access for the flat form (RecordRows + HopRows).
struct FlatRecords {
  const RecordRows& records;
  const graph::HopRows& hops;
  int64_t dim;

  size_t size() const { return records.size(); }
  const graph::Event& event(size_t r) const { return records.events[r]; }
  int64_t index(size_t r) const { return records.event_index[r]; }
  const float* z_src(size_t r) const {
    return records.z.data() + 2 * r * static_cast<size_t>(dim);
  }
  const float* z_dst(size_t r) const {
    return records.z.data() + (2 * r + 1) * static_cast<size_t>(dim);
  }
  std::span<const graph::HopEntry> hop_entries(size_t r) const {
    return hops.rows() == 0 ? std::span<const graph::HopEntry>()
                            : hops.Row(r);
  }
};

}  // namespace

std::vector<float> MailPropagator::MakeMail(
    const InteractionRecord& record) const {
  const int64_t d = config_.embedding_dim;
  APAN_CHECK_MSG(static_cast<int64_t>(record.z_src.size()) == d &&
                     static_cast<int64_t>(record.z_dst.size()) == d,
                 "interaction embeddings have wrong dimension");
  std::vector<float> mail(static_cast<size_t>(d));
  MakeMailInto(record.z_src.data(), features_->Row(record.event.edge_id),
               record.z_dst.data(), d, mail.data());
  return mail;
}

template <typename Records>
void MailPropagator::Reduce(const Records& records, NodeRowIndex* scratch,
                            MailRows* hop0, MailRows* partial) const {
  const int64_t d = config_.embedding_dim;
  scratch->Clear();
  hop0->Clear();
  hop0->dim = d;
  hop0->Reserve(2 * records.size());
  partial->Clear();
  partial->dim = d;

  // Hop 0: each event's mail goes to both endpoints *unreduced* — a node's
  // own interactions each occupy a mailbox slot, keeping its own history
  // crisp. ρ applies only to the propagated k-hop copies below (that is
  // where high-degree nodes would otherwise be flooded).
  for (size_t r = 0; r < records.size(); ++r) {
    const graph::Event& event = records.event(r);
    const double t = event.timestamp;
    const int64_t seq = 2 * records.index(r);
    const size_t mail_row = hop0->rows();
    const float* z_src = records.z_src(r);
    MakeMailInto(z_src, features_->Row(event.edge_id), records.z_dst(r), d,
                 hop0->AppendRow(event.src, t, 1, seq));
    const float* mail = hop0->Row(mail_row).data();

    // Hops 1..k: mail passing f is the identity, so every sampled
    // occurrence receives the same payload; each recipient's sum
    // accumulates in record-major, hop-entry order.
    for (const graph::HopEntry& entry : records.hop_entries(r)) {
      if (entry.node == event.src || entry.node == event.dst) {
        continue;  // endpoints already receive the mail directly
      }
      const auto [row, first] = scratch->Insert(
          entry.node, static_cast<uint32_t>(partial->rows()));
      // First contribution: newest starts at its time (not at 0, which
      // would stamp negative-time mail later than any contribution).
      if (first) partial->AppendRow(entry.node, t, 0, 0);
      float* sum = partial->MutableRow(row).data();
      for (int64_t i = 0; i < d; ++i) sum[i] += mail[i];
      partial->time[row] = std::max(partial->time[row], t);
      ++partial->count[row];
    }

    if (event.dst != event.src) {
      float* dst_mail = hop0->AppendRow(event.dst, t, 1, seq + 1);
      std::copy_n(hop0->Row(mail_row).data(), d, dst_mail);
    }
  }
}

void MailPropagator::ComputePartialRows(const RecordRows& records,
                                        const graph::HopRows& hops,
                                        NodeRowIndex* scratch,
                                        MailRows* hop0,
                                        MailRows* partial) const {
  const int64_t d = config_.embedding_dim;
  APAN_CHECK_MSG(records.event_index.size() == records.size() &&
                     records.z.size() == 2 * records.size() *
                                             static_cast<size_t>(d),
                 "record rows have mismatched shapes");
  APAN_CHECK_MSG(hops.rows() == records.size() ||
                     (hops.rows() == 0 && hops.entries.empty()),
                 "one hop row per record");
  Reduce(FlatRecords{records, hops, d}, scratch, hop0, partial);
}

PartialPropagation MailPropagator::ComputePartial(
    std::span<const InteractionRecord> records,
    std::span<const int64_t> event_index) const {
  // N: sample each record's neighborhood on the local monolithic graph,
  // then run the graph-free stage. Most-recent sampling is the paper's
  // choice; uniform is the §3.5 alternative.
  std::vector<std::vector<graph::HopEntry>> hops(records.size());
  if (config_.propagation_hops > 0) {
    for (size_t r = 0; r < records.size(); ++r) {
      const InteractionRecord& record = records[r];
      const double t = record.event.timestamp;
      hops[r] =
          config_.sampling == PropagationSampling::kMostRecent
              ? graph::KHopMostRecent(
                    *graph_, {record.event.src, record.event.dst}, t,
                    config_.propagation_hops, config_.sampled_neighbors)
              : graph::KHopUniform(
                    *graph_, {record.event.src, record.event.dst}, t,
                    config_.propagation_hops, config_.sampled_neighbors,
                    &sampling_rng_);
    }
  }
  return ComputePartialFromHops(records, event_index, hops);
}

PartialPropagation MailPropagator::ComputePartialFromHops(
    std::span<const InteractionRecord> records,
    std::span<const int64_t> event_index,
    std::span<const std::vector<graph::HopEntry>> hops) const {
  APAN_CHECK_MSG(records.size() == event_index.size(),
                 "one event index per record");
  APAN_CHECK_MSG(records.size() == hops.size(),
                 "one hop expansion per record");
  NodeRowIndex scratch;
  MailRows hop0;
  MailRows partial;
  Reduce(StructRecords{records, event_index, hops, config_.embedding_dim},
         &scratch, &hop0, &partial);

  PartialPropagation out;
  out.hop0.reserve(hop0.rows());
  for (size_t i = 0; i < hop0.rows(); ++i) {
    const std::span<const float> mail = hop0.Row(i);
    out.hop0.push_back(
        {hop0.tag[i],
         {hop0.node[i], std::vector<float>(mail.begin(), mail.end()),
          hop0.time[i], 1}});
  }
  out.partial.reserve(partial.rows());
  for (size_t i = 0; i < partial.rows(); ++i) {
    const std::span<const float> sum = partial.Row(i);
    out.partial.push_back({partial.node[i],
                           std::vector<float>(sum.begin(), sum.end()),
                           partial.time[i], partial.count[i]});
  }
  std::sort(out.partial.begin(), out.partial.end(),
            [](const PartialPropagation::PartialReduce& a,
               const PartialPropagation::PartialReduce& b) {
              return a.recipient < b.recipient;
            });
  return out;
}

void MailPropagator::FinalizeSum(std::span<float> sum, int64_t count) {
  APAN_CHECK_MSG(count > 0, "FinalizeReduce on empty partial");
  const float inv = 1.0f / static_cast<float>(count);
  for (float& v : sum) v *= inv;
}

MailDelivery MailPropagator::FinalizeReduce(
    PartialPropagation::PartialReduce&& partial) {
  MailDelivery delivery;
  delivery.recipient = partial.recipient;
  delivery.mail = std::move(partial.sum);
  FinalizeSum(delivery.mail, partial.count);
  delivery.timestamp = partial.newest;
  delivery.contributions = partial.count;
  return delivery;
}

std::vector<MailDelivery> MailPropagator::ComputeDeliveries(
    const std::vector<InteractionRecord>& batch) const {
  std::vector<int64_t> event_index(batch.size());
  std::iota(event_index.begin(), event_index.end(), 0);
  PartialPropagation part = ComputePartial(batch, event_index);

  std::vector<MailDelivery> out;
  out.reserve(part.hop0.size() + part.partial.size());
  for (auto& tagged : part.hop0) out.push_back(std::move(tagged.delivery));
  // ρ: mean-reduce the propagated mails to one per recipient per batch.
  for (auto& partial : part.partial) {
    out.push_back(FinalizeReduce(std::move(partial)));
  }
  return out;
}

int64_t MailPropagator::Propagate(
    const std::vector<InteractionRecord>& batch, Mailbox* mailbox) const {
  APAN_CHECK(mailbox != nullptr);
  const auto deliveries = ComputeDeliveries(batch);
  return mailbox->DeliverBatch(deliveries);
}

}  // namespace core
}  // namespace apan
