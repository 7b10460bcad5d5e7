// Read-only serve-time view of ApanModel's replicable weights.
//
// APAN's serve-time parameters — the attention encoder, the task
// decoders, and the Eq. 7 link calibration — are small, immutable during
// serving, and identical for every node, so a distributed deployment
// replicates them on every shard and partitions only the mutable node
// state (core::NodeStateStore). ApanWeights is that split expressed in
// the type system: a const-only view that can score and encode against
// any caller-supplied state store but cannot touch the model's mutable
// state. serve::ShardedEngine holds the model exclusively through this
// view while running.

#ifndef APAN_CORE_APAN_WEIGHTS_H_
#define APAN_CORE_APAN_WEIGHTS_H_

#include <vector>

#include "core/config.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/propagator.h"
#include "graph/temporal_graph.h"
#include "tensor/tensor.h"

namespace apan {
namespace core {

class NodeStateStore;

/// \brief Non-owning const view over one ApanModel's weights. Copyable;
/// the model must outlive every view.
class ApanWeights {
 public:
  ApanWeights(const ApanConfig* config, const ApanEncoder* encoder,
              const LinkDecoder* link_decoder, const EdgeDecoder* edge_decoder,
              const NodeDecoder* node_decoder, const MailPropagator* propagator,
              const tensor::Tensor* link_scale,
              const tensor::Tensor* link_bias);

  const ApanConfig& config() const { return *config_; }
  const ApanEncoder& encoder() const { return *encoder_; }
  const LinkDecoder& link_decoder() const { return *link_decoder_; }
  const EdgeDecoder& edge_decoder() const { return *edge_decoder_; }
  const NodeDecoder& node_decoder() const { return *node_decoder_; }
  const MailPropagator& propagator() const { return *propagator_; }

  /// Encoder pass over `store`'s rows (serve-time: no dropout RNG). The
  /// store must own every node in `nodes`.
  ApanEncoder::Output EncodeNodes(const NodeStateStore& store,
                                  const std::vector<graph::NodeId>& nodes) const;

  /// Encoder pass over state already read out of a store
  /// (NodeStateStore::GatherLastEmbeddings + ReadBatch, both copies).
  /// Touches no store, so a caller can read under its state lock and run
  /// the forward pass after releasing it. Same result as EncodeNodes.
  ApanEncoder::Output Encode(const tensor::Tensor& last_embeddings,
                             const Mailbox::ReadResult& mailbox_read) const;

  /// Link-prediction logits per the paper's Eq. 7: scaled dot product
  /// with the learnable affine calibration. \return {batch, 1} logits.
  tensor::Tensor ScoreLinkLogits(const tensor::Tensor& z_src,
                                 const tensor::Tensor& z_dst) const;

 private:
  const ApanConfig* config_;
  const ApanEncoder* encoder_;
  const LinkDecoder* link_decoder_;
  const EdgeDecoder* edge_decoder_;
  const NodeDecoder* node_decoder_;
  const MailPropagator* propagator_;
  const tensor::Tensor* link_scale_;
  const tensor::Tensor* link_bias_;
};

}  // namespace core
}  // namespace apan

#endif  // APAN_CORE_APAN_WEIGHTS_H_
