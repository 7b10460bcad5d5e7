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

#include <span>
#include <vector>

#include "core/config.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/propagator.h"
#include "graph/temporal_graph.h"
#include "tensor/tensor.h"

namespace apan {
namespace core {

struct StateRead;

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

  /// \brief The serving encode: ApanEncoder::ForwardRaw over a StateRead
  /// (NodeStateStore::ReadInto), adding the positional encoding in place
  /// into read->mails. Writes z(t) to `embeddings` ({read->batch, dim}).
  void EncodeRead(StateRead* read, ApanEncoder::Workspace* ws,
                  float* embeddings) const;

  /// Link-prediction logits per the paper's Eq. 7: scaled dot product
  /// with the learnable affine calibration. \return {batch, 1} logits.
  /// Under NoGradGuard each row is LinkLogit; with gradients on it builds
  /// the training graph of the same arithmetic.
  tensor::Tensor ScoreLinkLogits(const tensor::Tensor& z_src,
                                 const tensor::Tensor& z_dst) const;

  /// Eq. 7's logit for one pair of embedding rows (dim floats each): the
  /// blocked Dot, · 1/√d, · link_scale + link_bias.
  float LinkLogit(const float* z_src, const float* z_dst) const;

  /// \brief The fused link decoder: P(edge) for event i is
  /// StableSigmoid(LinkLogit(row src_rows[i], row dst_rows[i])) of the
  /// {rows, dim} matrix `embeddings`, written to probs[i]. No tensor is
  /// built; bitwise equal to Sigmoid(ScoreLinkLogits(...)) over gathered
  /// rows under NoGradGuard.
  void ScoreLinks(const float* embeddings, std::span<const int64_t> src_rows,
                  std::span<const int64_t> dst_rows, float* probs) const;

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
