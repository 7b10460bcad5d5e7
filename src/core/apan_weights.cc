#include "core/apan_weights.h"

#include <cmath>

#include "core/node_state_store.h"
#include "tensor/ops.h"
#include "util/status.h"

namespace apan {
namespace core {

ApanWeights::ApanWeights(const ApanConfig* config, const ApanEncoder* encoder,
                         const LinkDecoder* link_decoder,
                         const EdgeDecoder* edge_decoder,
                         const NodeDecoder* node_decoder,
                         const MailPropagator* propagator,
                         const tensor::Tensor* link_scale,
                         const tensor::Tensor* link_bias)
    : config_(config),
      encoder_(encoder),
      link_decoder_(link_decoder),
      edge_decoder_(edge_decoder),
      node_decoder_(node_decoder),
      propagator_(propagator),
      link_scale_(link_scale),
      link_bias_(link_bias) {
  APAN_CHECK(config != nullptr && encoder != nullptr && propagator != nullptr);
}

ApanEncoder::Output ApanWeights::EncodeNodes(
    const NodeStateStore& store, const std::vector<graph::NodeId>& nodes) const {
  return encoder_->EncodeNodes(store, nodes, /*dropout_rng=*/nullptr);
}

ApanEncoder::Output ApanWeights::Encode(
    const tensor::Tensor& last_embeddings,
    const Mailbox::ReadResult& mailbox_read) const {
  return encoder_->Forward(last_embeddings, mailbox_read,
                           /*dropout_rng=*/nullptr);
}

tensor::Tensor ApanWeights::ScoreLinkLogits(const tensor::Tensor& z_src,
                                            const tensor::Tensor& z_dst) const {
  const float inv_sqrt_d =
      1.0f / std::sqrt(static_cast<float>(config_->embedding_dim));
  tensor::Tensor dot =
      tensor::MulScalar(tensor::RowwiseDot(z_src, z_dst), inv_sqrt_d);
  return tensor::Add(tensor::MatMul(dot, *link_scale_), *link_bias_);
}

}  // namespace core
}  // namespace apan
