#include "core/apan_weights.h"

#include <cmath>

#include "core/node_state_store.h"
#include "tensor/kernels.h"
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

void ApanWeights::EncodeRead(StateRead* read, ApanEncoder::Workspace* ws,
                             float* embeddings) const {
  ApanEncoder::RawInput in;
  in.batch = read->batch;
  in.last = read->last.data();
  in.mails = read->mails.data();
  in.mask = read->mask.data();
  in.counts = read->counts.data();
  in.timestamps = read->timestamps.data();
  encoder_->ForwardRaw(in, /*enriched=*/read->mails.data(), ws, embeddings,
                       /*attention=*/nullptr);
}

tensor::Tensor ApanWeights::ScoreLinkLogits(const tensor::Tensor& z_src,
                                            const tensor::Tensor& z_dst) const {
  if (!tensor::NoGradGuard::GradEnabled()) {
    APAN_CHECK_MSG(z_src.rank() == 2 && z_src.shape() == z_dst.shape() &&
                       z_src.dim(1) == config_->embedding_dim,
                   "ScoreLinkLogits expects two {batch, dim} tensors");
    const int64_t n = z_src.dim(0);
    const int64_t d = z_src.dim(1);
    tensor::Tensor logits = tensor::ForwardBuffer({n, 1}, /*zero=*/false);
    for (int64_t i = 0; i < n; ++i) {
      logits.data()[i] = LinkLogit(z_src.data() + i * d, z_dst.data() + i * d);
    }
    return logits;
  }
  const float inv_sqrt_d =
      1.0f / std::sqrt(static_cast<float>(config_->embedding_dim));
  tensor::Tensor dot =
      tensor::MulScalar(tensor::RowwiseDot(z_src, z_dst), inv_sqrt_d);
  return tensor::Add(tensor::MatMul(dot, *link_scale_), *link_bias_);
}

float ApanWeights::LinkLogit(const float* z_src, const float* z_dst) const {
  const int64_t d = config_->embedding_dim;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  const float dot = tensor::kernels::Dot(z_src, z_dst, d) * inv_sqrt_d;
  return dot * link_scale_->data()[0] + link_bias_->data()[0];
}

void ApanWeights::ScoreLinks(const float* embeddings,
                             std::span<const int64_t> src_rows,
                             std::span<const int64_t> dst_rows,
                             float* probs) const {
  APAN_CHECK(src_rows.size() == dst_rows.size());
  const int64_t d = config_->embedding_dim;
  for (size_t i = 0; i < src_rows.size(); ++i) {
    probs[i] = tensor::StableSigmoid(
        LinkLogit(embeddings + src_rows[i] * d, embeddings + dst_rows[i] * d));
  }
}

}  // namespace core
}  // namespace apan
