#include "nn/layers.h"

#include "tensor/kernels.h"

namespace apan {
namespace nn {

using tensor::Shape;
using tensor::Tensor;

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               bool bias)
    : in_features_(in_features), out_features_(out_features) {
  APAN_CHECK(in_features > 0 && out_features > 0 && rng != nullptr);
  weight_ = Tensor::XavierUniform(in_features, out_features, rng);
  RegisterParameter(weight_);
  if (bias) {
    bias_ = Tensor::Zeros({out_features}, /*requires_grad=*/true);
    RegisterParameter(bias_);
  }
}

Tensor Linear::Forward(const Tensor& x, bool fuse_relu) const {
  APAN_CHECK(x.defined());
  APAN_CHECK_MSG(x.shape().back() == in_features_,
                 "Linear input feature dimension mismatch");
  Tensor input = x;
  Shape orig = x.shape();
  const bool needs_flatten = x.rank() > 2;
  if (needs_flatten) {
    input = tensor::Reshape(x, {x.numel() / in_features_, in_features_});
  }
  Tensor out = tensor::MatMul(input, weight_);
  if (bias_.defined()) {
    out = fuse_relu ? tensor::AddBiasRelu(out, bias_)
                    : tensor::Add(out, bias_);
  } else if (fuse_relu) {
    out = tensor::Relu(out);
  }
  if (needs_flatten) {
    Shape out_shape = orig;
    out_shape.back() = out_features_;
    out = tensor::Reshape(out, out_shape);
  }
  return out;
}

void Linear::ForwardRaw(const float* x, int64_t rows, float* y,
                        bool fuse_relu) const {
  tensor::kernels::MatMul(x, weight_.data(), y, rows, in_features_,
                          out_features_);
  if (!bias_.defined()) {
    APAN_CHECK_MSG(!fuse_relu, "Linear::ForwardRaw fuse_relu needs a bias");
    return;
  }
  if (fuse_relu) {
    tensor::kernels::AddBiasRelu(y, bias_.data(), y, rows, out_features_);
  } else {
    tensor::kernels::AddBias(y, bias_.data(), y, rows, out_features_);
  }
}

Mlp::Mlp(int64_t in_features, int64_t hidden, int64_t out_features, Rng* rng,
         float dropout)
    : fc1_(in_features, hidden, rng),
      fc2_(hidden, out_features, rng),
      dropout_(dropout) {
  RegisterChild(&fc1_);
  RegisterChild(&fc2_);
}

Tensor Mlp::Forward(const Tensor& x, Rng* rng) const {
  Tensor h = fc1_.Forward(x, /*fuse_relu=*/true);
  if (dropout_ > 0.0f && training() && rng != nullptr) {
    h = tensor::Dropout(h, dropout_, /*training=*/true, rng);
  }
  return fc2_.Forward(h);
}

void Mlp::ForwardRaw(const float* x, int64_t rows, float* hidden,
                     float* y) const {
  fc1_.ForwardRaw(x, rows, hidden, /*fuse_relu=*/true);
  fc2_.ForwardRaw(hidden, rows, y);
}

LayerNorm::LayerNorm(int64_t dim, float eps) : dim_(dim), eps_(eps) {
  APAN_CHECK(dim > 0);
  gain_ = Tensor::Ones({dim}, /*requires_grad=*/true);
  bias_ = Tensor::Zeros({dim}, /*requires_grad=*/true);
  RegisterParameter(gain_);
  RegisterParameter(bias_);
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  APAN_CHECK_MSG(x.shape().back() == dim_,
                 "LayerNorm dimension mismatch");
  Tensor normalized = tensor::RowNormalize(x, eps_);
  return tensor::Add(tensor::Mul(normalized, gain_), bias_);
}

Tensor LayerNorm::ForwardResidual(const Tensor& x,
                                  const Tensor& residual) const {
  APAN_CHECK(x.defined() && residual.defined());
  APAN_CHECK_MSG(x.shape() == residual.shape() &&
                     x.shape().back() == dim_,
                 "LayerNorm residual shape mismatch");
  if (tensor::NoGradGuard::GradEnabled()) {
    return Forward(tensor::Add(x, residual));
  }
  Tensor out = tensor::ForwardBuffer(x.shape(), /*zero=*/false);
  ForwardResidualRaw(x.data(), residual.data(), out.data(), x.numel() / dim_);
  return out;
}

void LayerNorm::ForwardResidualRaw(const float* x, const float* residual,
                                   float* y, int64_t rows) const {
  tensor::kernels::ResidualLayerNorm(x, residual, gain_.data(), bias_.data(),
                                     y, rows, dim_, eps_);
}

EmbeddingTable::EmbeddingTable(int64_t num_embeddings, int64_t dim, Rng* rng,
                               float init_scale)
    : num_embeddings_(num_embeddings), dim_(dim) {
  APAN_CHECK(num_embeddings > 0 && dim > 0 && rng != nullptr);
  table_ = Tensor::Randn({num_embeddings, dim}, rng, init_scale,
                         /*requires_grad=*/true);
  RegisterParameter(table_);
}

Tensor EmbeddingTable::Forward(const std::vector<int64_t>& indices) const {
  return tensor::GatherRows(table_, indices);
}

}  // namespace nn
}  // namespace apan
