#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace apan {
namespace nn {

using tensor::Tensor;
namespace kernels = tensor::kernels;

MultiHeadAttention::MultiHeadAttention(int64_t model_dim, int64_t num_heads,
                                       Rng* rng, int64_t key_dim,
                                       int64_t value_dim, int64_t query_dim)
    : model_dim_(model_dim),
      num_heads_(num_heads),
      head_dim_(model_dim / num_heads),
      wq_(query_dim > 0 ? query_dim : model_dim, model_dim, rng,
          /*bias=*/false),
      wk_(key_dim > 0 ? key_dim : model_dim, model_dim, rng, /*bias=*/false),
      wv_(value_dim > 0 ? value_dim : model_dim, model_dim, rng,
          /*bias=*/false),
      wo_(model_dim, model_dim, rng, /*bias=*/false) {
  APAN_CHECK_MSG(model_dim % num_heads == 0,
                 "model_dim must be divisible by num_heads");
  RegisterChild(&wq_);
  RegisterChild(&wk_);
  RegisterChild(&wv_);
  RegisterChild(&wo_);
}

AttentionOutput MultiHeadAttention::Forward(
    const Tensor& query, const Tensor& keys, const Tensor& values,
    const std::vector<float>* mask) const {
  APAN_CHECK(query.defined() && keys.defined() && values.defined());
  APAN_CHECK_MSG(query.rank() == 2 && keys.rank() == 3 && values.rank() == 3,
                 "attention expects query {b,dq}, keys/values {b,m,dk}");
  const int64_t batch = query.dim(0);
  const int64_t num_keys = keys.dim(1);
  APAN_CHECK(keys.dim(0) == batch && values.dim(0) == batch);
  APAN_CHECK(values.dim(1) == num_keys);
  if (mask != nullptr) {
    APAN_CHECK_MSG(
        mask->size() == static_cast<size_t>(batch * num_keys),
        "attention mask must have batch*num_keys entries");
  }

  if (!tensor::NoGradGuard::GradEnabled()) {
    return ForwardInference(query, keys, values, mask);
  }

  // Project and split heads. Row layout after the projections keeps each
  // (batch, head) block contiguous, so head split/merge are pure reshapes.
  // Q: {b, d} -> {b*h, 1, dh}
  Tensor q = wq_.Forward(query);
  q = tensor::Reshape(q, {batch * num_heads_, 1, head_dim_});
  // K, V: {b, m, d} -> {b, m, h, dh} -> {b, h, m, dh} -> {b*h, m, dh}
  Tensor k = wk_.Forward(keys);
  k = tensor::Reshape(k, {batch, num_keys, num_heads_, head_dim_});
  k = tensor::Permute(k, {0, 2, 1, 3});
  k = tensor::Reshape(k, {batch * num_heads_, num_keys, head_dim_});
  Tensor v = wv_.Forward(values);
  v = tensor::Reshape(v, {batch, num_keys, num_heads_, head_dim_});
  v = tensor::Permute(v, {0, 2, 1, 3});
  v = tensor::Reshape(v, {batch * num_heads_, num_keys, head_dim_});

  // scores = QK^T / sqrt(dh): {b*h, 1, m}
  Tensor scores = tensor::Bmm(q, tensor::Permute(k, {0, 2, 1}));
  scores = tensor::MulScalar(
      scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));

  if (mask != nullptr) {
    // Expand the per-(batch, key) mask across heads as a constant tensor.
    std::vector<float> expanded(
        static_cast<size_t>(batch * num_heads_ * num_keys));
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t h = 0; h < num_heads_; ++h) {
        for (int64_t m = 0; m < num_keys; ++m) {
          expanded[static_cast<size_t>(((b * num_heads_) + h) * num_keys +
                                       m)] =
              (*mask)[static_cast<size_t>(b * num_keys + m)];
        }
      }
    }
    Tensor mask_t = Tensor::FromVector({batch * num_heads_, 1, num_keys},
                                       std::move(expanded));
    scores = tensor::Add(scores, mask_t);
  }

  Tensor attn = tensor::SoftmaxLastDim(scores);  // {b*h, 1, m}
  Tensor context = tensor::Bmm(attn, v);         // {b*h, 1, dh}
  context = tensor::Reshape(context, {batch, model_dim_});
  Tensor out = wo_.Forward(context);

  AttentionOutput result;
  result.output = out;
  result.weights =
      tensor::Reshape(attn, {batch, num_heads_, num_keys}).Detach();
  return result;
}

AttentionOutput MultiHeadAttention::ForwardInference(
    const Tensor& query, const Tensor& keys, const Tensor& values,
    const std::vector<float>* mask) const {
  const int64_t batch = query.dim(0);
  const int64_t num_keys = keys.dim(1);
  // The generic path gets these checks from Linear::Forward; the raw
  // kernels index the weight buffers directly, so a mismatch here must
  // abort instead of reading out of bounds.
  APAN_CHECK_MSG(query.dim(1) == wq_.in_features() &&
                     keys.dim(2) == wk_.in_features() &&
                     values.dim(2) == wv_.in_features(),
                 "attention input feature dimension mismatch");
  thread_local Workspace ws;
  AttentionOutput result;
  result.weights = tensor::ForwardBuffer({batch, num_heads_, num_keys},
                                         /*zero=*/false);
  result.output = tensor::ForwardBuffer({batch, model_dim_}, /*zero=*/false);
  ForwardRaw(query.data(), keys.data(), values.data(),
             mask != nullptr ? mask->data() : nullptr, batch, num_keys, &ws,
             result.weights.data(), result.output.data());
  return result;
}

void MultiHeadAttention::ForwardRaw(const float* query, const float* keys,
                                    const float* values, const float* mask,
                                    int64_t batch, int64_t num_keys,
                                    Workspace* ws, float* attn,
                                    float* out) const {
  // The raw GEMMs below apply no bias; if the projections ever grow one,
  // serving must not silently diverge from the training graph.
  APAN_CHECK_MSG(!wq_.has_bias() && !wk_.has_bias() && !wv_.has_bias() &&
                     !wo_.has_bias(),
                 "fused attention path assumes bias-free projections");
  const int64_t dq = wq_.in_features();
  const int64_t dk = wk_.in_features();
  const int64_t dv = wv_.in_features();
  const auto rows = static_cast<size_t>(batch * model_dim_);
  if (ws->q.size() < rows) ws->q.resize(rows);
  if (ws->context.size() < rows) ws->context.resize(rows);
  const auto scratch = static_cast<size_t>(num_heads_ * std::max(dk, dv));
  if (ws->scratch.size() < scratch) ws->scratch.resize(scratch);

  // (2m+2)d^2 + 2md multiply-adds per row become 4d^2 + 2hmd; `scratch`
  // holds one row's folded queries / mixed values at a time.
  kernels::MatMul(query, wq_.weight().data(), ws->q.data(), batch, dq,
                  model_dim_);
  kernels::AttentionScores(ws->q.data(), wk_.weight().data(), keys,
                           ws->scratch.data(), attn, batch, num_heads_,
                           num_keys, dk, head_dim_,
                           1.0f / std::sqrt(static_cast<float>(head_dim_)));
  kernels::MaskedSoftmax(attn, mask, attn, batch, num_heads_, num_keys);
  kernels::AttentionContext(attn, values, wv_.weight().data(),
                            ws->scratch.data(), ws->context.data(), batch,
                            num_heads_, num_keys, dv, head_dim_);
  kernels::MatMul(ws->context.data(), wo_.weight().data(), out, batch,
                  model_dim_, model_dim_);
}

}  // namespace nn
}  // namespace apan
