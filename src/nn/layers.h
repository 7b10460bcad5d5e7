// Core feed-forward layers: Linear, Mlp, LayerNorm, Dropout, EmbeddingTable.

#ifndef APAN_NN_LAYERS_H_
#define APAN_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace apan {
namespace nn {

/// \brief Affine map y = xW + b over the last dimension.
///
/// Accepts rank-2 {n, in} or rank-3 {b, m, in} inputs (rank-3 inputs are
/// flattened to rows, transformed, and reshaped back).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool bias = true);

  /// With fuse_relu the ReLU epilogue runs inside the bias application
  /// (one pass, the AddBiasRelu kernel) — bitwise-identical to
  /// Relu(Forward(x)).
  tensor::Tensor Forward(const tensor::Tensor& x,
                         bool fuse_relu = false) const;

  /// Forward's inference arithmetic on raw rows: y ({rows, out}) = x
  /// ({rows, in}) W + b through the same kernels, bitwise equal to
  /// Forward under NoGradGuard. fuse_relu requires a bias.
  void ForwardRaw(const float* x, int64_t rows, float* y,
                  bool fuse_relu = false) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  bool has_bias() const { return bias_.defined(); }
  const tensor::Tensor& weight() const { return weight_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  tensor::Tensor weight_;  // {in, out}
  tensor::Tensor bias_;    // {out} or undefined
};

/// \brief Two-layer feed-forward network with ReLU, matching the paper's
/// "two-layer feedforward neural network with a hidden size of 80" (§4.4).
class Mlp : public Module {
 public:
  Mlp(int64_t in_features, int64_t hidden, int64_t out_features, Rng* rng,
      float dropout = 0.0f);

  tensor::Tensor Forward(const tensor::Tensor& x, Rng* rng = nullptr) const;

  /// Inference forward on raw rows, bitwise equal to Forward under
  /// NoGradGuard: `hidden` ({rows, hidden_features()}) is scratch, `y`
  /// ({rows, out}) the output.
  void ForwardRaw(const float* x, int64_t rows, float* hidden,
                  float* y) const;

  int64_t hidden_features() const { return fc1_.out_features(); }

 private:
  Linear fc1_;
  Linear fc2_;
  float dropout_;
};

/// \brief Layer normalization with learnable gain and bias (Ba et al.,
/// 2016) over the last dimension — the normalization APAN's encoder uses
/// after the attention residual (paper Eq. 5).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

  /// \brief Fused residual-add + LayerNorm: y = LN(x + residual). In
  /// inference mode this is one kernel pass with no intermediate sum
  /// tensor; under gradient recording it composes Add + Forward (the
  /// same graph the encoder built before the fusion).
  tensor::Tensor ForwardResidual(const tensor::Tensor& x,
                                 const tensor::Tensor& residual) const;

  /// ForwardResidual's inference kernel on raw {rows, dim} buffers.
  void ForwardResidualRaw(const float* x, const float* residual, float* y,
                          int64_t rows) const;

  int64_t dim() const { return dim_; }

 private:
  int64_t dim_;
  float eps_;
  tensor::Tensor gain_;  // {dim}
  tensor::Tensor bias_;  // {dim}
};

/// \brief Lookup table of trainable row vectors. Used for the positional
/// encoding of mailbox slots (paper §3.3) and for shallow embedding
/// baselines.
class EmbeddingTable : public Module {
 public:
  EmbeddingTable(int64_t num_embeddings, int64_t dim, Rng* rng,
                 float init_scale = 0.1f);

  /// Gathers rows: returns {indices.size(), dim}.
  tensor::Tensor Forward(const std::vector<int64_t>& indices) const;

  /// The full table {num_embeddings, dim}.
  const tensor::Tensor& table() const { return table_; }

  int64_t num_embeddings() const { return num_embeddings_; }
  int64_t dim() const { return dim_; }

 private:
  int64_t num_embeddings_;
  int64_t dim_;
  tensor::Tensor table_;
};

}  // namespace nn
}  // namespace apan

#endif  // APAN_NN_LAYERS_H_
