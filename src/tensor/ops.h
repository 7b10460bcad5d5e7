// Differentiable operator library over tensor::Tensor.
//
// Every op returns a new Tensor; when gradient recording is enabled
// (NoGradGuard::GradEnabled()) and any input requires grad, the result
// carries a backward closure. Shape errors abort via APAN_CHECK — they are
// programming errors at call sites, and models validate user-facing shapes
// before reaching the ops layer.
//
// Broadcasting is intentionally restricted to the patterns the models use:
//   * elementwise ops on identical shapes;
//   * Add/Mul of a rank-N tensor with a rank-1 tensor over the last dim
//     (bias / gain application);
//   * scalar variants (AddScalar, MulScalar).

#ifndef APAN_TENSOR_OPS_H_
#define APAN_TENSOR_OPS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/random.h"

namespace apan {
namespace tensor {

// ---- Elementwise arithmetic ------------------------------------------------

/// Elementwise a + b. Shapes must match, or b must be rank-1 matching the
/// last dimension of a (broadcast over leading dims).
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise a - b (same broadcast rules as Add).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise a * b (same broadcast rules as Add).
Tensor Mul(const Tensor& a, const Tensor& b);
/// a + s.
Tensor AddScalar(const Tensor& a, float s);
/// a * s.
Tensor MulScalar(const Tensor& a, float s);
/// -a.
Tensor Neg(const Tensor& a);

// ---- Activations -----------------------------------------------------------

Tensor Relu(const Tensor& a);
/// \brief Fused y = max(a + bias, 0): the Linear-plus-ReLU epilogue in one
/// pass (one of the serve hot-path kernels). `bias` must be rank-1 over
/// the last dimension of `a`. Bitwise-identical to Relu(Add(a, bias)).
Tensor AddBiasRelu(const Tensor& a, const Tensor& bias);
/// max(x, slope*x) with slope in (0, 1); GAT's attention nonlinearity.
Tensor LeakyRelu(const Tensor& a, float slope = 0.2f);
Tensor Sigmoid(const Tensor& a);
/// The numerically stable scalar sigmoid Sigmoid applies per element
/// (exp of -|x| only, so it never overflows).
inline float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs are clamped to >= eps for stability.
Tensor Log(const Tensor& a, float eps = 1e-12f);
/// Elementwise cosine (used by the Bochner time-encoding kernel).
Tensor Cos(const Tensor& a);

// ---- Linear algebra --------------------------------------------------------

/// 2-D matrix product: {n, k} x {k, m} -> {n, m}.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Batched 3-D matmul: {b, n, k} x {b, k, m} -> {b, n, m}.
Tensor Bmm(const Tensor& a, const Tensor& b);
/// 2-D transpose {n, m} -> {m, n}.
Tensor Transpose2D(const Tensor& a);
/// Arbitrary-rank axis permutation (inverse permutation on backward).
Tensor Permute(const Tensor& a, const std::vector<size_t>& perm);
/// Reinterprets the buffer with a new shape of equal element count.
Tensor Reshape(const Tensor& a, Shape new_shape);

/// \brief Raw output buffer for fused inference paths: zeroed (or, with
/// zero=false, content-unspecified — the caller overwrites every element)
/// and drawn from the active TensorArena when inference mode is on.
/// Never carries autograd state.
Tensor ForwardBuffer(Shape shape, bool zero = true);

// ---- Structure -------------------------------------------------------------

/// Concatenates along the last dimension; all leading dims must match.
Tensor ConcatLastDim(const std::vector<Tensor>& parts);
/// Concatenates along the first dimension; all trailing dims must match.
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Selects rows of a 2-D tensor: {n, d} gathered by indices -> {k, d}.
/// Backward scatter-adds into the source rows (embedding-table gradient).
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices);
/// Contiguous column slice [col_begin, col_end) of a 2-D tensor.
Tensor SliceCols(const Tensor& a, int64_t col_begin, int64_t col_end);

// ---- Normalization / attention helpers --------------------------------------

/// Softmax over the last dimension.
Tensor SoftmaxLastDim(const Tensor& a);
/// log(softmax(a)) over the last dimension, numerically stable.
Tensor LogSoftmaxLastDim(const Tensor& a);
/// \brief Per-last-dim standardization: y = (x - mean) / sqrt(var + eps).
/// The learnable gain/bias of a LayerNorm live in nn::LayerNorm.
Tensor RowNormalize(const Tensor& a, float eps = 1e-5f);
/// Inverted dropout; identity when !training or p == 0.
Tensor Dropout(const Tensor& a, float p, bool training, Rng* rng);

// ---- Reductions ------------------------------------------------------------

/// Sum of all elements -> scalar {1}.
Tensor SumAll(const Tensor& a);
/// Mean of all elements -> scalar {1}.
Tensor MeanAll(const Tensor& a);
/// Mean over the second dimension of a 3-D tensor: {b, m, d} -> {b, d}.
Tensor MeanDim1(const Tensor& a);
/// Row-wise dot product of two {n, d} tensors -> {n, 1}.
Tensor RowwiseDot(const Tensor& a, const Tensor& b);

// ---- Losses ----------------------------------------------------------------

/// \brief Mean binary-cross-entropy over logits.
/// logits: {n} or {n, 1}; targets: same element count, values in [0, 1].
/// Numerically stable (log-sum-exp form).
Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets);

/// \brief Mean KL(N(mu, sigma^2) || N(0, 1)) used by the VGAE baseline.
/// mu, logvar: {n, d}. Returns scalar.
Tensor GaussianKl(const Tensor& mu, const Tensor& logvar);

}  // namespace tensor
}  // namespace apan

#endif  // APAN_TENSOR_OPS_H_
