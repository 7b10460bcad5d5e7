#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/arena.h"
#include "tensor/kernels.h"

namespace apan {
namespace tensor {

namespace {

using Impl = internal::TensorImpl;
using ImplPtr = std::shared_ptr<Impl>;

/// Output buffer for an op. `zero` = false when the op provably writes
/// every element (kernels overwrite; the arena then skips the redundant
/// clear pass on recycled buffers). Ops that ACCUMULATE into their
/// output (MeanDim1) must pass true.
ImplPtr NewImpl(Shape shape, bool zero = true) {
  // Inference mode with an active ArenaScope: recycle a pooled impl so a
  // warm serve batch performs zero per-op heap allocations.
  if (!NoGradGuard::GradEnabled()) {
    if (TensorArena* arena = TensorArena::Current()) {
      return arena->Allocate(std::move(shape), zero);
    }
  } else if (TrainingArena* arena = TrainingArena::Current()) {
    // Gradient recording with an active TrainingStepScope: draw from the
    // graph-planned training pool (refcount-guarded, so live autograd
    // graphs are never aliased — see arena.h).
    return arena->Allocate(std::move(shape), zero);
  }
  auto impl = std::make_shared<Impl>();
  const int64_t n = NumElements(shape);
  impl->shape = std::move(shape);
  // Fresh heap vectors zero-initialize either way; no skip possible.
  impl->data.assign(static_cast<size_t>(n), 0.0f);
  return impl;
}

bool AnyRequiresGrad(const std::vector<ImplPtr>& parents) {
  if (!NoGradGuard::GradEnabled()) return false;
  for (const auto& p : parents) {
    if (p && p->requires_grad) return true;
  }
  return false;
}

/// True when an op over these parents must record a backward closure.
/// Checked at every call site BEFORE building the parent list and the
/// closure, so NoGradGuard regions skip autograd registration entirely
/// (no parent-vector or std::function allocation, not even a no-op one).
inline bool Rec(const ImplPtr& a) {
  return NoGradGuard::GradEnabled() && a->requires_grad;
}
inline bool Rec(const ImplPtr& a, const ImplPtr& b) {
  return NoGradGuard::GradEnabled() &&
         (a->requires_grad || b->requires_grad);
}

/// Attaches autograd metadata to `out`. Callers must have checked
/// Rec()/AnyRequiresGrad first.
void Register(const ImplPtr& out, std::vector<ImplPtr> parents,
              std::function<void()> backward) {
  out->requires_grad = true;
  out->parents = std::move(parents);
  out->backward_fn = std::move(backward);
}

int64_t LastDim(const Shape& s) { return s.back(); }

int64_t LeadingRows(const Shape& s) {
  int64_t rows = 1;
  for (size_t i = 0; i + 1 < s.size(); ++i) rows *= s[i];
  return rows;
}

enum class BroadcastKind { kSameShape, kLastDim };

BroadcastKind CheckBroadcast(const Tensor& a, const Tensor& b) {
  APAN_CHECK(a.defined() && b.defined());
  if (a.shape() == b.shape()) return BroadcastKind::kSameShape;
  APAN_CHECK_MSG(
      b.rank() == 1 && b.dim(0) == LastDim(a.shape()),
      "broadcast requires equal shapes or rank-1 rhs over the last dim");
  return BroadcastKind::kLastDim;
}

}  // namespace

// ---- Elementwise arithmetic ------------------------------------------------

namespace {

// Shared implementation of Add/Sub/Mul under the restricted broadcast rules.
template <typename Fwd, typename BwdA, typename BwdB>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Fwd fwd, BwdA bwd_a,
                BwdB bwd_b) {
  const BroadcastKind kind = CheckBroadcast(a, b);
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  const ImplPtr pb = b.impl();
  const size_t n = pa->data.size();
  const size_t d = static_cast<size_t>(LastDim(pa->shape));
  if (kind == BroadcastKind::kSameShape) {
    for (size_t i = 0; i < n; ++i) {
      out->data[i] = fwd(pa->data[i], pb->data[i]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out->data[i] = fwd(pa->data[i], pb->data[i % d]);
    }
  }
  Impl* raw = out.get();
  if (Rec(pa, pb)) {
    Register(out, {pa, pb}, [pa, pb, raw, kind, n, d, bwd_a, bwd_b] {
      if (pa->requires_grad) {
        pa->EnsureGrad();
        for (size_t i = 0; i < n; ++i) {
          const float bv = (kind == BroadcastKind::kSameShape)
                               ? pb->data[i]
                               : pb->data[i % d];
          pa->grad[i] += bwd_a(raw->grad[i], pa->data[i], bv);
        }
      }
      if (pb->requires_grad) {
        pb->EnsureGrad();
        for (size_t i = 0; i < n; ++i) {
          const size_t j = (kind == BroadcastKind::kSameShape) ? i : i % d;
          pb->grad[j] += bwd_b(raw->grad[i], pa->data[i], pb->data[j]);
        }
      }
    });
  }
  return Tensor::WrapImpl(out);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  // The hottest elementwise op on the serve path (bias adds, residuals,
  // positional enrichment) — forward through the dispatched kernels; the
  // backward closure matches BinaryOp's.
  const BroadcastKind kind = CheckBroadcast(a, b);
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  const ImplPtr pb = b.impl();
  const size_t n = pa->data.size();
  const size_t d = static_cast<size_t>(LastDim(pa->shape));
  if (kind == BroadcastKind::kSameShape) {
    kernels::AddSame(pa->data.data(), pb->data.data(), out->data.data(),
                     static_cast<int64_t>(n));
  } else {
    kernels::AddBias(pa->data.data(), pb->data.data(), out->data.data(),
                     static_cast<int64_t>(n / d), static_cast<int64_t>(d));
  }
  Impl* raw = out.get();
  if (Rec(pa, pb)) {
    Register(out, {pa, pb}, [pa, pb, raw, kind, n, d] {
      if (pa->requires_grad) {
        pa->EnsureGrad();
        kernels::Accumulate(raw->grad.data(), pa->grad.data(),
                            static_cast<int64_t>(n));
      }
      if (pb->requires_grad) {
        pb->EnsureGrad();
        if (kind == BroadcastKind::kSameShape) {
          kernels::Accumulate(raw->grad.data(), pb->grad.data(),
                              static_cast<int64_t>(n));
        } else {
          // Column sums of the {rows, d} gradient into the rank-1 bias.
          for (size_t r = 0; r < n / d; ++r) {
            kernels::Accumulate(raw->grad.data() + r * d, pb->grad.data(),
                                static_cast<int64_t>(d));
          }
        }
      }
    });
  }
  return Tensor::WrapImpl(out);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](float x, float y) { return x - y; },
      [](float g, float, float) { return g; },
      [](float g, float, float) { return -g; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const BroadcastKind kind = CheckBroadcast(a, b);
  if (kind != BroadcastKind::kSameShape) {
    // Broadcast multiply stays on the generic path (rare: gate scalars).
    return BinaryOp(
        a, b, [](float x, float y) { return x * y; },
        [](float g, float, float y) { return g * y; },
        [](float g, float x, float) { return g * x; });
  }
  // Same-shape multiply is the mask application in the attention stack —
  // hot enough in training that the backward fan-in (dA += G.B,
  // dB += G.A) goes through the dispatched AccumulateMul kernel.
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  const ImplPtr pb = b.impl();
  const size_t n = pa->data.size();
  for (size_t i = 0; i < n; ++i) out->data[i] = pa->data[i] * pb->data[i];
  Impl* raw = out.get();
  if (Rec(pa, pb)) {
    Register(out, {pa, pb}, [pa, pb, raw, n] {
      if (pa->requires_grad) {
        pa->EnsureGrad();
        kernels::AccumulateMul(raw->grad.data(), pb->data.data(),
                               pa->grad.data(), static_cast<int64_t>(n));
      }
      if (pb->requires_grad) {
        pb->EnsureGrad();
        kernels::AccumulateMul(raw->grad.data(), pa->data.data(),
                               pb->grad.data(), static_cast<int64_t>(n));
      }
    });
  }
  return Tensor::WrapImpl(out);
}

namespace {

// Unary op helper: fwd(x) and bwd(g, x, y) -> dx, where y is the output.
template <typename Fwd, typename Bwd>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Bwd bwd) {
  APAN_CHECK(a.defined());
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  const size_t n = pa->data.size();
  for (size_t i = 0; i < n; ++i) out->data[i] = fwd(pa->data[i]);
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw, n, bwd] {
      pa->EnsureGrad();
      for (size_t i = 0; i < n; ++i) {
        pa->grad[i] += bwd(raw->grad[i], pa->data[i], raw->data[i]);
      }
    });
  }
  return Tensor::WrapImpl(out);
}

}  // namespace

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; },
      [](float g, float, float) { return g; });
}

Tensor MulScalar(const Tensor& a, float s) {
  // Scaling sits on every loss head (mean reductions, shard weights);
  // the backward is a pure axpy, so route it through the kernel instead
  // of the per-element UnaryOp closure.
  APAN_CHECK(a.defined());
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  const size_t n = pa->data.size();
  for (size_t i = 0; i < n; ++i) out->data[i] = pa->data[i] * s;
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw, n, s] {
      pa->EnsureGrad();
      kernels::Axpy(s, raw->grad.data(), pa->grad.data(),
                    static_cast<int64_t>(n));
    });
  }
  return Tensor::WrapImpl(out);
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

// ---- Activations -----------------------------------------------------------

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float g, float x, float) { return x > 0.0f ? g : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float slope) {
  return UnaryOp(
      a, [slope](float x) { return x > 0.0f ? x : slope * x; },
      [slope](float g, float x, float) { return x > 0.0f ? g : slope * g; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return StableSigmoid(x); },
      [](float g, float, float y) { return g * y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float g, float, float y) { return g * (1.0f - y * y); });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float g, float, float y) { return g * y; });
}

Tensor Log(const Tensor& a, float eps) {
  return UnaryOp(
      a, [eps](float x) { return std::log(std::max(x, eps)); },
      [eps](float g, float x, float) { return g / std::max(x, eps); });
}

Tensor Cos(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::cos(x); },
      [](float g, float x, float) { return -g * std::sin(x); });
}

Tensor AddBiasRelu(const Tensor& a, const Tensor& bias) {
  APAN_CHECK(a.defined() && bias.defined());
  APAN_CHECK_MSG(bias.rank() == 1 && bias.dim(0) == LastDim(a.shape()),
                 "AddBiasRelu bias must be rank-1 over the last dim");
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  const ImplPtr pb = bias.impl();
  const size_t n = pa->data.size();
  const int64_t d = LastDim(pa->shape);
  const int64_t rows = static_cast<int64_t>(n) / d;
  kernels::AddBiasRelu(pa->data.data(), pb->data.data(), out->data.data(),
                       rows, d);
  Impl* raw = out.get();
  if (Rec(pa, pb)) {
    Register(out, {pa, pb}, [pa, pb, raw, rows, d] {
      // relu'(y) in terms of the output: y > 0 <=> (x + bias) > 0.
      if (pa->requires_grad) pa->EnsureGrad();
      if (pb->requires_grad) pb->EnsureGrad();
      kernels::AddBiasReluBackward(
          raw->data.data(), raw->grad.data(),
          pa->requires_grad ? pa->grad.data() : nullptr,
          pb->requires_grad ? pb->grad.data() : nullptr, rows, d);
    });
  }
  return Tensor::WrapImpl(out);
}

Tensor ForwardBuffer(Shape shape, bool zero) {
  return Tensor::WrapImpl(NewImpl(std::move(shape), zero));
}

// ---- Linear algebra --------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  APAN_CHECK(a.defined() && b.defined());
  APAN_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "MatMul expects rank-2");
  const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  APAN_CHECK_MSG(b.dim(0) == k, "MatMul inner dimension mismatch");
  auto out = NewImpl({n, m}, /*zero=*/false);
  const ImplPtr pa = a.impl();
  const ImplPtr pb = b.impl();
  // Serve calls (NoGrad) run the cross-ISA bitwise GEMM; a recorded
  // forward feeds the training graph, so the FMA tier is legal for it —
  // the same per-ISA contract the backward kernels live under.
  if (NoGradGuard::GradEnabled()) {
    kernels::MatMulTrain(pa->data.data(), pb->data.data(), out->data.data(),
                         n, k, m);
  } else {
    kernels::MatMul(pa->data.data(), pb->data.data(), out->data.data(), n, k,
                    m);
  }
  Impl* raw = out.get();
  if (!Rec(pa, pb)) return Tensor::WrapImpl(out);
  Register(out, {pa, pb}, [pa, pb, raw, n, k, m] {
    const float* G = raw->grad.data();
    if (pa->requires_grad) {
      pa->EnsureGrad();  // dA += G * B^T : {n,m} x {m,k}
      kernels::MatMulGradA(G, pb->data.data(), pa->grad.data(), n, k, m);
    }
    if (pb->requires_grad) {
      pb->EnsureGrad();  // dB += A^T * G : {k,n} x {n,m}
      kernels::MatMulGradB(pa->data.data(), G, pb->grad.data(), n, k, m);
    }
  });
  return Tensor::WrapImpl(out);
}

Tensor Bmm(const Tensor& a, const Tensor& b) {
  APAN_CHECK(a.defined() && b.defined());
  APAN_CHECK_MSG(a.rank() == 3 && b.rank() == 3, "Bmm expects rank-3");
  const int64_t bs = a.dim(0), n = a.dim(1), k = a.dim(2), m = b.dim(2);
  APAN_CHECK_MSG(b.dim(0) == bs && b.dim(1) == k,
                 "Bmm batch/inner dimension mismatch");
  auto out = NewImpl({bs, n, m}, /*zero=*/false);
  const ImplPtr pa = a.impl();
  const ImplPtr pb = b.impl();
  if (NoGradGuard::GradEnabled()) {
    kernels::BmmTrain(pa->data.data(), pb->data.data(), out->data.data(), bs,
                      n, k, m);
  } else {
    kernels::Bmm(pa->data.data(), pb->data.data(), out->data.data(), bs, n,
                 k, m);
  }
  Impl* raw = out.get();
  if (!Rec(pa, pb)) return Tensor::WrapImpl(out);
  Register(out, {pa, pb}, [pa, pb, raw, bs, n, k, m] {
    if (pa->requires_grad) pa->EnsureGrad();
    if (pb->requires_grad) pb->EnsureGrad();
    for (int64_t t = 0; t < bs; ++t) {
      const float* G = raw->grad.data() + t * n * m;
      if (pa->requires_grad) {
        kernels::MatMulGradA(G, pb->data.data() + t * k * m,
                             pa->grad.data() + t * n * k, n, k, m);
      }
      if (pb->requires_grad) {
        kernels::MatMulGradB(pa->data.data() + t * n * k, G,
                             pb->grad.data() + t * k * m, n, k, m);
      }
    }
  });
  return Tensor::WrapImpl(out);
}

Tensor Transpose2D(const Tensor& a) {
  APAN_CHECK(a.defined() && a.rank() == 2);
  return Permute(a, {1, 0});
}

namespace {

std::vector<int64_t> RowMajorStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t acc = 1;
  for (size_t i = shape.size(); i-- > 0;) {
    strides[i] = acc;
    acc *= shape[i];
  }
  return strides;
}

}  // namespace

namespace {

/// Walk state for a permute: the input strides reordered to the output's
/// dimension order, plus the output extents. When the innermost output
/// dim is also the innermost input dim, whole rows of `run` elements are
/// contiguous on BOTH sides and the walk visits runs instead of
/// elements. Incremental odometer — no per-element div/mod, no
/// materialized index map (the old implementation heap-allocated an
/// n-entry src_index per call and divided rank times per element; this
/// showed up as ~half the training-epoch profile via attention's head
/// split/transpose).
struct PermuteWalk {
  std::vector<int64_t> step;    ///< input stride per output dim
  std::vector<int64_t> extent;  ///< output extents
  size_t odo_rank = 0;          ///< dims the odometer iterates
  int64_t run = 1;              ///< contiguous elements per visit
};

PermuteWalk MakePermuteWalk(const Shape& in_shape,
                            const std::vector<size_t>& perm) {
  const size_t rank = perm.size();
  const auto in_strides = RowMajorStrides(in_shape);
  PermuteWalk w;
  w.step.resize(rank);
  w.extent.resize(rank);
  for (size_t d = 0; d < rank; ++d) {
    w.step[d] = in_strides[perm[d]];
    w.extent[d] = in_shape[perm[d]];
  }
  const bool inner_contig = rank > 0 && perm[rank - 1] == rank - 1;
  w.run = inner_contig ? w.extent[rank - 1] : 1;
  w.odo_rank = inner_contig ? rank - 1 : rank;
  return w;
}

/// Calls body(out_flat, in_flat) once per contiguous run, in output
/// order. `n` is the total element count.
template <typename Body>
void ForEachPermuteRun(const PermuteWalk& w, size_t n, Body&& body) {
  if (n == 0 || w.run == 0) return;
  std::vector<int64_t> coord(w.odo_rank, 0);
  int64_t src = 0;
  size_t flat = 0;
  while (true) {
    body(flat, static_cast<size_t>(src));
    flat += static_cast<size_t>(w.run);
    if (flat >= n) break;
    size_t d = w.odo_rank;
    while (d-- > 0) {
      src += w.step[d];
      if (++coord[d] < w.extent[d]) break;
      src -= w.step[d] * w.extent[d];
      coord[d] = 0;
    }
  }
}

}  // namespace

Tensor Permute(const Tensor& a, const std::vector<size_t>& perm) {
  APAN_CHECK(a.defined());
  const Shape& in_shape = a.shape();
  APAN_CHECK_MSG(perm.size() == in_shape.size(), "Permute rank mismatch");
  Shape out_shape(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    APAN_CHECK(perm[i] < in_shape.size());
    out_shape[i] = in_shape[perm[i]];
  }
  auto out = NewImpl(out_shape, /*zero=*/false);
  const ImplPtr pa = a.impl();
  const size_t n = pa->data.size();
  const PermuteWalk walk = MakePermuteWalk(in_shape, perm);
  if (walk.run == 1) {
    ForEachPermuteRun(walk, n, [&](size_t flat, size_t src) {
      out->data[flat] = pa->data[src];
    });
  } else {
    const size_t run_bytes = static_cast<size_t>(walk.run) * sizeof(float);
    ForEachPermuteRun(walk, n, [&](size_t flat, size_t src) {
      std::memcpy(out->data.data() + flat, pa->data.data() + src, run_bytes);
    });
  }
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw, walk, n] {
      pa->EnsureGrad();
      if (walk.run == 1) {
        ForEachPermuteRun(walk, n, [&](size_t flat, size_t src) {
          pa->grad[src] += raw->grad[flat];
        });
      } else {
        ForEachPermuteRun(walk, n, [&](size_t flat, size_t src) {
          kernels::Accumulate(raw->grad.data() + flat, pa->grad.data() + src,
                              walk.run);
        });
      }
    });
  }
  return Tensor::WrapImpl(out);
}

Tensor Reshape(const Tensor& a, Shape new_shape) {
  APAN_CHECK(a.defined());
  APAN_CHECK_MSG(NumElements(new_shape) == a.numel(),
                 "Reshape element count mismatch");
  auto out = NewImpl(std::move(new_shape), /*zero=*/false);
  const ImplPtr pa = a.impl();
  out->data = pa->data;
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw] {
      pa->EnsureGrad();
      kernels::Accumulate(raw->grad.data(), pa->grad.data(),
                          static_cast<int64_t>(raw->grad.size()));
    });
  }
  return Tensor::WrapImpl(out);
}

// ---- Structure -------------------------------------------------------------

Tensor ConcatLastDim(const std::vector<Tensor>& parts) {
  APAN_CHECK_MSG(!parts.empty(), "ConcatLastDim on empty list");
  const Shape& s0 = parts[0].shape();
  int64_t total_last = 0;
  for (const Tensor& p : parts) {
    APAN_CHECK(p.defined() && p.rank() == s0.size());
    for (size_t d = 0; d + 1 < s0.size(); ++d) {
      APAN_CHECK_MSG(p.dim(d) == s0[d], "ConcatLastDim leading dim mismatch");
    }
    total_last += LastDim(p.shape());
  }
  Shape out_shape = s0;
  out_shape.back() = total_last;
  auto out = NewImpl(out_shape, /*zero=*/false);
  const int64_t rows = LeadingRows(out_shape);
  std::vector<ImplPtr> parents;
  parents.reserve(parts.size());
  std::vector<int64_t> widths;
  for (const Tensor& p : parts) {
    parents.push_back(p.impl());
    widths.push_back(LastDim(p.shape()));
  }
  for (int64_t r = 0; r < rows; ++r) {
    int64_t offset = 0;
    for (size_t pi = 0; pi < parents.size(); ++pi) {
      const int64_t w = widths[pi];
      std::copy_n(parents[pi]->data.data() + r * w, w,
                  out->data.data() + r * total_last + offset);
      offset += w;
    }
  }
  Impl* raw = out.get();
  if (!AnyRequiresGrad(parents)) return Tensor::WrapImpl(out);
  Register(out, parents,
           [parents, raw, widths = std::move(widths), rows, total_last] {
             for (int64_t r = 0; r < rows; ++r) {
               int64_t offset = 0;
               for (size_t pi = 0; pi < parents.size(); ++pi) {
                 const int64_t w = widths[pi];
                 if (parents[pi]->requires_grad) {
                   parents[pi]->EnsureGrad();
                   kernels::Accumulate(
                       raw->grad.data() + r * total_last + offset,
                       parents[pi]->grad.data() + r * w, w);
                 }
                 offset += w;
               }
             }
           });
  return Tensor::WrapImpl(out);
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  APAN_CHECK_MSG(!parts.empty(), "ConcatRows on empty list");
  const Shape& s0 = parts[0].shape();
  int64_t total_first = 0;
  for (const Tensor& p : parts) {
    APAN_CHECK(p.defined() && p.rank() == s0.size());
    for (size_t d = 1; d < s0.size(); ++d) {
      APAN_CHECK_MSG(p.dim(d) == s0[d], "ConcatRows trailing dim mismatch");
    }
    total_first += p.dim(0);
  }
  Shape out_shape = s0;
  out_shape[0] = total_first;
  auto out = NewImpl(out_shape, /*zero=*/false);
  std::vector<ImplPtr> parents;
  size_t offset = 0;
  for (const Tensor& p : parts) {
    parents.push_back(p.impl());
    std::copy(p.impl()->data.begin(), p.impl()->data.end(),
              out->data.begin() + offset);
    offset += p.impl()->data.size();
  }
  Impl* raw = out.get();
  if (!AnyRequiresGrad(parents)) return Tensor::WrapImpl(out);
  Register(out, parents, [parents, raw] {
    size_t offset = 0;
    for (const auto& p : parents) {
      if (p->requires_grad) {
        p->EnsureGrad();
        kernels::Accumulate(raw->grad.data() + offset, p->grad.data(),
                            static_cast<int64_t>(p->data.size()));
      }
      offset += p->data.size();
    }
  });
  return Tensor::WrapImpl(out);
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices) {
  APAN_CHECK(a.defined() && a.rank() == 2);
  const int64_t n = a.dim(0), d = a.dim(1);
  for (int64_t idx : indices) {
    APAN_CHECK_MSG(idx >= 0 && idx < n, "GatherRows index out of range");
  }
  auto out = NewImpl({static_cast<int64_t>(indices.size()), d}, /*zero=*/false);
  const ImplPtr pa = a.impl();
  for (size_t r = 0; r < indices.size(); ++r) {
    std::copy_n(pa->data.data() + indices[r] * d, d,
                out->data.data() + static_cast<int64_t>(r) * d);
  }
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw, indices, d] {
      pa->EnsureGrad();
      for (size_t r = 0; r < indices.size(); ++r) {
        kernels::Accumulate(raw->grad.data() + static_cast<int64_t>(r) * d,
                            pa->grad.data() + indices[r] * d, d);
      }
    });
  }
  return Tensor::WrapImpl(out);
}

Tensor SliceCols(const Tensor& a, int64_t col_begin, int64_t col_end) {
  APAN_CHECK(a.defined() && a.rank() == 2);
  const int64_t n = a.dim(0), m = a.dim(1);
  APAN_CHECK_MSG(0 <= col_begin && col_begin < col_end && col_end <= m,
                 "SliceCols range invalid");
  const int64_t w = col_end - col_begin;
  auto out = NewImpl({n, w}, /*zero=*/false);
  const ImplPtr pa = a.impl();
  for (int64_t i = 0; i < n; ++i) {
    std::copy_n(pa->data.data() + i * m + col_begin, w,
                out->data.data() + i * w);
  }
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw, n, m, w, col_begin] {
      pa->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) {
        kernels::Accumulate(raw->grad.data() + i * w,
                            pa->grad.data() + i * m + col_begin, w);
      }
    });
  }
  return Tensor::WrapImpl(out);
}

// ---- Normalization / attention helpers --------------------------------------

Tensor SoftmaxLastDim(const Tensor& a) {
  APAN_CHECK(a.defined());
  const int64_t d = LastDim(a.shape());
  const int64_t rows = LeadingRows(a.shape());
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  kernels::SoftmaxLastDim(pa->data.data(), out->data.data(), rows, d);
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw, rows, d] {
      pa->EnsureGrad();
      kernels::SoftmaxBackward(raw->data.data(), raw->grad.data(),
                               pa->grad.data(), rows, d);
    });
  }
  return Tensor::WrapImpl(out);
}

Tensor LogSoftmaxLastDim(const Tensor& a) {
  APAN_CHECK(a.defined());
  const int64_t d = LastDim(a.shape());
  const int64_t rows = LeadingRows(a.shape());
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  for (int64_t r = 0; r < rows; ++r) {
    const float* x = pa->data.data() + r * d;
    float* y = out->data.data() + r * d;
    float mx = x[0];
    for (int64_t j = 1; j < d; ++j) mx = std::max(mx, x[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < d; ++j) sum += std::exp(x[j] - mx);
    const float lse = mx + std::log(sum);
    for (int64_t j = 0; j < d; ++j) y[j] = x[j] - lse;
  }
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw, rows, d] {
      pa->EnsureGrad();
      for (int64_t r = 0; r < rows; ++r) {
        const float* y = raw->data.data() + r * d;
        const float* g = raw->grad.data() + r * d;
        float gsum = 0.0f;
        for (int64_t j = 0; j < d; ++j) gsum += g[j];
        float* dx = pa->grad.data() + r * d;
        for (int64_t j = 0; j < d; ++j) {
          dx[j] += g[j] - std::exp(y[j]) * gsum;
        }
      }
    });
  }
  return Tensor::WrapImpl(out);
}

Tensor RowNormalize(const Tensor& a, float eps) {
  APAN_CHECK(a.defined());
  const int64_t d = LastDim(a.shape());
  const int64_t rows = LeadingRows(a.shape());
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  const bool recording = Rec(pa);
  // The backward pass needs 1/sigma per row; skip materializing it in
  // inference mode.
  std::vector<float> inv_sigma(recording ? static_cast<size_t>(rows) : 0);
  kernels::RowNormalize(pa->data.data(), out->data.data(), rows, d, eps,
                        recording ? inv_sigma.data() : nullptr);
  Impl* raw = out.get();
  if (recording) {
    Register(out, {pa},
             [pa, raw, rows, d, inv_sigma = std::move(inv_sigma)] {
               pa->EnsureGrad();
               kernels::RowNormalizeBackward(raw->data.data(),
                                             raw->grad.data(),
                                             inv_sigma.data(),
                                             pa->grad.data(), rows, d);
             });
  }
  return Tensor::WrapImpl(out);
}

Tensor Dropout(const Tensor& a, float p, bool training, Rng* rng) {
  APAN_CHECK(a.defined());
  APAN_CHECK_MSG(p >= 0.0f && p < 1.0f, "dropout probability out of range");
  if (!training || p == 0.0f) return a;
  APAN_CHECK(rng != nullptr);
  auto out = NewImpl(a.shape(), /*zero=*/false);
  const ImplPtr pa = a.impl();
  const size_t n = pa->data.size();
  const float scale = 1.0f / (1.0f - p);
  std::vector<float> mask(n);
  for (size_t i = 0; i < n; ++i) {
    mask[i] = rng->Bernoulli(p) ? 0.0f : scale;
    out->data[i] = pa->data[i] * mask[i];
  }
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw, mask = std::move(mask), n] {
      pa->EnsureGrad();
      kernels::AccumulateMul(raw->grad.data(), mask.data(), pa->grad.data(),
                             static_cast<int64_t>(n));
    });
  }
  return Tensor::WrapImpl(out);
}

// ---- Reductions ------------------------------------------------------------

Tensor SumAll(const Tensor& a) {
  APAN_CHECK(a.defined());
  auto out = NewImpl({1}, /*zero=*/false);
  const ImplPtr pa = a.impl();
  float s = 0.0f;
  for (float v : pa->data) s += v;
  out->data[0] = s;
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw] {
      pa->EnsureGrad();
      const float g = raw->grad[0];
      for (auto& dv : pa->grad) dv += g;
    });
  }
  return Tensor::WrapImpl(out);
}

Tensor MeanAll(const Tensor& a) {
  APAN_CHECK(a.defined());
  const float inv = 1.0f / static_cast<float>(a.numel());
  return MulScalar(SumAll(a), inv);
}

Tensor MeanDim1(const Tensor& a) {
  APAN_CHECK(a.defined() && a.rank() == 3);
  const int64_t b = a.dim(0), m = a.dim(1), d = a.dim(2);
  auto out = NewImpl({b, d});
  const ImplPtr pa = a.impl();
  const float inv = 1.0f / static_cast<float>(m);
  for (int64_t t = 0; t < b; ++t) {
    float* y = out->data.data() + t * d;
    for (int64_t i = 0; i < m; ++i) {
      const float* x = pa->data.data() + (t * m + i) * d;
      for (int64_t j = 0; j < d; ++j) y[j] += x[j];
    }
    for (int64_t j = 0; j < d; ++j) y[j] *= inv;
  }
  Impl* raw = out.get();
  if (Rec(pa)) {
    Register(out, {pa}, [pa, raw, b, m, d, inv] {
      pa->EnsureGrad();
      for (int64_t t = 0; t < b; ++t) {
        const float* g = raw->grad.data() + t * d;
        for (int64_t i = 0; i < m; ++i) {
          kernels::Axpy(inv, g, pa->grad.data() + (t * m + i) * d, d);
        }
      }
    });
  }
  return Tensor::WrapImpl(out);
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  APAN_CHECK(a.defined() && b.defined());
  APAN_CHECK_MSG(a.rank() == 2 && a.shape() == b.shape(),
                 "RowwiseDot expects equal rank-2 shapes");
  const int64_t n = a.dim(0), d = a.dim(1);
  auto out = NewImpl({n, 1}, /*zero=*/false);
  const ImplPtr pa = a.impl();
  const ImplPtr pb = b.impl();
  for (int64_t i = 0; i < n; ++i) {
    out->data[static_cast<size_t>(i)] = kernels::Dot(
        pa->data.data() + i * d, pb->data.data() + i * d, d);
  }
  Impl* raw = out.get();
  if (!Rec(pa, pb)) return Tensor::WrapImpl(out);
  Register(out, {pa, pb}, [pa, pb, raw, n, d] {
    if (pa->requires_grad) pa->EnsureGrad();
    if (pb->requires_grad) pb->EnsureGrad();
    for (int64_t i = 0; i < n; ++i) {
      const float g = raw->grad[static_cast<size_t>(i)];
      if (g == 0.0f) continue;
      if (pa->requires_grad) {
        kernels::Axpy(g, pb->data.data() + i * d, pa->grad.data() + i * d, d);
      }
      if (pb->requires_grad) {
        kernels::Axpy(g, pa->data.data() + i * d, pb->grad.data() + i * d, d);
      }
    }
  });
  return Tensor::WrapImpl(out);
}

// ---- Losses ----------------------------------------------------------------

Tensor BceWithLogits(const Tensor& logits,
                     const std::vector<float>& targets) {
  APAN_CHECK(logits.defined());
  const size_t n = static_cast<size_t>(logits.numel());
  APAN_CHECK_MSG(targets.size() == n, "BceWithLogits target size mismatch");
  auto out = NewImpl({1}, /*zero=*/false);
  const ImplPtr pl = logits.impl();
  float loss = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float x = pl->data[i];
    const float t = targets[i];
    // max(x,0) - x*t + log(1 + exp(-|x|)) — the stable form.
    loss += std::max(x, 0.0f) - x * t + std::log1p(std::exp(-std::abs(x)));
  }
  out->data[0] = loss / static_cast<float>(n);
  Impl* raw = out.get();
  if (!Rec(pl)) return Tensor::WrapImpl(out);
  Register(out, {pl}, [pl, raw, targets, n] {
    if (!pl->requires_grad) return;
    pl->EnsureGrad();
    const float g = raw->grad[0] / static_cast<float>(n);
    for (size_t i = 0; i < n; ++i) {
      const float x = pl->data[i];
      float sig;
      if (x >= 0.0f) {
        const float z = std::exp(-x);
        sig = 1.0f / (1.0f + z);
      } else {
        const float z = std::exp(x);
        sig = z / (1.0f + z);
      }
      pl->grad[i] += g * (sig - targets[i]);
    }
  });
  return Tensor::WrapImpl(out);
}

Tensor GaussianKl(const Tensor& mu, const Tensor& logvar) {
  APAN_CHECK(mu.defined() && logvar.defined());
  APAN_CHECK_MSG(mu.shape() == logvar.shape(), "GaussianKl shape mismatch");
  const int64_t n = mu.dim(0);
  auto out = NewImpl({1}, /*zero=*/false);
  const ImplPtr pm = mu.impl();
  const ImplPtr pv = logvar.impl();
  float kl = 0.0f;
  for (size_t i = 0; i < pm->data.size(); ++i) {
    const float m = pm->data[i];
    const float lv = pv->data[i];
    kl += -0.5f * (1.0f + lv - m * m - std::exp(lv));
  }
  out->data[0] = kl / static_cast<float>(n);
  Impl* raw = out.get();
  if (!Rec(pm, pv)) return Tensor::WrapImpl(out);
  Register(out, {pm, pv}, [pm, pv, raw, n] {
    const float g = raw->grad[0] / static_cast<float>(n);
    if (pm->requires_grad) {
      pm->EnsureGrad();
      for (size_t i = 0; i < pm->data.size(); ++i) {
        pm->grad[i] += g * pm->data[i];
      }
    }
    if (pv->requires_grad) {
      pv->EnsureGrad();
      for (size_t i = 0; i < pv->data.size(); ++i) {
        pv->grad[i] += g * 0.5f * (std::exp(pv->data[i]) - 1.0f);
      }
    }
  });
  return Tensor::WrapImpl(out);
}

}  // namespace tensor
}  // namespace apan
