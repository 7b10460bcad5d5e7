// Kernel implementations. Three tiers share one numeric contract:
//
//   * reductions accumulate in fixed 8-lane blocked order (lane l takes
//     elements l, l+8, ...; a trailing partial block fills lanes 0..r-1)
//     and the lanes combine in one fixed binary tree;
//   * multiplies and adds stay separate operations (this file is built
//     with -ffp-contract=off so neither the compiler nor an FMA-capable
//     ISA can fuse them);
//   * per-row outputs read only that row's inputs.
//
// Under that contract the scalar, AVX2 and NEON tiers are bitwise
// interchangeable, which is what lets the dispatcher pick freely at
// startup without perturbing the serving tier's determinism tests.

#include "tensor/kernels.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define APAN_KERNELS_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define APAN_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace apan {
namespace tensor {
namespace kernels {

namespace {

/// Fixed combine tree for 8 blocked lanes (shared by every tier).
inline float Tree8(const float* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

// ---- Softmax exponential (shared by every tier) ------------------------------
//
// exp(x) for x <= 0, the domain of softmax's max-shifted scores, written
// once on 8-lane generic vectors: each tier inlines the same IEEE
// operations under its own target (plain SSE/NEON halves in the scalar
// and NEON tiers, ymm registers in the AVX2 tier), so every tier is
// bitwise equal lane for lane. Cephes expf: n = round(x / ln 2) by the
// 1.5 * 2^23 rounding trick, r = x - n ln 2 in two pieces (the high piece
// is exact in 9 bits, so n * kLn2Hi is exact), a degree-5 polynomial in
// r, then 2^n built straight in the exponent field. Multiplies and adds
// stay separate (no FMA), like every other serve kernel. Below ln(FLT_MIN)
// the result is exactly 0 — where std::exp returns a denormal (< 1.2e-38)
// — so an attention slot masked with kMaskedOut gets exactly 0 weight.
// NaN propagates. Max error vs std::exp: docs/performance.md.

typedef float F8 __attribute__((vector_size(32)));
typedef uint32_t U8 __attribute__((vector_size(32)));

#define APAN_SPLAT8(v) {v, v, v, v, v, v, v, v}
constexpr F8 kExpMin = APAN_SPLAT8(-87.33654475f);  // ln(FLT_MIN)
// Underflowing lanes compute exp(-87) instead: normal, where clamping at
// kExpMin itself would yield a denormal and a slow microcode assist.
constexpr F8 kExpClamp = APAN_SPLAT8(-87.0f);
constexpr F8 kLog2e = APAN_SPLAT8(1.44269504088896341f);
constexpr F8 kRoundMagic = APAN_SPLAT8(12582912.0f);  // 1.5 * 2^23
constexpr F8 kLn2Hi = APAN_SPLAT8(0.693359375f);
constexpr F8 kLn2Lo = APAN_SPLAT8(-2.12194440e-4f);
constexpr F8 kExpP0 = APAN_SPLAT8(1.9875691500e-4f);
constexpr F8 kExpP1 = APAN_SPLAT8(1.3981999507e-3f);
constexpr F8 kExpP2 = APAN_SPLAT8(8.3334519073e-3f);
constexpr F8 kExpP3 = APAN_SPLAT8(4.1665795894e-2f);
constexpr F8 kExpP4 = APAN_SPLAT8(1.6666665459e-1f);
constexpr F8 kExpP5 = APAN_SPLAT8(5.0000001201e-1f);
constexpr F8 kOne = APAN_SPLAT8(1.0f);
constexpr U8 kExpBias = APAN_SPLAT8(127u);
#undef APAN_SPLAT8

/// exp of the 8 floats at `in` into `out` (may alias).
__attribute__((always_inline)) inline void Exp8(const float* in, float* out) {
  F8 x;
  std::memcpy(&x, in, sizeof(x));
  // Lanes that underflow are clamped (keeping every intermediate normal)
  // and zeroed at the end; NaN compares false and flows through.
  const U8 flush = reinterpret_cast<U8>(x < kExpMin);
  x = reinterpret_cast<F8>((flush & reinterpret_cast<U8>(kExpClamp)) |
                           (~flush & reinterpret_cast<U8>(x)));
  const F8 t = x * kLog2e + kRoundMagic;  // n + 1.5 * 2^23, n integral
  const F8 n = t - kRoundMagic;
  F8 r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  const F8 r2 = r * r;
  F8 y = kExpP0 * r + kExpP1;
  y = y * r + kExpP2;
  y = y * r + kExpP3;
  y = y * r + kExpP4;
  y = y * r + kExpP5;
  y = y * r2 + r + kOne;
  // t's low mantissa bits hold n: 2^n = (n + 127) << 23 as float bits.
  const U8 scale =
      (reinterpret_cast<U8>(t) - reinterpret_cast<U8>(kRoundMagic) +
       kExpBias)
      << 23;
  y = y * reinterpret_cast<F8>(scale);
  y = reinterpret_cast<F8>(reinterpret_cast<U8>(y) & ~flush);
  std::memcpy(out, &y, sizeof(y));
}

/// y[i] = exp(x[i]) over a contiguous block (x may equal y). The tail
/// runs through the same 8-lane code on a padded copy, so an element's
/// result never depends on its position.
__attribute__((always_inline)) inline void ExpBlock(const float* x, float* y,
                                                    int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) Exp8(x + i, y + i);
  if (i < n) {
    float tail[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::memcpy(tail, x + i, static_cast<size_t>(n - i) * sizeof(float));
    Exp8(tail, tail);
    std::memcpy(y + i, tail, static_cast<size_t>(n - i) * sizeof(float));
  }
}

}  // namespace

// ---- Naive serial reference -------------------------------------------------

namespace reference {

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    float* crow = c + i * m;
    for (int64_t j = 0; j < m; ++j) crow[j] = 0.0f;
    const float* arow = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = b + kk * m;
      for (int64_t j = 0; j < m; ++j) crow[j] += aik * brow[j];
    }
  }
}

void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m) {
  for (int64_t t = 0; t < bs; ++t) {
    MatMul(a + t * n * k, b + t * k * m, c + t * n * m, n, k, m);
  }
}

void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    float mx = xr[0];
    for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < d; ++j) {
      yr[j] = std::exp(xr[j] - mx);
      sum += yr[j];
    }
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < d; ++j) yr[j] *= inv;
  }
}

void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    float mu = 0.0f;
    for (int64_t j = 0; j < d; ++j) mu += xr[j];
    mu /= static_cast<float>(d);
    float var = 0.0f;
    for (int64_t j = 0; j < d; ++j) var += (xr[j] - mu) * (xr[j] - mu);
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[r] = inv;
    for (int64_t j = 0; j < d; ++j) yr[j] = (xr[j] - mu) * inv;
  }
}

void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    for (int64_t j = 0; j < d; ++j) {
      const float v = xr[j] + bias[j];
      yr[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

float Dot(const float* a, const float* b, int64_t n) {
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void Exp(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
}

}  // namespace reference

// ---- Portable blocked-scalar tier -------------------------------------------

namespace scalar {

namespace {

inline float BlockedDot(const float* a, const float* b, int64_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) acc[l] += a[i + l] * b[i + l];
  }
  for (int l = 0; i < n; ++i, ++l) acc[l] += a[i] * b[i];
  return Tree8(acc);
}

inline float BlockedSum(const float* a, int64_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) acc[l] += a[i + l];
  }
  for (int l = 0; i < n; ++i, ++l) acc[l] += a[i];
  return Tree8(acc);
}

inline float BlockedSqDiffSum(const float* a, float mu, int64_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      const float t = a[i + l] - mu;
      acc[l] += t * t;
    }
  }
  for (int l = 0; i < n; ++i, ++l) {
    const float t = a[i] - mu;
    acc[l] += t * t;
  }
  return Tree8(acc);
}

/// Softmax's first pass over one row: yr = (xr + add) - max, so every
/// shifted score is <= 0. xr may equal yr; `add` (nullable) is an
/// additive pre-softmax term (the attention mask).
inline void ShiftRow(const float* xr, const float* add, float* yr,
                     int64_t d) {
  if (add != nullptr) {
    for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] + add[j];
    xr = yr;
  }
  float mx = xr[0];
  for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
  for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] - mx;
}

/// Softmax's last pass over one row of exponentials: divide by the sum.
inline void NormalizeRow(float* yr, int64_t d) {
  const float inv = 1.0f / BlockedSum(yr, d);
  for (int64_t j = 0; j < d; ++j) yr[j] *= inv;
}

/// c[i, j] = sum_kk a[i, kk] * b[kk, j] over row strides lda / ldb / ldc,
/// serial over kk (the MatMul order) — for operands that are column
/// blocks of wider matrices.
inline void MatMulRows(const float* a, int64_t lda, const float* b,
                       int64_t ldb, float* c, int64_t ldc, int64_t n,
                       int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < m; ++j) crow[j] = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = b + kk * ldb;
      for (int64_t j = 0; j < m; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  // Serial-over-k accumulation per element == the reference ikj order.
  reference::MatMul(a, b, c, n, k, m);
}

void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m) {
  for (int64_t t = 0; t < bs; ++t) {
    MatMul(a + t * n * k, b + t * k * m, c + t * n * m, n, k, m);
  }
}

void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) ShiftRow(x + r * d, nullptr, y + r * d, d);
  ExpBlock(y, y, rows * d);
  for (int64_t r = 0; r < rows; ++r) NormalizeRow(y + r * d, d);
}

void MaskedSoftmax(const float* scores, const float* mask, float* y,
                   int64_t b, int64_t h, int64_t m) {
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* mrow = mask != nullptr ? mask + bi * m : nullptr;
    for (int64_t hi = 0; hi < h; ++hi) {
      const int64_t off = (bi * h + hi) * m;
      ShiftRow(scores + off, mrow, y + off, m);
    }
  }
  ExpBlock(y, y, b * h * m);
  for (int64_t r = 0; r < b * h; ++r) NormalizeRow(y + r * m, m);
}

void Exp(const float* x, float* y, int64_t n) { ExpBlock(x, y, n); }

void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    const float mu = BlockedSum(xr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(xr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[r] = inv;
    for (int64_t j = 0; j < d; ++j) yr[j] = (xr[j] - mu) * inv;
  }
}

void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d) {
  reference::AddBiasRelu(x, bias, y, rows, d);
}

void AddBias(const float* x, const float* bias, float* y, int64_t rows,
             int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] + bias[j];
  }
}

void AddSame(const float* a, const float* b, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

float Dot(const float* a, const float* b, int64_t n) {
  return BlockedDot(a, b, n);
}

void AttentionScores(const float* q, const float* wk, const float* keys,
                     float* u, float* scores, int64_t b, int64_t h,
                     int64_t m, int64_t dk, int64_t dh, float scale) {
  const int64_t d = h * dh;
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t hi = 0; hi < h; ++hi) {
      const float* qh = q + bi * d + hi * dh;
      for (int64_t i = 0; i < dk; ++i) {
        u[hi * dk + i] = BlockedDot(wk + i * d + hi * dh, qh, dh);
      }
    }
    const float* kb = keys + bi * m * dk;
    for (int64_t hi = 0; hi < h; ++hi) {
      float* srow = scores + (bi * h + hi) * m;
      for (int64_t s = 0; s < m; ++s) {
        srow[s] = scale * BlockedDot(kb + s * dk, u + hi * dk, dk);
      }
    }
  }
}

void AttentionContext(const float* attn, const float* values, const float* wv,
                      float* sv, float* ctx, int64_t b, int64_t h, int64_t m,
                      int64_t dv, int64_t dh) {
  const int64_t d = h * dh;
  for (int64_t bi = 0; bi < b; ++bi) {
    MatMulRows(attn + bi * h * m, m, values + bi * m * dv, dv, sv, dv, h, m,
               dv);
    for (int64_t hi = 0; hi < h; ++hi) {
      MatMulRows(sv + hi * dv, dv, wv + hi * dh, d, ctx + bi * d + hi * dh, d,
                 1, dv, dh);
    }
  }
}

void ResidualLayerNorm(const float* x, const float* residual,
                       const float* gain, const float* bias, float* y,
                       int64_t rows, int64_t d, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    const float* rr = residual + r * d;
    float* yr = y + r * d;
    for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] + rr[j];
    const float mu = BlockedSum(yr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(yr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    for (int64_t j = 0; j < d; ++j) {
      yr[j] = ((yr[j] - mu) * inv) * gain[j] + bias[j];
    }
  }
}

}  // namespace scalar

// ---- AVX2 tier --------------------------------------------------------------

#if defined(APAN_KERNELS_X86)

namespace avx2 {

namespace {

/// Lanes of `acc` plus a trailing partial block folded into lanes
/// 0..tail_n-1, combined by the shared tree. `tail(t)` yields term t.
template <typename TailFn>
__attribute__((target("avx2"))) inline float ReduceBlocked(__m256 acc,
                                                           int64_t tail_n,
                                                           TailFn tail) {
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int64_t t = 0; t < tail_n; ++t) lanes[t] += tail(t);
  return Tree8(lanes);
}

__attribute__((target("avx2"))) inline float BlockedDot(const float* a,
                                                        const float* b,
                                                        int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base,
                       [&](int64_t t) { return a[base + t] * b[base + t]; });
}

__attribute__((target("avx2"))) inline float BlockedSum(const float* a,
                                                        int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) acc = _mm256_add_ps(acc, _mm256_loadu_ps(a + i));
  const int64_t base = i;
  return ReduceBlocked(acc, n - base, [&](int64_t t) { return a[base + t]; });
}

__attribute__((target("avx2"))) inline float BlockedSqDiffSum(const float* a,
                                                              float mu,
                                                              int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  const __m256 vmu = _mm256_set1_ps(mu);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_sub_ps(_mm256_loadu_ps(a + i), vmu);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(t, t));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base, [&](int64_t t) {
    const float v = a[base + t] - mu;
    return v * v;
  });
}

__attribute__((target("avx2"))) inline void ShiftRow(const float* xr,
                                                     const float* add,
                                                     float* yr, int64_t d) {
  if (add != nullptr) {
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(yr + j, _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                             _mm256_loadu_ps(add + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + add[j];
    xr = yr;
  }
  float mx = xr[0];
  for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
  const __m256 vmx = _mm256_set1_ps(mx);
  int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(yr + j, _mm256_sub_ps(_mm256_loadu_ps(xr + j), vmx));
  }
  for (; j < d; ++j) yr[j] = xr[j] - mx;
}

__attribute__((target("avx2"))) inline void NormalizeRow(float* yr,
                                                         int64_t d) {
  const float inv = 1.0f / BlockedSum(yr, d);
  const __m256 vinv = _mm256_set1_ps(inv);
  int64_t j = 0;
  for (; j + 8 <= d; j += 8) {
    _mm256_storeu_ps(yr + j, _mm256_mul_ps(_mm256_loadu_ps(yr + j), vinv));
  }
  for (; j < d; ++j) yr[j] *= inv;
}

/// c[i, j] = sum_kk a[i, kk] * b[kk, j] over row strides lda / ldb / ldc.
/// Four-register tiles over the output row; each C element still
/// accumulates serially over k, so this is bitwise the ikj order.
__attribute__((target("avx2"))) inline void MatMulRows(
    const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
    int64_t ldc, int64_t n, int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    int64_t j = 0;
    for (; j + 32 <= m; j += 32) {
      __m256 c0 = _mm256_setzero_ps();
      __m256 c1 = _mm256_setzero_ps();
      __m256 c2 = _mm256_setzero_ps();
      __m256 c3 = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const __m256 av = _mm256_set1_ps(arow[kk]);
        const float* brow = b + kk * ldb + j;
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 16)));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 24)));
      }
      _mm256_storeu_ps(crow + j, c0);
      _mm256_storeu_ps(crow + j + 8, c1);
      _mm256_storeu_ps(crow + j + 16, c2);
      _mm256_storeu_ps(crow + j + 24, c3);
    }
    for (; j + 8 <= m; j += 8) {
      __m256 c0 = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        c0 = _mm256_add_ps(c0,
                           _mm256_mul_ps(_mm256_set1_ps(arow[kk]),
                                         _mm256_loadu_ps(b + kk * ldb + j)));
      }
      _mm256_storeu_ps(crow + j, c0);
    }
    for (; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * ldb + j];
      crow[j] = acc;
    }
  }
}

/// out[r] = BlockedDot(rows + r * stride, x, n) for r < count. Eight rows
/// at a time share the x loads, and their lane vectors fold through one
/// hadd/permute tree: hadd pairs lanes (l0+l1, l2+l3), the second hadd
/// pairs those, and adding the two 128-bit halves is the last Tree8 node,
/// so every out[r] is bitwise the single-row BlockedDot.
__attribute__((target("avx2"))) inline void BlockedDotRows(
    const float* rows, int64_t stride, int64_t count, const float* x,
    int64_t n, float* out) {
  const int64_t full = n - n % 8;
  const __m256i tail = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(n - full)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  int64_t r = 0;
  for (; r + 8 <= count; r += 8) {
    const float* base = rows + r * stride;
    __m256 acc[8];
#pragma GCC unroll 8
    for (int l = 0; l < 8; ++l) acc[l] = _mm256_setzero_ps();
    for (int64_t i = 0; i < full; i += 8) {
      const __m256 xv = _mm256_loadu_ps(x + i);
#pragma GCC unroll 8
      for (int l = 0; l < 8; ++l) {
        acc[l] = _mm256_add_ps(
            acc[l], _mm256_mul_ps(_mm256_loadu_ps(base + l * stride + i), xv));
      }
    }
    if (full < n) {
      // Trailing partial block into lanes 0..n-full-1 only; the blend
      // leaves the other lanes' sums untouched.
      const __m256 xv = _mm256_maskload_ps(x + full, tail);
      const __m256 keep = _mm256_castsi256_ps(tail);
#pragma GCC unroll 8
      for (int l = 0; l < 8; ++l) {
        const __m256 prod = _mm256_mul_ps(
            _mm256_maskload_ps(base + l * stride + full, tail), xv);
        acc[l] = _mm256_blendv_ps(acc[l], _mm256_add_ps(acc[l], prod), keep);
      }
    }
    const __m256 t0 = _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]),
                                     _mm256_hadd_ps(acc[2], acc[3]));
    const __m256 t1 = _mm256_hadd_ps(_mm256_hadd_ps(acc[4], acc[5]),
                                     _mm256_hadd_ps(acc[6], acc[7]));
    _mm256_storeu_ps(out + r,
                     _mm256_add_ps(_mm256_permute2f128_ps(t0, t1, 0x20),
                                   _mm256_permute2f128_ps(t0, t1, 0x31)));
  }
  for (; r < count; ++r) out[r] = BlockedDot(rows + r * stride, x, n);
}

/// The head-block projection crow[j] = sum_i sv[j / dh, i] * wv[i, j]
/// for j < h*dh, serial over i like MatMulRows. Needs dh % 8 == 0, so
/// every 8-lane block lies inside one head: the heads then share each
/// pass over wv's rows, four blocks at a time as independent chains,
/// instead of one short MatMulRows per head.
__attribute__((target("avx2"))) inline void HeadBlockProject(
    const float* sv, int64_t dv, const float* wv, float* crow, int64_t h,
    int64_t dh) {
  const int64_t d = h * dh;
  int64_t j = 0;
  for (; j + 32 <= d; j += 32) {
    const float* a0 = sv + (j / dh) * dv;
    const float* a1 = sv + ((j + 8) / dh) * dv;
    const float* a2 = sv + ((j + 16) / dh) * dv;
    const float* a3 = sv + ((j + 24) / dh) * dv;
    __m256 c0 = _mm256_setzero_ps();
    __m256 c1 = _mm256_setzero_ps();
    __m256 c2 = _mm256_setzero_ps();
    __m256 c3 = _mm256_setzero_ps();
    for (int64_t i = 0; i < dv; ++i) {
      const float* brow = wv + i * d + j;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(a0[i]),
                                           _mm256_loadu_ps(brow)));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(a1[i]),
                                           _mm256_loadu_ps(brow + 8)));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(a2[i]),
                                           _mm256_loadu_ps(brow + 16)));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(a3[i]),
                                           _mm256_loadu_ps(brow + 24)));
    }
    _mm256_storeu_ps(crow + j, c0);
    _mm256_storeu_ps(crow + j + 8, c1);
    _mm256_storeu_ps(crow + j + 16, c2);
    _mm256_storeu_ps(crow + j + 24, c3);
  }
  for (; j < d; j += 8) {
    const float* a0 = sv + (j / dh) * dv;
    __m256 c0 = _mm256_setzero_ps();
    for (int64_t i = 0; i < dv; ++i) {
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(a0[i]),
                                           _mm256_loadu_ps(wv + i * d + j)));
    }
    _mm256_storeu_ps(crow + j, c0);
  }
}

}  // namespace

__attribute__((target("avx2"))) void MatMul(const float* a, const float* b,
                                            float* c, int64_t n, int64_t k,
                                            int64_t m) {
  MatMulRows(a, k, b, m, c, m, n, k, m);
}

__attribute__((target("avx2"))) void Bmm(const float* a, const float* b,
                                         float* c, int64_t bs, int64_t n,
                                         int64_t k, int64_t m) {
  for (int64_t t = 0; t < bs; ++t) {
    MatMul(a + t * n * k, b + t * k * m, c + t * n * m, n, k, m);
  }
}

__attribute__((target("avx2"))) void SoftmaxLastDim(const float* x, float* y,
                                                    int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) ShiftRow(x + r * d, nullptr, y + r * d, d);
  ExpBlock(y, y, rows * d);
  for (int64_t r = 0; r < rows; ++r) NormalizeRow(y + r * d, d);
}

__attribute__((target("avx2"))) void MaskedSoftmax(const float* scores,
                                                   const float* mask,
                                                   float* y, int64_t b,
                                                   int64_t h, int64_t m) {
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* mrow = mask != nullptr ? mask + bi * m : nullptr;
    for (int64_t hi = 0; hi < h; ++hi) {
      const int64_t off = (bi * h + hi) * m;
      ShiftRow(scores + off, mrow, y + off, m);
    }
  }
  ExpBlock(y, y, b * h * m);
  for (int64_t r = 0; r < b * h; ++r) NormalizeRow(y + r * m, m);
}

__attribute__((target("avx2"))) void Exp(const float* x, float* y,
                                         int64_t n) {
  ExpBlock(x, y, n);
}

__attribute__((target("avx2"))) void RowNormalize(const float* x, float* y,
                                                  int64_t rows, int64_t d,
                                                  float eps,
                                                  float* inv_sigma) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    const float mu = BlockedSum(xr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(xr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[r] = inv;
    const __m256 vmu = _mm256_set1_ps(mu);
    const __m256 vinv = _mm256_set1_ps(inv);
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(
          yr + j,
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xr + j), vmu), vinv));
    }
    for (; j < d; ++j) yr[j] = (xr[j] - mu) * inv;
  }
}

__attribute__((target("avx2"))) void AddBiasRelu(const float* x,
                                                 const float* bias, float* y,
                                                 int64_t rows, int64_t d) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                     _mm256_loadu_ps(bias + j));
      _mm256_storeu_ps(yr + j, _mm256_max_ps(v, zero));
    }
    for (; j < d; ++j) {
      const float v = xr[j] + bias[j];
      yr[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

__attribute__((target("avx2"))) void AddBias(const float* x,
                                             const float* bias, float* y,
                                             int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(yr + j, _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                             _mm256_loadu_ps(bias + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + bias[j];
  }
}

__attribute__((target("avx2"))) void AddSame(const float* a, const float* b,
                                             float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) float Dot(const float* a, const float* b,
                                          int64_t n) {
  return BlockedDot(a, b, n);
}

__attribute__((target("avx2"))) void AttentionScores(
    const float* q, const float* wk, const float* keys, float* u,
    float* scores, int64_t b, int64_t h, int64_t m, int64_t dk, int64_t dh,
    float scale) {
  const int64_t d = h * dh;
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t hi = 0; hi < h; ++hi) {
      BlockedDotRows(wk + hi * dh, d, dk, q + bi * d + hi * dh, dh,
                     u + hi * dk);
    }
    for (int64_t hi = 0; hi < h; ++hi) {
      float* srow = scores + (bi * h + hi) * m;
      BlockedDotRows(keys + bi * m * dk, dk, m, u + hi * dk, dk, srow);
      for (int64_t s = 0; s < m; ++s) srow[s] = scale * srow[s];
    }
  }
}

__attribute__((target("avx2"))) void AttentionContext(
    const float* attn, const float* values, const float* wv, float* sv,
    float* ctx, int64_t b, int64_t h, int64_t m, int64_t dv, int64_t dh) {
  const int64_t d = h * dh;
  for (int64_t bi = 0; bi < b; ++bi) {
    MatMulRows(attn + bi * h * m, m, values + bi * m * dv, dv, sv, dv, h, m,
               dv);
    if (dh % 8 == 0) {
      HeadBlockProject(sv, dv, wv, ctx + bi * d, h, dh);
      continue;
    }
    for (int64_t hi = 0; hi < h; ++hi) {
      MatMulRows(sv + hi * dv, dv, wv + hi * dh, d, ctx + bi * d + hi * dh, d,
                 1, dv, dh);
    }
  }
}

__attribute__((target("avx2"))) void ResidualLayerNorm(
    const float* x, const float* residual, const float* gain,
    const float* bias, float* y, int64_t rows, int64_t d, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    const float* rr = residual + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(yr + j, _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                             _mm256_loadu_ps(rr + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + rr[j];
    const float mu = BlockedSum(yr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(yr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    const __m256 vmu = _mm256_set1_ps(mu);
    const __m256 vinv = _mm256_set1_ps(inv);
    j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 norm = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_loadu_ps(yr + j), vmu), vinv);
      _mm256_storeu_ps(
          yr + j, _mm256_add_ps(_mm256_mul_ps(norm, _mm256_loadu_ps(gain + j)),
                                _mm256_loadu_ps(bias + j)));
    }
    for (; j < d; ++j) {
      yr[j] = ((yr[j] - mu) * inv) * gain[j] + bias[j];
    }
  }
}

}  // namespace avx2

#endif  // APAN_KERNELS_X86

// ---- NEON tier --------------------------------------------------------------

#if defined(APAN_KERNELS_NEON)

namespace neon {

namespace {

// Two q-registers emulate the 8 blocked lanes (lo = lanes 0-3, hi = 4-7).
// vmulq+vaddq stay separate (vmlaq would fuse on aarch64).

struct Acc8 {
  float32x4_t lo = vdupq_n_f32(0.0f);
  float32x4_t hi = vdupq_n_f32(0.0f);
};

template <typename TailFn>
inline float ReduceBlocked(const Acc8& acc, int64_t tail_n, TailFn tail) {
  float lanes[8];
  vst1q_f32(lanes, acc.lo);
  vst1q_f32(lanes + 4, acc.hi);
  for (int64_t t = 0; t < tail_n; ++t) lanes[t] += tail(t);
  return Tree8(lanes);
}

inline float BlockedDot(const float* a, const float* b, int64_t n) {
  Acc8 acc;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc.lo = vaddq_f32(acc.lo, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    acc.hi = vaddq_f32(acc.hi,
                       vmulq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base,
                       [&](int64_t t) { return a[base + t] * b[base + t]; });
}

inline float BlockedSum(const float* a, int64_t n) {
  Acc8 acc;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc.lo = vaddq_f32(acc.lo, vld1q_f32(a + i));
    acc.hi = vaddq_f32(acc.hi, vld1q_f32(a + i + 4));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base, [&](int64_t t) { return a[base + t]; });
}

inline float BlockedSqDiffSum(const float* a, float mu, int64_t n) {
  Acc8 acc;
  const float32x4_t vmu = vdupq_n_f32(mu);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float32x4_t lo = vsubq_f32(vld1q_f32(a + i), vmu);
    const float32x4_t hi = vsubq_f32(vld1q_f32(a + i + 4), vmu);
    acc.lo = vaddq_f32(acc.lo, vmulq_f32(lo, lo));
    acc.hi = vaddq_f32(acc.hi, vmulq_f32(hi, hi));
  }
  const int64_t base = i;
  return ReduceBlocked(acc, n - base, [&](int64_t t) {
    const float v = a[base + t] - mu;
    return v * v;
  });
}

inline void ShiftRow(const float* xr, const float* add, float* yr,
                     int64_t d) {
  if (add != nullptr) {
    int64_t j = 0;
    for (; j + 4 <= d; j += 4) {
      vst1q_f32(yr + j, vaddq_f32(vld1q_f32(xr + j), vld1q_f32(add + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + add[j];
    xr = yr;
  }
  float mx = xr[0];
  for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
  const float32x4_t vmx = vdupq_n_f32(mx);
  int64_t j = 0;
  for (; j + 4 <= d; j += 4) {
    vst1q_f32(yr + j, vsubq_f32(vld1q_f32(xr + j), vmx));
  }
  for (; j < d; ++j) yr[j] = xr[j] - mx;
}

inline void NormalizeRow(float* yr, int64_t d) {
  const float inv = 1.0f / BlockedSum(yr, d);
  const float32x4_t vinv = vdupq_n_f32(inv);
  int64_t j = 0;
  for (; j + 4 <= d; j += 4) {
    vst1q_f32(yr + j, vmulq_f32(vld1q_f32(yr + j), vinv));
  }
  for (; j < d; ++j) yr[j] *= inv;
}

/// c[i, j] = sum_kk a[i, kk] * b[kk, j] over row strides lda / ldb / ldc,
/// each element serial over k (bitwise the ikj order).
inline void MatMulRows(const float* a, int64_t lda, const float* b,
                       int64_t ldb, float* c, int64_t ldc, int64_t n,
                       int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    int64_t j = 0;
    for (; j + 16 <= m; j += 16) {
      float32x4_t c0 = vdupq_n_f32(0.0f);
      float32x4_t c1 = vdupq_n_f32(0.0f);
      float32x4_t c2 = vdupq_n_f32(0.0f);
      float32x4_t c3 = vdupq_n_f32(0.0f);
      for (int64_t kk = 0; kk < k; ++kk) {
        const float32x4_t av = vdupq_n_f32(arow[kk]);
        const float* brow = b + kk * ldb + j;
        c0 = vaddq_f32(c0, vmulq_f32(av, vld1q_f32(brow)));
        c1 = vaddq_f32(c1, vmulq_f32(av, vld1q_f32(brow + 4)));
        c2 = vaddq_f32(c2, vmulq_f32(av, vld1q_f32(brow + 8)));
        c3 = vaddq_f32(c3, vmulq_f32(av, vld1q_f32(brow + 12)));
      }
      vst1q_f32(crow + j, c0);
      vst1q_f32(crow + j + 4, c1);
      vst1q_f32(crow + j + 8, c2);
      vst1q_f32(crow + j + 12, c3);
    }
    for (; j + 4 <= m; j += 4) {
      float32x4_t c0 = vdupq_n_f32(0.0f);
      for (int64_t kk = 0; kk < k; ++kk) {
        c0 = vaddq_f32(c0, vmulq_f32(vdupq_n_f32(arow[kk]),
                                     vld1q_f32(b + kk * ldb + j)));
      }
      vst1q_f32(crow + j, c0);
    }
    for (; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * ldb + j];
      crow[j] = acc;
    }
  }
}

}  // namespace

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  MatMulRows(a, k, b, m, c, m, n, k, m);
}

void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m) {
  for (int64_t t = 0; t < bs; ++t) {
    MatMul(a + t * n * k, b + t * k * m, c + t * n * m, n, k, m);
  }
}

void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) ShiftRow(x + r * d, nullptr, y + r * d, d);
  ExpBlock(y, y, rows * d);
  for (int64_t r = 0; r < rows; ++r) NormalizeRow(y + r * d, d);
}

void MaskedSoftmax(const float* scores, const float* mask, float* y,
                   int64_t b, int64_t h, int64_t m) {
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* mrow = mask != nullptr ? mask + bi * m : nullptr;
    for (int64_t hi = 0; hi < h; ++hi) {
      const int64_t off = (bi * h + hi) * m;
      ShiftRow(scores + off, mrow, y + off, m);
    }
  }
  ExpBlock(y, y, b * h * m);
  for (int64_t r = 0; r < b * h; ++r) NormalizeRow(y + r * m, m);
}

void Exp(const float* x, float* y, int64_t n) { ExpBlock(x, y, n); }

void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    const float mu = BlockedSum(xr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(xr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    if (inv_sigma != nullptr) inv_sigma[r] = inv;
    for (int64_t j = 0; j < d; ++j) yr[j] = (xr[j] - mu) * inv;
  }
}

void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 4 <= d; j += 4) {
      const float32x4_t v = vaddq_f32(vld1q_f32(xr + j), vld1q_f32(bias + j));
      // Compare+select, not vmaxq: ARM FMAX would propagate NaN where
      // the scalar tier's (v > 0 ? v : 0) — and x86 maxps — yield 0.
      vst1q_f32(yr + j, vbslq_f32(vcgtq_f32(v, zero), v, zero));
    }
    for (; j < d; ++j) {
      const float v = xr[j] + bias[j];
      yr[j] = v > 0.0f ? v : 0.0f;
    }
  }
}

void AddBias(const float* x, const float* bias, float* y, int64_t rows,
             int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    float* yr = y + r * d;
    int64_t j = 0;
    for (; j + 4 <= d; j += 4) {
      vst1q_f32(yr + j, vaddq_f32(vld1q_f32(xr + j), vld1q_f32(bias + j)));
    }
    for (; j < d; ++j) yr[j] = xr[j] + bias[j];
  }
}

void AddSame(const float* a, const float* b, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

float Dot(const float* a, const float* b, int64_t n) {
  return BlockedDot(a, b, n);
}

void AttentionScores(const float* q, const float* wk, const float* keys,
                     float* u, float* scores, int64_t b, int64_t h,
                     int64_t m, int64_t dk, int64_t dh, float scale) {
  const int64_t d = h * dh;
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t hi = 0; hi < h; ++hi) {
      const float* qh = q + bi * d + hi * dh;
      for (int64_t i = 0; i < dk; ++i) {
        u[hi * dk + i] = BlockedDot(wk + i * d + hi * dh, qh, dh);
      }
    }
    const float* kb = keys + bi * m * dk;
    for (int64_t hi = 0; hi < h; ++hi) {
      float* srow = scores + (bi * h + hi) * m;
      for (int64_t s = 0; s < m; ++s) {
        srow[s] = scale * BlockedDot(kb + s * dk, u + hi * dk, dk);
      }
    }
  }
}

void AttentionContext(const float* attn, const float* values, const float* wv,
                      float* sv, float* ctx, int64_t b, int64_t h, int64_t m,
                      int64_t dv, int64_t dh) {
  const int64_t d = h * dh;
  for (int64_t bi = 0; bi < b; ++bi) {
    MatMulRows(attn + bi * h * m, m, values + bi * m * dv, dv, sv, dv, h, m,
               dv);
    for (int64_t hi = 0; hi < h; ++hi) {
      MatMulRows(sv + hi * dv, dv, wv + hi * dh, d, ctx + bi * d + hi * dh, d,
                 1, dv, dh);
    }
  }
}

void ResidualLayerNorm(const float* x, const float* residual,
                       const float* gain, const float* bias, float* y,
                       int64_t rows, int64_t d, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * d;
    const float* rr = residual + r * d;
    float* yr = y + r * d;
    for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] + rr[j];
    const float mu = BlockedSum(yr, d) / static_cast<float>(d);
    const float var = BlockedSqDiffSum(yr, mu, d) / static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    for (int64_t j = 0; j < d; ++j) {
      yr[j] = ((yr[j] - mu) * inv) * gain[j] + bias[j];
    }
  }
}

}  // namespace neon

#endif  // APAN_KERNELS_NEON

// ---- Dispatch ---------------------------------------------------------------

namespace {

struct DispatchTable {
  Isa isa = Isa::kScalar;
  void (*matmul)(const float*, const float*, float*, int64_t, int64_t,
                 int64_t) = scalar::MatMul;
  void (*bmm)(const float*, const float*, float*, int64_t, int64_t, int64_t,
              int64_t) = scalar::Bmm;
  void (*softmax)(const float*, float*, int64_t, int64_t) =
      scalar::SoftmaxLastDim;
  void (*masked_softmax)(const float*, const float*, float*, int64_t, int64_t,
                         int64_t) = scalar::MaskedSoftmax;
  void (*row_normalize)(const float*, float*, int64_t, int64_t, float,
                        float*) = scalar::RowNormalize;
  void (*add_bias_relu)(const float*, const float*, float*, int64_t,
                        int64_t) = scalar::AddBiasRelu;
  void (*add_bias)(const float*, const float*, float*, int64_t, int64_t) =
      scalar::AddBias;
  void (*add_same)(const float*, const float*, float*, int64_t) =
      scalar::AddSame;
  float (*dot)(const float*, const float*, int64_t) = scalar::Dot;
  void (*exp)(const float*, float*, int64_t) = scalar::Exp;
  void (*attention_scores)(const float*, const float*, const float*, float*,
                           float*, int64_t, int64_t, int64_t, int64_t,
                           int64_t, float) = scalar::AttentionScores;
  void (*attention_context)(const float*, const float*, const float*, float*,
                            float*, int64_t, int64_t, int64_t, int64_t,
                            int64_t) = scalar::AttentionContext;
  void (*residual_layer_norm)(const float*, const float*, const float*,
                              const float*, float*, int64_t, int64_t, float) =
      scalar::ResidualLayerNorm;
};

DispatchTable BuildTable() {
  DispatchTable t;  // scalar defaults
  bool want_avx2 = false;
  bool want_neon = false;
#if defined(APAN_KERNELS_X86)
  want_avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#if defined(APAN_KERNELS_NEON)
  want_neon = true;
#endif
  if (const char* force = std::getenv("APAN_KERNEL_ISA")) {
    want_avx2 = want_avx2 && std::strcmp(force, "avx2") == 0;
    want_neon = want_neon && std::strcmp(force, "neon") == 0;
  }
#if defined(APAN_KERNELS_X86)
  if (want_avx2) {
    t.isa = Isa::kAvx2;
    t.matmul = avx2::MatMul;
    t.bmm = avx2::Bmm;
    t.softmax = avx2::SoftmaxLastDim;
    t.masked_softmax = avx2::MaskedSoftmax;
    t.row_normalize = avx2::RowNormalize;
    t.add_bias_relu = avx2::AddBiasRelu;
    t.add_bias = avx2::AddBias;
    t.add_same = avx2::AddSame;
    t.dot = avx2::Dot;
    t.exp = avx2::Exp;
    t.attention_scores = avx2::AttentionScores;
    t.attention_context = avx2::AttentionContext;
    t.residual_layer_norm = avx2::ResidualLayerNorm;
    return t;
  }
#endif
#if defined(APAN_KERNELS_NEON)
  if (want_neon) {
    t.isa = Isa::kNeon;
    t.matmul = neon::MatMul;
    t.bmm = neon::Bmm;
    t.softmax = neon::SoftmaxLastDim;
    t.masked_softmax = neon::MaskedSoftmax;
    t.row_normalize = neon::RowNormalize;
    t.add_bias_relu = neon::AddBiasRelu;
    t.add_bias = neon::AddBias;
    t.add_same = neon::AddSame;
    t.dot = neon::Dot;
    t.exp = neon::Exp;
    t.attention_scores = neon::AttentionScores;
    t.attention_context = neon::AttentionContext;
    t.residual_layer_norm = neon::ResidualLayerNorm;
    return t;
  }
#endif
  (void)want_neon;
  return t;
}

const DispatchTable& Table() {
  static const DispatchTable t = BuildTable();
  return t;
}

}  // namespace

Isa ActiveIsa() { return Table().isa; }

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

void MatMul(const float* a, const float* b, float* c, int64_t n, int64_t k,
            int64_t m) {
  Table().matmul(a, b, c, n, k, m);
}
void Bmm(const float* a, const float* b, float* c, int64_t bs, int64_t n,
         int64_t k, int64_t m) {
  Table().bmm(a, b, c, bs, n, k, m);
}
void SoftmaxLastDim(const float* x, float* y, int64_t rows, int64_t d) {
  Table().softmax(x, y, rows, d);
}
void MaskedSoftmax(const float* scores, const float* mask, float* y,
                   int64_t b, int64_t h, int64_t m) {
  Table().masked_softmax(scores, mask, y, b, h, m);
}
void RowNormalize(const float* x, float* y, int64_t rows, int64_t d,
                  float eps, float* inv_sigma) {
  Table().row_normalize(x, y, rows, d, eps, inv_sigma);
}
void AddBiasRelu(const float* x, const float* bias, float* y, int64_t rows,
                 int64_t d) {
  Table().add_bias_relu(x, bias, y, rows, d);
}
void AddBias(const float* x, const float* bias, float* y, int64_t rows,
             int64_t d) {
  Table().add_bias(x, bias, y, rows, d);
}
void AddSame(const float* a, const float* b, float* y, int64_t n) {
  Table().add_same(a, b, y, n);
}
float Dot(const float* a, const float* b, int64_t n) {
  return Table().dot(a, b, n);
}
void Exp(const float* x, float* y, int64_t n) { Table().exp(x, y, n); }
void AttentionScores(const float* q, const float* wk, const float* keys,
                     float* u, float* scores, int64_t b, int64_t h,
                     int64_t m, int64_t dk, int64_t dh, float scale) {
  Table().attention_scores(q, wk, keys, u, scores, b, h, m, dk, dh, scale);
}
void AttentionContext(const float* attn, const float* values, const float* wv,
                      float* sv, float* ctx, int64_t b, int64_t h, int64_t m,
                      int64_t dv, int64_t dh) {
  Table().attention_context(attn, values, wv, sv, ctx, b, h, m, dv, dh);
}
void ResidualLayerNorm(const float* x, const float* residual,
                       const float* gain, const float* bias, float* y,
                       int64_t rows, int64_t d, float eps) {
  Table().residual_layer_norm(x, residual, gain, bias, y, rows, d, eps);
}

}  // namespace kernels
}  // namespace tensor
}  // namespace apan
