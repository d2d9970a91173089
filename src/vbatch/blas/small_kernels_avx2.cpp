// AVX2 small-order kernels (small_kernels.hpp). This TU is compiled with
// -mavx2 and -ffp-contract=off but without -mfma (src/CMakeLists.txt), so
// every multiply and subtract below rounds on its own exactly as the
// reference loops do. Callers only enter it after small_kernels_active()
// confirmed the host runs AVX2.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "vbatch/blas/small_kernels.hpp"

namespace vbatch::blas::micro::detail {

namespace {

template <typename T>
struct Avx;

template <>
struct Avx<double> {
  using V = __m256d;
  static constexpr int W = 4;
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static V load(const double* p, __m256i m) { return _mm256_maskload_pd(p, m); }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static void store(double* p, __m256i m, V v) { _mm256_maskstore_pd(p, m, v); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  /// Lanes [0, r) enabled.
  static __m256i mask(index_t r) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(r), _mm256_setr_epi64x(0, 1, 2, 3));
  }
};

template <>
struct Avx<float> {
  using V = __m256;
  static constexpr int W = 8;
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static V load(const float* p, __m256i m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, __m256i m, V v) { _mm256_maskstore_ps(p, m, v); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static __m256i mask(index_t r) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
};

/// Vectors per full band: 16 double or 32 float rows, four independent
/// subtract chains — enough to cover the subtract latency.
constexpr int kBandVecs = 4;

/// Which recurrence a band computes: potf2 scales every column and keeps
/// the running diagonals; trsm skips zero multipliers and scales only for a
/// non-unit diagonal.
enum class Op { Potf2, Trsm };

// One band of NV·W rows of column j; the last vector is masked to `tail`
// when kTail. `x` points at the band's first row in column 0 (stride ldx),
// and the multiplier of column l is mult[l·ldm]:
//   x(:, j) = (x(:, j) − Σ_{l<j} x(:, l)·mult_l) · inv     (· inv if scale)
// summed in ascending l; Trsm skips exact-zero multipliers as trsm_ref
// does. Potf2 also takes the band's running diagonals d −= x(:, j)².
template <typename T, int NV, bool kTail, Op kOp>
[[gnu::always_inline]] inline void band(T* x, index_t ldx, index_t j, const T* mult,
                                        index_t ldm, bool scale, T inv, __m256i tail, T* d) {
  using A = Avx<T>;
  constexpr int W = A::W;
  const auto load = [tail](const T* p, int v) {
    return kTail && v == NV - 1 ? A::load(p + v * W, tail) : A::load(p + v * W);
  };
  const auto store = [tail](T* p, int v, typename A::V val) {
    if (kTail && v == NV - 1)
      A::store(p + v * W, tail, val);
    else
      A::store(p + v * W, val);
  };

  T* xj = x + j * ldx;
  typename A::V acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = load(xj, v);
  for (index_t l = 0; l < j; ++l) {
    const T ml = mult[l * ldm];
    if constexpr (kOp == Op::Trsm) {
      if (ml == T(0)) continue;
    }
    const typename A::V bm = A::set1(ml);
    const T* xl = x + l * ldx;
    for (int v = 0; v < NV; ++v) acc[v] = A::sub(acc[v], A::mul(load(xl, v), bm));
  }
  if (kOp == Op::Potf2 || scale) {
    const typename A::V vi = A::set1(inv);
    for (int v = 0; v < NV; ++v) acc[v] = A::mul(acc[v], vi);
  }
  for (int v = 0; v < NV; ++v) store(xj, v, acc[v]);
  if constexpr (kOp == Op::Potf2) {
    for (int v = 0; v < NV; ++v) store(d, v, A::sub(load(d, v), A::mul(acc[v], acc[v])));
  }
}

// Calls f(NV, kTail, mask) — NV and kTail as integral constants — with the
// band shape that covers `rows` (1 ≤ rows ≤ kBandVecs·W) rows.
template <typename T, typename F>
[[gnu::always_inline]] inline void with_band_shape(index_t rows, F&& f) {
  constexpr int W = Avx<T>::W;
  const int nv = static_cast<int>((rows + W - 1) / W);
  const index_t last = rows - static_cast<index_t>(nv - 1) * W;
  const __m256i m = Avx<T>::mask(last);
  const auto go = [&](auto nv_c) {
    if (last == W)
      f(nv_c, std::false_type{}, m);
    else
      f(nv_c, std::true_type{}, m);
  };
  switch (nv) {
    case 1: go(std::integral_constant<int, 1>{}); break;
    case 2: go(std::integral_constant<int, 2>{}); break;
    case 3: go(std::integral_constant<int, 3>{}); break;
    default: go(std::integral_constant<int, kBandVecs>{}); break;
  }
}

template <typename T>
std::vector<T>& scratch() {
  static thread_local std::vector<T> buf;
  return buf;
}

// Reference order, per column j: the diagonal a(j,j) − Σ_{l<j} a(j,l)²
// (kept as a running sum d[j] that each finished column l updates, so the
// order over l is the reference's), then every row below it as
// (a(i,j) − Σ_{l<j} a(i,l)·a(j,l)) · (1 / sqrt(d[j])). Columns after a
// failing pivot are never touched.
template <typename T>
int potf2_lower(index_t n, T* a, index_t lda) {
  constexpr index_t kBand = kBandVecs * Avx<T>::W;
  std::vector<T>& buf = scratch<T>();
  if (buf.size() < static_cast<std::size_t>(n)) buf.resize(static_cast<std::size_t>(n));
  T* d = buf.data();
  for (index_t j = 0; j < n; ++j) d[j] = a[j + j * lda];
  for (index_t j = 0; j < n; ++j) {
    T ajj = d[j];
    if (!(ajj > T(0))) {
      a[j + j * lda] = ajj;  // LAPACK leaves the offending value in place
      return static_cast<int>(j) + 1;
    }
    ajj = std::sqrt(ajj);
    a[j + j * lda] = ajj;
    const T inv = T(1) / ajj;
    // Rows j+1 .. n-1 of column j; their multipliers are row j of L.
    index_t r = j + 1;
    for (; r + kBand <= n; r += kBand)
      band<T, kBandVecs, false, Op::Potf2>(a + r, lda, j, a + j, lda, true, inv,
                                           _mm256_setzero_si256(), d + r);
    if (r < n)
      with_band_shape<T>(n - r, [&](auto nv, auto tail, __m256i m) {
        band<T, decltype(nv)::value, decltype(tail)::value, Op::Potf2>(a + r, lda, j, a + j, lda,
                                                                       true, inv, m, d + r);
      });
  }
  return 0;
}

// trsm_ref's Right/Lower/Trans branch: column j of X is
// (B(:, j) − Σ_{l<j, L(j,l) ≠ 0} X(:, l)·L(j,l)) · (1 / L(j,j)).
template <typename T>
void trsm_rlt(index_t m, index_t n, const T* a, index_t lda, T* b, index_t ldb, bool unit) {
  if (m == 0 || n == 0) return;
  std::vector<T>& buf = scratch<T>();
  if (buf.size() < static_cast<std::size_t>(n)) buf.resize(static_cast<std::size_t>(n));
  T* inv = buf.data();
  for (index_t j = 0; j < n; ++j) inv[j] = unit ? T(1) : T(1) / a[j + j * lda];
  // Bands outermost: a band's columns stay in L1 while it sweeps them.
  constexpr index_t kBand = kBandVecs * Avx<T>::W;
  for (index_t r = 0; r < m; r += kBand) {
    with_band_shape<T>(std::min(kBand, m - r), [&](auto nv, auto tail, __m256i msk) {
      for (index_t j = 0; j < n; ++j)
        band<T, decltype(nv)::value, decltype(tail)::value, Op::Trsm>(b + r, ldb, j, a + j, lda,
                                                                      !unit, inv[j], msk, nullptr);
    });
  }
}

}  // namespace

int potf2_lower_avx2(index_t n, float* a, index_t lda) { return potf2_lower(n, a, lda); }
int potf2_lower_avx2(index_t n, double* a, index_t lda) { return potf2_lower(n, a, lda); }

void trsm_rlt_avx2(index_t m, index_t n, const float* a, index_t lda, float* b, index_t ldb,
                   bool unit) {
  trsm_rlt(m, n, a, lda, b, ldb, unit);
}
void trsm_rlt_avx2(index_t m, index_t n, const double* a, index_t lda, double* b, index_t ldb,
                   bool unit) {
  trsm_rlt(m, n, a, lda, b, ldb, unit);
}

}  // namespace vbatch::blas::micro::detail
