#include <algorithm>

#include "vbatch/blas/blas.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/blas/small_kernels.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::blas {

namespace {

// Triangles at or below this order are solved with the reference loops; the
// recursion above it turns the dominant work into gemm calls on the packed
// micro-kernel engine.
constexpr index_t kTrsmBaseOrder = 32;

template <typename T>
void trsm_check(Side side, ConstMatrixView<T> a, MatrixView<T> b) {
  const index_t ka = side == Side::Left ? b.rows() : b.cols();
  require(a.rows() == ka && a.cols() == ka, "trsm: A dimension mismatch");
}

// The Cholesky panel solve (Right/Lower/Trans, alpha = 1) on the
// bit-identical small-order kernel when it is active (small_kernels.hpp).
// Returns false, leaving b untouched, for every other case.
template <typename T>
bool trsm_small([[maybe_unused]] Side side, [[maybe_unused]] Uplo uplo,
                [[maybe_unused]] Trans trans, [[maybe_unused]] Diag diag,
                [[maybe_unused]] T alpha, [[maybe_unused]] ConstMatrixView<T> a,
                [[maybe_unused]] MatrixView<T> b) {
#if defined(VBATCH_HAVE_AVX2_TU)
  if constexpr (!is_complex_v<T>) {
    if (side == Side::Right && uplo == Uplo::Lower && trans == Trans::Trans && alpha == T(1) &&
        micro::small_kernels_active()) {
      micro::detail::trsm_rlt_avx2(b.rows(), b.cols(), a.data(), a.ld(), b.data(), b.ld(),
                                   diag == Diag::Unit);
      return true;
    }
  }
#endif
  return false;
}

// Recursive triangular solve with unit alpha: split A into a 2×2 block
// triangle, solve the independent half first, subtract the coupling block
// product (a gemm, where the flops are), then solve the other half. The
// gemm's Trans flag conjugates complex operands, matching the conj_val the
// reference loops apply under Trans.
template <typename T>
void trsm_rec(Side side, Uplo uplo, Trans trans, Diag diag, ConstMatrixView<T> a,
              MatrixView<T> b) {
  const index_t ka = a.rows();
  if (ka <= kTrsmBaseOrder) {
    if (!trsm_small(side, uplo, trans, diag, T(1), a, b))
      trsm_ref<T>(side, uplo, trans, diag, T(1), a, b);
    return;
  }
  const index_t h = ka / 2;
  const index_t r = ka - h;
  auto a11 = a.block(0, 0, h, h);
  auto a22 = a.block(h, h, r, r);
  const index_t m = b.rows();
  const index_t n = b.cols();

  if (side == Side::Left) {
    auto b1 = b.block(0, 0, h, n);
    auto b2 = b.block(h, 0, r, n);
    if (uplo == Uplo::Lower) {
      auto a21 = a.block(h, 0, r, h);
      if (trans == Trans::NoTrans) {
        trsm_rec(side, uplo, trans, diag, a11, b1);
        gemm<T>(Trans::NoTrans, Trans::NoTrans, T(-1), a21, b1, T(1), b2);
        trsm_rec(side, uplo, trans, diag, a22, b2);
      } else {
        trsm_rec(side, uplo, trans, diag, a22, b2);
        gemm<T>(Trans::Trans, Trans::NoTrans, T(-1), a21, b2, T(1), b1);
        trsm_rec(side, uplo, trans, diag, a11, b1);
      }
    } else {
      auto a12 = a.block(0, h, h, r);
      if (trans == Trans::NoTrans) {
        trsm_rec(side, uplo, trans, diag, a22, b2);
        gemm<T>(Trans::NoTrans, Trans::NoTrans, T(-1), a12, b2, T(1), b1);
        trsm_rec(side, uplo, trans, diag, a11, b1);
      } else {
        trsm_rec(side, uplo, trans, diag, a11, b1);
        gemm<T>(Trans::Trans, Trans::NoTrans, T(-1), a12, b1, T(1), b2);
        trsm_rec(side, uplo, trans, diag, a22, b2);
      }
    }
    return;
  }

  auto b1 = b.block(0, 0, m, h);
  auto b2 = b.block(0, h, m, r);
  if (uplo == Uplo::Lower) {
    auto a21 = a.block(h, 0, r, h);
    if (trans == Trans::NoTrans) {
      trsm_rec(side, uplo, trans, diag, a22, b2);
      gemm<T>(Trans::NoTrans, Trans::NoTrans, T(-1), b2, a21, T(1), b1);
      trsm_rec(side, uplo, trans, diag, a11, b1);
    } else {
      trsm_rec(side, uplo, trans, diag, a11, b1);
      gemm<T>(Trans::NoTrans, Trans::Trans, T(-1), b1, a21, T(1), b2);
      trsm_rec(side, uplo, trans, diag, a22, b2);
    }
  } else {
    auto a12 = a.block(0, h, h, r);
    if (trans == Trans::NoTrans) {
      trsm_rec(side, uplo, trans, diag, a11, b1);
      gemm<T>(Trans::NoTrans, Trans::NoTrans, T(-1), b1, a12, T(1), b2);
      trsm_rec(side, uplo, trans, diag, a22, b2);
    } else {
      trsm_rec(side, uplo, trans, diag, a22, b2);
      gemm<T>(Trans::NoTrans, Trans::Trans, T(-1), b2, a12, T(1), b1);
      trsm_rec(side, uplo, trans, diag, a11, b1);
    }
  }
}

}  // namespace

// Reference triangular solve covering all side/uplo/trans/diag combinations.
// The library's hot paths only use a few of them (Right/Lower/Trans for the
// Cholesky panel, Left/Lower/NoTrans for potrs), but the full set is part of
// the vbatched BLAS foundation the paper describes (§III-E).
template <typename T>
void trsm_ref(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
              MatrixView<T> b) {
  trsm_check(side, a, b);
  const index_t m = b.rows();
  const index_t n = b.cols();
  if (m == 0 || n == 0) return;

  if (alpha != T(1)) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) b(i, j) *= alpha;
  }

  const bool unit = diag == Diag::Unit;
  // Effective triangle orientation: transposing a Lower triangle solves like
  // an Upper one and vice versa. Complex Trans means conjugate-transpose.
  const bool eff_lower = (uplo == Uplo::Lower) == (trans == Trans::NoTrans);
  auto at = [&](index_t i, index_t j) {
    return trans == Trans::NoTrans ? a(i, j) : conj_val(a(j, i));
  };

  if (side == Side::Left) {
    // Solve op(A) X = B, column by column of B.
    for (index_t j = 0; j < n; ++j) {
      if (eff_lower) {
        for (index_t i = 0; i < m; ++i) {
          T sum = b(i, j);
          for (index_t l = 0; l < i; ++l) sum -= at(i, l) * b(l, j);
          b(i, j) = unit ? sum : sum / at(i, i);
        }
      } else {
        for (index_t i = m - 1; i >= 0; --i) {
          T sum = b(i, j);
          for (index_t l = i + 1; l < m; ++l) sum -= at(i, l) * b(l, j);
          b(i, j) = unit ? sum : sum / at(i, i);
        }
      }
    }
    return;
  }

  // Side == Right: solve X op(A) = B, i.e. column recurrences over X.
  if (eff_lower) {
    // X(:, j) determined from the last column backwards:
    //   B(:, j) = sum_{l >= j} X(:, l) * opA(l, j)
    for (index_t j = n - 1; j >= 0; --j) {
      for (index_t l = j + 1; l < n; ++l) {
        const T alj = at(l, j);
        if (alj == T(0)) continue;
        for (index_t i = 0; i < m; ++i) b(i, j) -= b(i, l) * alj;
      }
      if (!unit) {
        const T inv = T(1) / at(j, j);
        for (index_t i = 0; i < m; ++i) b(i, j) *= inv;
      }
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      for (index_t l = 0; l < j; ++l) {
        const T alj = at(l, j);
        if (alj == T(0)) continue;
        for (index_t i = 0; i < m; ++i) b(i, j) -= b(i, l) * alj;
      }
      if (!unit) {
        const T inv = T(1) / at(j, j);
        for (index_t i = 0; i < m; ++i) b(i, j) *= inv;
      }
    }
  }
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b) {
  trsm_check(side, a, b);
  const index_t m = b.rows();
  const index_t n = b.cols();
  if (m == 0 || n == 0) return;
  const index_t ka = a.rows();
  const index_t nrhs = side == Side::Left ? n : m;

  const micro::Dispatch d = micro::dispatch();
  // The recursion only pays once its gemm updates clear the packed engine's
  // crossover with room to amortize the triangular base cases — 8× the
  // profile's gemm threshold matches the historical 32768 (= 8 · 4096) under
  // the default profile and moves with an autotuned one.
  const double work = static_cast<double>(ka) * static_cast<double>(ka) * static_cast<double>(nrhs);
  const bool blocked =
      ka > kTrsmBaseOrder &&
      (d == micro::Dispatch::ForceBlocked ||
       (d == micro::Dispatch::Auto &&
        work >= 8.0 * micro::shape_of<T>(micro::active_profile()).min_mnk));
  if (!blocked) {
    if (!trsm_small(side, uplo, trans, diag, alpha, a, b))
      trsm_ref(side, uplo, trans, diag, alpha, a, b);
    return;
  }
  if (alpha != T(1)) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) b(i, j) = alpha == T(0) ? T(0) : alpha * b(i, j);
  }
  if (alpha == T(0)) return;  // BLAS convention: X = 0, no solve performed
  trsm_rec(side, uplo, trans, diag, a, b);
}

#define VBATCH_INSTANTIATE_TRSM(T)                                                         \
  template void trsm<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>);    \
  template void trsm_ref<T>(Side, Uplo, Trans, Diag, T, ConstMatrixView<T>, MatrixView<T>)

VBATCH_INSTANTIATE_TRSM(float);
VBATCH_INSTANTIATE_TRSM(double);
VBATCH_INSTANTIATE_TRSM(std::complex<float>);
VBATCH_INSTANTIATE_TRSM(std::complex<double>);

#undef VBATCH_INSTANTIATE_TRSM

}  // namespace vbatch::blas
