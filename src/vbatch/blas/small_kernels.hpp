// Internal: register-blocked small-order kernels for the two shapes every
// Cholesky step runs on the host — the unblocked potf2 of the nb×nb
// diagonal block (Lower) and the m×nb panel solve X·Lᵀ = B below it
// (trsm Right/Lower/Trans, alpha = 1).
//
// The kernels are bit-identical to the reference loops (blas::potf2's
// Lower branch, trsm_ref) on every input: each output element subtracts
// its products in ascending l from its original value with separate
// multiply and subtract (the TU is compiled without FMA and with
// -ffp-contract=off), is scaled once by the reciprocal of the diagonal,
// and the trsm keeps the reference's skip of exact-zero multipliers. The
// vectorization runs across rows only: a band of rows is held in registers
// for the whole l loop, so no per-element sum is ever reordered.
//
// The AVX2 implementations live in small_kernels_avx2.cpp, the only TU
// compiled with -mavx2 for them; callers (potrf.cpp, trsm.cpp) reach them
// only under VBATCH_HAVE_AVX2_TU and when small_kernels_active() says the
// host and the dispatch pins allow it. Everything else — Upper, complex,
// alpha ≠ 1, Isa::Scalar/Sse2, Dispatch::ForceRef — stays on the loops.
#pragma once

#include "vbatch/blas/isa.hpp"
#include "vbatch/blas/microkernel.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::blas::micro {

/// True when the small-order kernels may replace the reference loops: the
/// active ISA is AVX2 (or AVX-512 on a host that also runs AVX2) and the
/// dispatch mode is not ForceRef.
[[nodiscard]] inline bool small_kernels_active() noexcept {
  const Isa isa = active_isa();
  return (isa == Isa::Avx2 || (isa == Isa::Avx512 && isa_supported(Isa::Avx2))) &&
         dispatch() != Dispatch::ForceRef;
}

namespace detail {

/// Lower potf2 of the n×n column-major matrix at `a`: same result, same
/// buffer bytes (also on a non-SPD failure) and same info as the reference.
int potf2_lower_avx2(index_t n, float* a, index_t lda);
int potf2_lower_avx2(index_t n, double* a, index_t lda);

/// Solves X·Lᵀ = B in place for the m×n matrix B, with L the n×n lower
/// triangle at `a` (unit diagonal when `unit`): trsm_ref's Right/Lower/
/// Trans branch with alpha = 1.
void trsm_rlt_avx2(index_t m, index_t n, const float* a, index_t lda, float* b, index_t ldb,
                   bool unit);
void trsm_rlt_avx2(index_t m, index_t n, const double* a, index_t lda, double* b, index_t ldb,
                   bool unit);

}  // namespace detail

}  // namespace vbatch::blas::micro
