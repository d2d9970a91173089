// Approach 2 driver: separated vbatched BLAS kernels (paper §III-E, §III-F).
//
// The "factorization driver" runs on the host and controls the launches of
// the vbatched building blocks for a right-looking blocked Cholesky:
//   potf2 (NB panel, reusing the fused kernel internally) → trsm (trtri of
//   32×32 diagonal blocks + gemm sweeps) → syrk trailing update (vbatched
//   grid or streamed per-matrix kernels).
// Between steps, auxiliary kernels shift the size arrays and displace the
// pointer arrays so fully factorized matrices are ignored without
// out-of-bound accesses.
#include <algorithm>

#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/kernels/aux_kernels.hpp"
#include "vbatch/kernels/gemm_vbatched.hpp"
#include "vbatch/kernels/potf2_panel.hpp"
#include "vbatch/kernels/trsm_vbatched.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::detail {

template <typename T>
double potrf_separated_run(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                           const PotrfPlan& plan) {
  require(max_n >= 1, "potrf_separated: max_n must be positive");
  const int NB = plan.nb;
  const int batch = prob.count();
  sim::Device& dev = q.device();
  double seconds = 0.0;

  // Workspace: per-matrix NB×NB buffer for the inverted diagonal blocks of
  // the trsm (freed at the end of the call).
  void* inv_slab = dev.device_malloc(static_cast<std::size_t>(batch) * NB * NB * sizeof(T));
  T* inv_base = static_cast<T*>(inv_slab);
  std::vector<T*> inv_ptrs(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i)
    inv_ptrs[static_cast<std::size_t>(i)] = inv_base + static_cast<std::size_t>(i) * NB * NB;

  std::vector<int> trail_m(static_cast<std::size_t>(batch));
  std::vector<int> trail_ib(static_cast<std::size_t>(batch));
  // Displaced-pointer scratch, reused across panel steps (one buffer per
  // operand for the whole call instead of three allocations per step).
  std::vector<T*> diag_ptrs, sub_ptrs, trail_ptrs;

  for (int j = 0; j < max_n; j += NB) {
    // §III-F: the driver checks whether any matrix still has work; fully
    // factorized matrices are ignored from here on.
    if (kernels::count_live(dev, prob.n, j) == 0) break;

    kernels::Potf2PanelArgs<T> panel;
    panel.batch = {prob.ptrs, prob.n, prob.lda};
    panel.uplo = uplo;
    panel.offset = j;
    panel.NB = NB;
    panel.nb_inner = 16;
    panel.info = prob.info;
    seconds += kernels::launch_potf2_panel(dev, panel);

    const int max_m2 = max_n - j - NB;
    if (max_m2 <= 0) continue;

    // Trailing extents: only matrices with n_i > j + NB have a trailing
    // part, and for those the panel is exactly NB wide.
    seconds += kernels::shift_sizes(dev, prob.n, trail_m, j + NB);
    int live_trailing = 0;
    for (int i = 0; i < batch; ++i) {
      trail_ib[static_cast<std::size_t>(i)] = trail_m[static_cast<std::size_t>(i)] > 0 ? NB : 0;
      if (trail_m[static_cast<std::size_t>(i)] > 0) ++live_trailing;
    }
    if (live_trailing == 0) continue;

    std::span<T* const> base{prob.ptrs, static_cast<std::size_t>(batch)};
    kernels::displace_ptrs<T>(dev, base, prob.lda, j, j, diag_ptrs);
    if (uplo == Uplo::Lower) {
      kernels::displace_ptrs<T>(dev, base, prob.lda, j + NB, j, sub_ptrs);
    } else {
      kernels::displace_ptrs<T>(dev, base, prob.lda, j, j + NB, sub_ptrs);
    }
    kernels::displace_ptrs<T>(dev, base, prob.lda, j + NB, j + NB, trail_ptrs);

    kernels::TrsmVbatchedArgs<T> trsm;
    trsm.uplo = uplo;
    trsm.a = diag_ptrs.data();
    trsm.lda = prob.lda;
    trsm.ib = trail_ib;
    trsm.b = sub_ptrs.data();
    trsm.ldb = prob.lda;
    trsm.m = trail_m;
    trsm.max_ib = NB;
    trsm.max_m = max_m2;
    trsm.inv = inv_ptrs.data();
    trsm.inv_ld = NB;
    seconds += kernels::launch_trsm_vbatched(dev, trsm);

    kernels::SyrkVbatchedArgs<T> syrk;
    syrk.uplo = uplo;
    syrk.trans = uplo == Uplo::Lower ? Trans::NoTrans : Trans::Trans;
    syrk.n = trail_m;
    syrk.k = trail_ib;
    syrk.max_n = max_m2;
    syrk.alpha = T(-1);
    syrk.beta = T(1);
    syrk.a = sub_ptrs.data();
    syrk.lda = prob.lda;
    syrk.c = trail_ptrs.data();
    syrk.ldc = prob.lda;
    if (plan.streamed_syrk) {
      seconds += kernels::launch_syrk_streamed(dev, syrk, plan.num_streams);
    } else {
      seconds += kernels::launch_syrk_vbatched(dev, syrk);
    }
  }

  dev.device_free(inv_slab);
  return seconds;
}

template double potrf_separated_run<float>(Queue&, Uplo, const VbatchedProblem<float>&, int,
                                           const PotrfPlan&);
template double potrf_separated_run<double>(Queue&, Uplo, const VbatchedProblem<double>&, int,
                                            const PotrfPlan&);
template double potrf_separated_run<std::complex<float>>(
    Queue&, Uplo, const VbatchedProblem<std::complex<float>>&, int, const PotrfPlan&);
template double potrf_separated_run<std::complex<double>>(
    Queue&, Uplo, const VbatchedProblem<std::complex<double>>&, int, const PotrfPlan&);

}  // namespace vbatch::detail
