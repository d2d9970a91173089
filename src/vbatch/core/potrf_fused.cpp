// Approach 1 driver: the fused-kernel vbatched Cholesky (paper §III-D).
//
// Without implicit sorting the driver walks factorization steps globally:
// every step launches the fused kernel over the whole batch, with block
// width shaped by the largest *remaining* panel height; finished matrices
// terminate through the selected ETM.
//
// With implicit sorting the driver walks "active size" windows from the
// largest sizes downward (window width defaults to nb): each window's
// matrices form a ready queue processed as a sub-batch of nearly similar
// sizes, improving occupancy and wave balance (§III-D2).
#include <algorithm>

#include "vbatch/core/potrf_vbatched.hpp"
#include "vbatch/kernels/aux_kernels.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/util/error.hpp"

namespace vbatch::detail {

namespace {

template <typename T>
double run_steps(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob,
                 std::span<const int> active, int local_max, EtmMode etm, int nb) {
  double seconds = 0.0;
  const auto& spec = q.spec();
  kernels::FusedStepArgs<T> args;
  args.batch = {prob.ptrs, prob.n, prob.lda};
  args.active = active;
  args.uplo = uplo;
  args.nb = nb;
  args.etm = etm;
  args.info = prob.info;

  for (int step = 0; step * nb < local_max; ++step) {
    const int max_m = local_max - step * nb;  // largest possible panel height
    args.step = step;
    args.block_threads = kernels::round_up_warp(spec, max_m);
    seconds += kernels::launch_fused_step(q.device(), args);
  }
  return seconds;
}

}  // namespace

template <typename T>
double potrf_fused_run(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                       const PotrfPlan& plan) {
  require(max_n >= 1, "potrf_fused: max_n must be positive");
  const int nb = plan.nb;
  require(max_n <= kernels::fused_max_size(q.spec(), nb, sizeof(T)),
          "potrf_fused: batch exceeds the fused kernel's shared-memory bound");

  if (!plan.sorting) {
    return run_steps<T>(q, uplo, prob, {}, max_n, plan.etm, nb);
  }

  // Implicit sorting (§III-D2): at every factorization step, a window of
  // "active sizes" walks down from the largest remaining size; the matrices
  // inside each window form a ready queue launched together, so every
  // launch covers blocks of nearly similar sizes with a block width shaped
  // to the window instead of to the global maximum. The window width is nb
  // by default, widened (in nb quanta) so one step needs at most a handful
  // of launches.
  const auto& spec = q.spec();
  double seconds = 0.0;
  std::vector<int> prefix;
  std::vector<std::vector<int>> windows(4);
  kernels::FusedStepArgs<T> args;
  args.batch = {prob.ptrs, prob.n, prob.lda};
  args.uplo = uplo;
  args.nb = nb;
  args.etm = plan.etm;
  args.info = prob.info;

  for (int step = 0; step * nb < max_n; ++step) {
    const int j = step * nb;
    const int live_max = max_n - j;  // largest possible remaining panel height
    args.step = step;

    // While the remaining panels are tall (or the kernel runs at its
    // narrowest blocking, i.e. near its shared-memory feasibility edge),
    // every block is slot-starved anyway and splitting the step into
    // per-window launches only fragments the schedule; the step then runs
    // as a single ready-queue launch covering exactly the live matrices.
    // The windows pay off once blocks are short enough that occupancy
    // (tight block widths) is the lever.
    if (live_max > 4 * 64 || nb < 16) {
      seconds += kernels::build_size_window(q.device(), prob.n, j, max_n, prefix);
      if (prefix.empty()) break;
      args.active = prefix;
      args.block_threads = kernels::round_up_warp(spec, live_max);
      seconds += kernels::launch_fused_step(q.device(), args);
      continue;
    }

    // Ready-queue windows, at most 4 per step, built in one aux sweep.
    int width = plan.sort_window > 0 ? plan.sort_window : nb;
    const int min_width = ((live_max / 4 + nb - 1) / nb) * nb;
    width = std::max(width, std::max(nb, min_width));
    seconds += kernels::build_size_partition(q.device(), prob.n, j, live_max, width, windows);

    int hi = live_max;
    for (const auto& window : windows) {
      if (!window.empty()) {
        args.active = window;
        args.block_threads = kernels::round_up_warp(spec, hi);
        seconds += kernels::launch_fused_step(q.device(), args);
      }
      hi = std::max(0, hi - width);
    }
  }
  return seconds;
}

template double potrf_fused_run<float>(Queue&, Uplo, const VbatchedProblem<float>&, int,
                                       const PotrfPlan&);
template double potrf_fused_run<double>(Queue&, Uplo, const VbatchedProblem<double>&, int,
                                        const PotrfPlan&);
template double potrf_fused_run<std::complex<float>>(
    Queue&, Uplo, const VbatchedProblem<std::complex<float>>&, int, const PotrfPlan&);
template double potrf_fused_run<std::complex<double>>(
    Queue&, Uplo, const VbatchedProblem<std::complex<double>>&, int, const PotrfPlan&);

}  // namespace vbatch::detail
