// Public vbatched Cholesky entry points (paper §III-A interfaces).
#include "vbatch/core/potrf_vbatched.hpp"

#include <string>

#include "vbatch/core/arg_check.hpp"
#include "vbatch/core/crossover.hpp"
#include "vbatch/kernels/fused_potrf.hpp"
#include "vbatch/util/error.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch {

namespace detail {

int potrf_sweep(sim::Device& dev, std::span<const int> n, std::span<const int> lda,
                std::span<int> info, bool reduce_max, int max_n, const char* who) {
  const auto check = [who](bool ok, const char* what) {
    if (!ok) throw_error(Status::InvalidArgument, std::string(who) + ": " + what);
  };
  check(!n.empty(), "empty batch");
  check(lda.size() == n.size() && info.size() == n.size(), "metadata array size mismatch");
  // LAPACK-style dimension rules for potrf(uplo, n, A, lda, info):
  // n >= 0 (argument 2), lda >= max(1, n) (argument 4).
  const ArgRule rules[] = {
      {ArgRule::Kind::NonNegative, n, {}, 2, "n"},
      {ArgRule::Kind::AtLeastOther, lda, n, 4, "lda"},
  };
  const ArgSweep sweep =
      check_args_reduce(dev, rules, reduce_max ? n : std::span<const int>{}, info);
  require_args_ok(sweep.report, who);
  if (reduce_max) max_n = sweep.max_value;
  check(max_n >= 1, reduce_max ? "all matrices are empty" : "max_n must be positive");
  return max_n;
}

PotrfPlan resolve_potrf_plan(const sim::DeviceSpec& ref, Precision prec, std::size_t elem_size,
                             int max_n, const PotrfOptions& opts,
                             std::span<const sim::DeviceSpec* const> fit_on) {
  bool fused = opts.path == PotrfPath::Fused ||
               (opts.path == PotrfPath::Auto && use_fused(ref, prec, max_n, opts.crossover));
  int nb = 0;
  if (fused) {
    nb = opts.fused_nb > 0 ? opts.fused_nb : kernels::choose_fused_nb(ref, max_n, elem_size);
    if (opts.path == PotrfPath::Auto)
      for (const sim::DeviceSpec* spec : fit_on)
        if (max_n > kernels::fused_max_size(*spec, nb, elem_size))
          fused = false;  // fall back rather than fail on a smaller-memory device
  }
  // Separated default: the largest square panel the potf2 kernel can stage,
  // rounded to the trtri block quantum.
  if (!fused)
    nb = opts.separated_nb > 0 ? opts.separated_nb : (elem_size == sizeof(double) ? 64 : 96);
  return {fused, nb, opts.etm, opts.implicit_sorting, opts.sort_window, opts.streamed_syrk,
          opts.num_streams};
}

}  // namespace detail

namespace {

/// Resolves the plan against the queue's own device and runs it.
template <typename T>
PotrfResult resolve_and_run(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                            const PotrfOptions& opts) {
  const detail::PotrfPlan plan =
      detail::resolve_potrf_plan(q.spec(), precision_v<T>, sizeof(T), max_n, opts);
  PotrfResult result;
  result.flops = flops::potrf_batch(prob.n);
  result.path_taken = plan.path();
  result.seconds = detail::potrf_run<T>(q, uplo, prob, max_n, plan);
  return result;
}

}  // namespace

template <typename T>
PotrfResult potrf_vbatched_max(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                               const PotrfOptions& opts) {
  // The expert interface takes max_n from the caller, so the sweep skips
  // the reduction (§III-A) and its time is not part of the reported call.
  max_n = detail::potrf_sweep(q.device(), prob.n, prob.lda, prob.info, /*reduce_max=*/false,
                              max_n, "potrf_vbatched");
  return resolve_and_run<T>(q, uplo, prob, max_n, opts);
}

template <typename T>
PotrfResult potrf_vbatched_max(Queue& q, Uplo uplo, Batch<T>& batch, int max_n,
                               const PotrfOptions& opts) {
  return potrf_vbatched_max<T>(q, uplo, batch.problem(), max_n, opts);
}

template <typename T>
PotrfResult potrf_vbatched(Queue& q, Uplo uplo, Batch<T>& batch, const PotrfOptions& opts) {
  // LAPACK-like interface: the maximum comes from a device reduction (§III-A:
  // "The latter wraps the first interface and calls GPU kernels to compute
  // these maximums"). The reduction shares one metadata sweep with the
  // argument checks and the info reset — the arrays are read once, not once
  // per concern. The sweep's (negligible) time is part of this call and is
  // reported with it.
  auto prob = batch.problem();
  const double t0 = q.time();
  const int max_n = detail::potrf_sweep(q.device(), prob.n, prob.lda, prob.info,
                                        /*reduce_max=*/true, 0, "potrf_vbatched");
  PotrfResult result = resolve_and_run<T>(q, uplo, prob, max_n, opts);
  result.seconds = q.time() - t0;
  return result;
}

template PotrfResult potrf_vbatched_max<float>(Queue&, Uplo, const VbatchedProblem<float>&,
                                               int, const PotrfOptions&);
template PotrfResult potrf_vbatched_max<double>(Queue&, Uplo, const VbatchedProblem<double>&,
                                                int, const PotrfOptions&);
template PotrfResult potrf_vbatched_max<float>(Queue&, Uplo, Batch<float>&, int,
                                               const PotrfOptions&);
template PotrfResult potrf_vbatched_max<double>(Queue&, Uplo, Batch<double>&, int,
                                                const PotrfOptions&);
template PotrfResult potrf_vbatched<float>(Queue&, Uplo, Batch<float>&, const PotrfOptions&);
template PotrfResult potrf_vbatched<double>(Queue&, Uplo, Batch<double>&, const PotrfOptions&);
template PotrfResult potrf_vbatched_max<std::complex<float>>(
    Queue&, Uplo, const VbatchedProblem<std::complex<float>>&, int, const PotrfOptions&);
template PotrfResult potrf_vbatched_max<std::complex<double>>(
    Queue&, Uplo, const VbatchedProblem<std::complex<double>>&, int, const PotrfOptions&);
template PotrfResult potrf_vbatched_max<std::complex<float>>(
    Queue&, Uplo, Batch<std::complex<float>>&, int, const PotrfOptions&);
template PotrfResult potrf_vbatched_max<std::complex<double>>(
    Queue&, Uplo, Batch<std::complex<double>>&, int, const PotrfOptions&);
template PotrfResult potrf_vbatched<std::complex<float>>(Queue&, Uplo,
                                                         Batch<std::complex<float>>&,
                                                         const PotrfOptions&);
template PotrfResult potrf_vbatched<std::complex<double>>(Queue&, Uplo,
                                                          Batch<std::complex<double>>&,
                                                          const PotrfOptions&);

}  // namespace vbatch
