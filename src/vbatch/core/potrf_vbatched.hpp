// Public vbatched Cholesky factorization API — the paper's case study.
//
// Mirrors the two-interface design of §III-A:
//   * potrf_vbatched_max — the expert interface taking the maximum matrix
//     size from the caller ("recommended when the user has such
//     information so that computing the maximums is waived");
//   * potrf_vbatched — the LAPACK-like wrapper that computes the maximum
//     with a device reduction kernel first.
//
// Both select between the fused-kernel path (§III-D) and the separated
// vbatched-BLAS path (§III-E) through the crossover policy of §IV-E unless
// the options pin a path. The heterogeneous pool entry points
// (hetero/potrf_hetero.hpp) share the same front end, in namespace detail.
#pragma once

#include <span>

#include "vbatch/core/batch.hpp"
#include "vbatch/core/queue.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch {

/// Which algorithmic approach a vbatched factorization uses.
enum class PotrfPath : std::uint8_t { Auto, Fused, Separated };

[[nodiscard]] constexpr const char* to_string(PotrfPath p) noexcept {
  switch (p) {
    case PotrfPath::Auto: return "auto";
    case PotrfPath::Fused: return "fused";
    case PotrfPath::Separated: return "separated";
  }
  return "?";
}

struct PotrfOptions {
  PotrfPath path = PotrfPath::Auto;
  EtmMode etm = EtmMode::Aggressive;       ///< fused-path ETM flavour (§III-D1)
  bool implicit_sorting = true;            ///< fused-path active-size windows (§III-D2)
  int sort_window = 0;                     ///< window width; 0 = the fused nb
  int fused_nb = 0;                        ///< fused blocking size; 0 = autotuned
  int separated_nb = 0;                    ///< separated panel NB; 0 = autotuned
  int crossover = 0;                       ///< fused↔separated max-size threshold; 0 = policy
  bool streamed_syrk = false;              ///< use the per-matrix streamed syrk (§III-E3)
  int num_streams = 16;
};

/// Outcome of one vbatched factorization call.
struct PotrfResult {
  double seconds = 0.0;       ///< modelled device time consumed by the call
  double flops = 0.0;         ///< useful flops (sum of per-matrix counts, §IV-B)
  PotrfPath path_taken = PotrfPath::Auto;
  [[nodiscard]] double gflops() const noexcept {
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
};

/// LAPACK-like interface: the maximum size is computed on the device.
template <typename T>
PotrfResult potrf_vbatched(Queue& q, Uplo uplo, Batch<T>& batch,
                           const PotrfOptions& opts = {});

/// Expert interface: the caller supplies max_n (must dominate every size).
template <typename T>
PotrfResult potrf_vbatched_max(Queue& q, Uplo uplo, Batch<T>& batch, int max_n,
                               const PotrfOptions& opts = {});

/// Low-level entry operating on raw MAGMA-style arrays.
template <typename T>
PotrfResult potrf_vbatched_max(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                               const PotrfOptions& opts = {});

// --- Shared front end: both interfaces here and both pool entry points
// (hetero/potrf_hetero.hpp) run one metadata sweep, resolve one plan, and
// run that plan on one queue or on every chunk.

namespace detail {

/// A resolved factorization: the path and every blocking knob pinned. A
/// matrix's factors depend only on its own data and the plan.
struct PotrfPlan {
  bool fused = false;
  int nb = 0;  ///< fused blocking size or separated panel NB (never 0)
  EtmMode etm = EtmMode::Aggressive;
  bool sorting = true;
  int sort_window = 0;
  bool streamed_syrk = false;
  int num_streams = 16;
  [[nodiscard]] PotrfPath path() const noexcept {
    return fused ? PotrfPath::Fused : PotrfPath::Separated;
  }
};

/// The metadata sweep on `dev`: checks the array sizes and the potrf
/// argument rules and resets info in one pass. The LAPACK-like form
/// (`reduce_max`) also reduces the maximum order; the expert form takes
/// `max_n` from the caller. Returns the maximum; `who` prefixes errors.
int potrf_sweep(sim::Device& dev, std::span<const int> n, std::span<const int> lda,
                std::span<int> info, bool reduce_max, int max_n, const char* who);

/// Resolves `opts` for a largest order `max_n` against the reference device
/// `ref`: the §IV-E crossover picks the path unless the options pin one,
/// and zero blocking sizes become the defaults. An Auto fused plan falls
/// back to the separated path when its launch does not fit every spec in
/// `fit_on`.
[[nodiscard]] PotrfPlan resolve_potrf_plan(const sim::DeviceSpec& ref, Precision prec,
                                           std::size_t elem_size, int max_n,
                                           const PotrfOptions& opts,
                                           std::span<const sim::DeviceSpec* const> fit_on = {});

/// Approach 1: fused kernels with ETMs and optional implicit sorting.
template <typename T>
double potrf_fused_run(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                       const PotrfPlan& plan);

/// Approach 2: separated vbatched BLAS kernels (potf2 panel, trsm, syrk).
template <typename T>
double potrf_separated_run(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                           const PotrfPlan& plan);

/// Runs a resolved plan on `q`; returns the modelled device seconds.
template <typename T>
double potrf_run(Queue& q, Uplo uplo, const VbatchedProblem<T>& prob, int max_n,
                 const PotrfPlan& plan) {
  return plan.fused ? potrf_fused_run<T>(q, uplo, prob, max_n, plan)
                    : potrf_separated_run<T>(q, uplo, prob, max_n, plan);
}

}  // namespace detail

}  // namespace vbatch
