// A small vendor-library-shaped CPU kernel layer ("MKL-compatible" in the
// role it plays, DESIGN.md §2): LAPACK-style entry points that perform the
// real factorization through vbatch::blas and report the *modelled* time an
// MKL call of that shape would take on the paper's CPU testbed.
#pragma once

#include <span>

#include "vbatch/cpu/perf_model.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/types.hpp"

namespace vbatch::cpu {

/// Result of one modelled CPU kernel call.
struct CpuCallResult {
  double seconds = 0.0;  ///< modelled time
  int info = 0;          ///< LAPACK status
};

/// Sequential (single-core) potrf: real numerics + modelled single-core time.
template <typename T>
CpuCallResult potrf_sequential(const CpuSpec& spec, Uplo uplo, MatrixView<T> a,
                               bool execute = true);

}  // namespace vbatch::cpu
