#include "vbatch/cpu/mkl_compat.hpp"

#include "vbatch/blas/blas.hpp"
#include "vbatch/util/flops.hpp"

namespace vbatch::cpu {

template <typename T>
CpuCallResult potrf_sequential(const CpuSpec& spec, Uplo uplo, MatrixView<T> a, bool execute) {
  CpuCallResult r;
  const int n = static_cast<int>(a.rows());
  r.seconds = spec.core_seconds(precision_v<T>, n, flops::potrf(n)) +
              spec.task_overhead_us * 1e-6;
  if (execute) r.info = blas::potrf<T>(uplo, a);
  return r;
}

template CpuCallResult potrf_sequential<float>(const CpuSpec&, Uplo, MatrixView<float>, bool);
template CpuCallResult potrf_sequential<double>(const CpuSpec&, Uplo, MatrixView<double>, bool);

}  // namespace vbatch::cpu
