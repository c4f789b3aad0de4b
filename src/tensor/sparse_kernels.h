#ifndef TCSS_TENSOR_SPARSE_KERNELS_H_
#define TCSS_TENSOR_SPARSE_KERNELS_H_

#include <vector>

#include "linalg/matrix.h"
#include "tensor/csf_tensor.h"

namespace tcss {

/// Dispatch seam between the L2 head (RewrittenLoss) and its CSF
/// micro-kernel (linalg/kernel_table.h). Callers hold a CsfTensor (built
/// once per tensor) and get:
///
///  * the kernel build selected by TCSS_SIMD (scalar reference or the
///    vectorized native build — bitwise-interchangeable);
///  * deterministic parallelism: the shard decomposition is a pure
///    function of the tensor shape, never the thread count, and
///    per-shard accumulators merge in ascending shard order, so results
///    are bit-identical at 1/2/8/... threads.
///
/// Expressed in terms of Matrix (not core/FactorModel) so the tensor
/// layer stays below core in the dependency order.
class SparseKernels {
 public:
  /// Observed-entry part of the rewritten loss (Eq 15): returns
  ///   sum_{(i,j,k) in nnz} (w+ - w-) y^2 - 2 w+ X y + w+ X^2
  /// with y = sum_t h_t u1[i,t] u2[j,t] u3[k,t], and when gu1 is
  /// non-null accumulates dL/dU1..3 and dL/dh into gu1/gu2/gu3/gh
  /// (all four must be null or non-null together). The whole-data
  /// (Gram) part of Eq 15 stays with RewrittenLoss.
  static double RewrittenEntryLoss(const CsfTensor& x, const Matrix& u1,
                                   const Matrix& u2, const Matrix& u3,
                                   const std::vector<double>& h,
                                   double w_pos, double w_neg, Matrix* gu1,
                                   Matrix* gu2, Matrix* gu3,
                                   std::vector<double>* gh);
};

}  // namespace tcss

#endif  // TCSS_TENSOR_SPARSE_KERNELS_H_
