#ifndef TCSS_LINALG_SUBSPACE_ITERATION_H_
#define TCSS_LINALG_SUBSPACE_ITERATION_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "linalg/linear_operator.h"
#include "linalg/matrix.h"

namespace tcss {

struct SubspaceIterationOptions {
  /// Cap on operator applications (block Applies), the starting block's
  /// and the filter's included; a solve never runs more.
  int max_iterations = 300;
  /// Converged when every wanted pair's residual ||A v_j - theta_j v_j||
  /// is at most tol * theta_1 (the largest Ritz value).
  double tol = 1e-8;
  uint64_t seed = 42;
};

/// Top-r eigenpairs returned by SubspaceEigen.
struct EigenPairs {
  std::vector<double> values;  ///< r values, non-increasing.
  Matrix vectors;              ///< Dim() x r, orthonormal columns.
  /// Operator applications actually performed, at most max_iterations.
  int iterations = 0;
  /// Whether every wanted residual met `tol` within max_iterations. Not
  /// an error when false: spectral initialization tolerates approximate
  /// eigenvectors, and callers count it.
  bool converged = false;
};

/// Top-r eigenpairs of a symmetric positive semi-definite operator by
/// Chebyshev-filtered subspace iteration (Zhou, Saad, Tiago and
/// Chelikowsky, J. Comput. Phys. 219, 2006) with Rayleigh-Ritz
/// extraction. Suited to large implicit operators where only block
/// applications are available (e.g. Gram matrices of sparse tensor
/// unfoldings). Between Rayleigh-Ritz steps a degree-8 Chebyshev
/// polynomial of the operator damps [0, theta_b], theta_b the block's
/// smallest Ritz value; the 0 end is where the PSD requirement comes in.
/// Requires r <= Dim() and max_iterations >= 1. The pairs returned are
/// the last Rayleigh-Ritz step's.
Result<EigenPairs> SubspaceEigen(const LinearOperator& op, size_t r,
                                 const SubspaceIterationOptions& opts = {});

}  // namespace tcss

#endif  // TCSS_LINALG_SUBSPACE_ITERATION_H_
