#ifndef TCSS_LINALG_SUBSPACE_ITERATION_H_
#define TCSS_LINALG_SUBSPACE_ITERATION_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "linalg/linear_operator.h"
#include "linalg/matrix.h"

namespace tcss {

struct SubspaceIterationOptions {
  int max_iterations = 300;
  /// Convergence when the max change of Ritz values between iterations
  /// drops below tol * |largest Ritz value|.
  double tol = 1e-8;
  uint64_t seed = 42;
  /// Extra guard vectors beyond the requested r improve convergence of the
  /// trailing eigenpairs; they are discarded from the output.
  int oversample = 4;
};

/// Top-r eigenpairs returned by SubspaceEigen.
struct EigenPairs {
  std::vector<double> values;  ///< r values, non-increasing.
  Matrix vectors;              ///< Dim() x r, orthonormal columns.
  int iterations = 0;          ///< iterations actually performed.
  /// Whether the Ritz values met `tol` within max_iterations. Not an
  /// error when false: spectral initialization tolerates approximate
  /// eigenvectors, and callers count it.
  bool converged = false;
};

/// Top-r eigenpairs of a symmetric operator by block power iteration
/// (subspace iteration) with Rayleigh-Ritz extraction. Suited to large
/// implicit operators where only matvecs are available (e.g. Gram matrices
/// of sparse tensor unfoldings). Requires r <= Dim().
///
/// Note: plain power iteration converges to the eigenvalues largest in
/// magnitude; for the PSD Gram operators used in this library that
/// coincides with the algebraically largest, which is what spectral
/// initialization needs.
Result<EigenPairs> SubspaceEigen(const LinearOperator& op, size_t r,
                                 const SubspaceIterationOptions& opts = {});

}  // namespace tcss

#endif  // TCSS_LINALG_SUBSPACE_ITERATION_H_
