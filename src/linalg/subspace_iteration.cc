#include "linalg/subspace_iteration.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/qr.h"

namespace tcss {

Result<EigenPairs> SubspaceEigen(const LinearOperator& op, size_t r,
                                 const SubspaceIterationOptions& opts) {
  const size_t n = op.Dim();
  if (r == 0 || r > n) {
    return Status::InvalidArgument(
        StrFormat("SubspaceEigen: r=%zu out of range for dim %zu", r, n));
  }
  const size_t block =
      std::min(n, r + static_cast<size_t>(std::max(opts.oversample, 0)));

  Rng rng(opts.seed);
  Matrix q = Matrix::GaussianRandom(n, block, &rng);
  Status st = Orthonormalize(&q, &rng);
  if (!st.ok()) return st;

  std::vector<double> ritz_prev(block, 0.0);
  Matrix aq(n, block);
  int iterations = 0;
  bool converged = false;

  while (!converged && iterations < opts.max_iterations) {
    ++iterations;
    op.Apply(q, &aq);
    // Rayleigh-Ritz: T = q^T (A q), small block x block symmetric problem.
    Matrix t = MatTMul(q, aq);
    auto eig = JacobiEigen(t);
    if (!eig.ok()) return eig.status();
    const EigenDecomposition& dec = eig.value();

    // Rotate the basis toward the Ritz vectors: q <- (A q) * W then QR.
    // Using A q (not q) both advances the power iteration and aligns with
    // the Ritz ordering.
    q = MatMul(aq, dec.vectors);
    st = Orthonormalize(&q, &rng);
    if (!st.ok()) return st;

    double max_change = 0.0;
    double max_val = 0.0;
    for (size_t j = 0; j < block; ++j) {
      max_change = std::max(max_change,
                            std::fabs(dec.values[j] - ritz_prev[j]));
      max_val = std::max(max_val, std::fabs(dec.values[j]));
      ritz_prev[j] = dec.values[j];
    }
    converged =
        iterations > 2 && max_change <= opts.tol * std::max(max_val, 1e-30);
  }

  // Final Rayleigh-Ritz on the last basis for clean output pairs.
  op.Apply(q, &aq);
  Matrix t = MatTMul(q, aq);
  auto eig = JacobiEigen(t);
  if (!eig.ok()) return eig.status();
  const EigenDecomposition& dec = eig.value();
  Matrix ritz = MatMul(q, dec.vectors);

  EigenPairs out;
  out.iterations = iterations;
  out.converged = converged;
  out.values.assign(dec.values.begin(), dec.values.begin() + r);
  out.vectors.Resize(n, r);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < r; ++j) out.vectors(i, j) = ritz(i, j);
  return out;
}

}  // namespace tcss
