#include "linalg/subspace_iteration.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/strings.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/qr.h"

namespace tcss {
namespace {

// Degree of the Chebyshev filter applied between Rayleigh-Ritz steps.
constexpr int kFilterDegree = 8;

// Guard vectors beyond the requested r: they improve convergence of the
// trailing eigenpairs and are discarded from the output.
constexpr size_t kOversample = 4;

// Chebyshev filter of degree m on the Ritz block v (n x b, Ritz values
// theta, their images av = A v), damping the interval [0, top] that
// holds the unwanted part of a PSD spectrum. With t(x) = 2x / top - 1,
// which maps [0, top] onto [-1, 1], column j of the result is
// T_m(t(A)) v_j / T_m(t(theta_j)): each column carries its own scale, so
// its own component stays near 1 however wide the spectrum (Zhou and
// Saad's scaled three-term recurrence, J. Comput. Phys. 219, 2006, with
// a per-column reference point). The first term reuses av, so the
// filter costs m - 1 applications. Overwrites v, av and ay, and returns
// whichever of v and av holds the result.
Matrix* ChebyshevFilter(const LinearOperator& op,
                        const std::vector<double>& theta, double top, int m,
                        Matrix* v, Matrix* av, Matrix* ay) {
  const size_t n = v->rows();
  const size_t b = v->cols();
  const double e = 0.5 * top;  // half-width and centre of [0, top]
  // Per column: two_t = 2 t(theta_j), and s_k = T_{k-1} / T_k at theta_j.
  std::vector<double> two_t(b), s(b), alpha(b), beta(b);
  for (size_t j = 0; j < b; ++j) {
    two_t[j] = 2.0 * (theta[j] - e) / e;
    s[j] = 2.0 / two_t[j];
    alpha[j] = s[j] / e;
  }
  // Y_1 = (s_1 / e)(A - e) V, written over av.
  for (size_t i = 0; i < n; ++i) {
    const double* vi = v->row(i);
    double* yi = av->row(i);
    for (size_t j = 0; j < b; ++j) yi[j] = (yi[j] - e * vi[j]) * alpha[j];
  }
  Matrix* prev = v;
  Matrix* cur = av;
  // Y_{k+1} = (2 s_{k+1} / e)(A - e) Y_k - s_k s_{k+1} Y_{k-1}, with
  // s_{k+1} = 1 / (2 t - s_k), written over Y_{k-1}.
  for (int k = 1; k < m; ++k) {
    op.Apply(*cur, ay);
    for (size_t j = 0; j < b; ++j) {
      const double next = 1.0 / (two_t[j] - s[j]);
      alpha[j] = 2.0 * next / e;
      beta[j] = s[j] * next;
      s[j] = next;
    }
    for (size_t i = 0; i < n; ++i) {
      const double* ci = cur->row(i);
      const double* ai = ay->row(i);
      double* pi = prev->row(i);
      for (size_t j = 0; j < b; ++j) {
        pi[j] = (ai[j] - e * ci[j]) * alpha[j] - beta[j] * pi[j];
      }
    }
    std::swap(prev, cur);
  }
  return cur;
}

}  // namespace

Result<EigenPairs> SubspaceEigen(const LinearOperator& op, size_t r,
                                 const SubspaceIterationOptions& opts) {
  const size_t n = op.Dim();
  if (r == 0 || r > n) {
    return Status::InvalidArgument(
        StrFormat("SubspaceEigen: r=%zu out of range for dim %zu", r, n));
  }
  if (opts.max_iterations < 1) {
    return Status::InvalidArgument(
        StrFormat("SubspaceEigen: max_iterations=%d, need at least 1",
                  opts.max_iterations));
  }
  const size_t block = std::min(n, r + kOversample);

  Rng rng(opts.seed);
  Matrix q = Matrix::GaussianRandom(n, block, &rng);
  Status st = Orthonormalize(&q, &rng);
  if (!st.ok()) return st;

  Matrix aq(n, block);
  op.Apply(q, &aq);
  int applications = 1;
  while (true) {
    // Rayleigh-Ritz: T = q^T (A q); the Ritz vectors V = q W and their
    // images A V = (A q) W come without another application.
    auto eig = JacobiEigen(MatTMul(q, aq));
    if (!eig.ok()) return eig.status();
    const EigenDecomposition& dec = eig.value();
    Matrix v = MatMul(q, dec.vectors);
    Matrix av = MatMul(aq, dec.vectors);
    const std::vector<double>& theta = dec.values;

    // Converged when every wanted residual ||A v_j - theta_j v_j|| is at
    // most tol * theta_1. A block spanning the whole space is exact.
    bool converged = block == n;
    if (!converged) {
      std::vector<double> res(r, 0.0);
      for (size_t i = 0; i < n; ++i) {
        const double* vi = v.row(i);
        const double* ai = av.row(i);
        for (size_t j = 0; j < r; ++j) {
          const double d = ai[j] - theta[j] * vi[j];
          res[j] += d * d;
        }
      }
      const double bound = opts.tol * std::fabs(theta[0]);
      converged = true;
      for (size_t j = 0; j < r; ++j) {
        converged = converged && std::sqrt(res[j]) <= bound;
      }
    }
    if (converged || applications >= opts.max_iterations) {
      EigenPairs out;
      out.iterations = applications;
      out.converged = converged;
      out.values.assign(theta.begin(), theta.begin() + r);
      out.vectors.Resize(n, r);
      for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < r; ++j) out.vectors(i, j) = v(i, j);
      return out;
    }

    // Filter the Ritz block, spending at most the applications left (one
    // of them on the block's image below). Without a positive interval
    // [0, theta_b] below theta_1 to damp, take a plain power step: the
    // block's image A V.
    const int m =
        std::min(kFilterDegree, opts.max_iterations - applications);
    const double top = theta[block - 1];
    Matrix* filtered = &av;
    if (top > 0.0 && top < theta[0] * (1.0 - 1e-12)) {
      filtered = ChebyshevFilter(op, theta, top, m, &v, &av, &aq);
      applications += m - 1;
    }
    q = std::move(*filtered);
    st = Orthonormalize(&q, &rng);
    if (!st.ok()) return st;
    op.Apply(q, &aq);
    ++applications;
  }
}

}  // namespace tcss
