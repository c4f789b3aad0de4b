#include "core/spectral_init.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "linalg/subspace_iteration.h"
#include "tensor/gram_operator.h"

namespace tcss {
namespace {

// Sign-aligns each column so its entry sum is non-negative (eigenvectors
// have arbitrary sign; a predominantly-positive orientation matches the
// non-negative tensor better).
void AlignSigns(Matrix* u) {
  for (size_t t = 0; t < u->cols(); ++t) {
    double s = 0.0;
    for (size_t i = 0; i < u->rows(); ++i) s += (*u)(i, t);
    if (s < 0.0) {
      for (size_t i = 0; i < u->rows(); ++i) (*u)(i, t) = -(*u)(i, t);
    }
  }
}

// Top-r eigenvectors of the (zero-diagonal) Gram of the mode-n unfolding.
// If r exceeds the mode dimension, the leading dim columns come from the
// eigensolver and the rest are filled with small random values. The
// eigensolver's iteration count and convergence go to `stats`.
Result<Matrix> SpectralFactor(const SparseTensor& train, int mode, size_t r,
                              uint64_t seed, SpectralInitStats* stats) {
  const size_t dim = train.dim(mode);
  const size_t r_eff = std::min(r, dim);
  ModeGramOperator gram(train, mode, /*zero_diagonal=*/true);
  // The zero-diagonal Gram G = A A^T - D is indefinite (lambda_min >=
  // -max D_ii by Gershgorin). SubspaceEigen's filter damps [0, theta_b]
  // and needs a PSD operator, so shift by max D_ii; the top eigenvectors
  // are then the algebraically largest of G, which is what Eq 4 asks for.
  double sigma = 0.0;
  for (double d : gram.Diagonal()) sigma = std::max(sigma, d);
  ShiftedOperator shifted(&gram, sigma);
  SubspaceIterationOptions opts;
  opts.seed = seed + static_cast<uint64_t>(mode) * 7919;
  auto eig = SubspaceEigen(shifted, r_eff, opts);
  if (!eig.ok()) return eig.status();
  stats->iterations[mode] = eig.value().iterations;
  stats->converged[mode] = eig.value().converged;
  Matrix u(dim, r);
  const Matrix& vecs = eig.value().vectors;
  for (size_t i = 0; i < dim; ++i)
    for (size_t t = 0; t < r_eff; ++t) u(i, t) = vecs(i, t);
  if (r_eff < r) {
    Rng rng(seed ^ 0xabcdef);
    for (size_t i = 0; i < dim; ++i)
      for (size_t t = r_eff; t < r; ++t) u(i, t) = rng.Gaussian(0.0, 0.05);
  }
  AlignSigns(&u);
  // Symmetry-breaking jitter: the exact eigenbasis is a stationary-ish
  // configuration for several loss terms; a small perturbation keeps the
  // subspace information while letting Adam leave the saddle quickly.
  {
    Rng rng(seed ^ 0x9177);
    const double scale = 0.25 / std::sqrt(static_cast<double>(dim));
    for (size_t i = 0; i < dim; ++i)
      for (size_t t = 0; t < r; ++t) u(i, t) += rng.Gaussian(0.0, scale);
  }
  return u;
}

}  // namespace

Result<FactorModel> InitializeFactorRows(const TcssConfig& config,
                                         size_t dim_i, size_t dim_j,
                                         size_t dim_k, size_t begin,
                                         size_t end) {
  if (config.init == InitMethod::kSpectral) {
    return Status::InvalidArgument(
        "spectral init needs the whole tensor; use random or one-hot");
  }
  if (begin > end || end > dim_i) {
    return Status::InvalidArgument("InitializeFactorRows: bad row range");
  }
  const size_t r = config.rank;
  FactorModel m;
  m.h.assign(r, 1.0);
  m.u1.Resize(end - begin, r);
  if (config.init == InitMethod::kRandom) {
    // One Gaussian stream, row-major over U1, then U2, then U3. Every U1
    // row is drawn (the stream is sequential); only [begin, end) is kept.
    Rng rng(config.seed);
    for (size_t i = 0; i < dim_i; ++i) {
      for (size_t t = 0; t < r; ++t) {
        const double x = rng.Gaussian(0.0, 0.1);
        if (i >= begin && i < end) m.u1(i - begin, t) = x;
      }
    }
    m.u2 = Matrix::GaussianRandom(dim_j, r, &rng, 0.1);
    m.u3 = Matrix::GaussianRandom(dim_k, r, &rng, 0.1);
    return m;
  }
  m.u2.Resize(dim_j, r);
  m.u3.Resize(dim_k, r);
  // The cyclic pattern follows the global row index.
  auto cyclic = [r](Matrix* u, size_t first) {
    for (size_t i = 0; i < u->rows(); ++i) (*u)(i, (first + i) % r) = 0.3;
  };
  cyclic(&m.u1, begin);
  cyclic(&m.u2, 0);
  cyclic(&m.u3, 0);
  return m;
}

Result<FactorModel> InitializeFactors(const SparseTensor& train,
                                      const TcssConfig& config,
                                      SpectralInitStats* stats) {
  if (!train.finalized()) {
    return Status::FailedPrecondition("InitializeFactors: tensor not final");
  }
  if (config.init != InitMethod::kSpectral) {
    return InitializeFactorRows(config, train.dim_i(), train.dim_j(),
                                train.dim_k(), 0, train.dim_i());
  }
  const size_t r = config.rank;
  SpectralInitStats local;
  if (stats == nullptr) stats = &local;
  auto u1 = SpectralFactor(train, 0, r, config.seed, stats);
  if (!u1.ok()) return u1.status();
  auto u2 = SpectralFactor(train, 1, r, config.seed + 1, stats);
  if (!u2.ok()) return u2.status();
  auto u3 = SpectralFactor(train, 2, r, config.seed + 2, stats);
  if (!u3.ok()) return u3.status();
  FactorModel m;
  m.u1 = u1.MoveValue();
  m.u2 = u2.MoveValue();
  m.u3 = u3.MoveValue();
  m.h.assign(r, 1.0);
  // Note: no magnitude rescaling is applied. The spectral factors keep
  // the eigenvector scale (entries ~ 1/sqrt(n)); Adam's per-coordinate
  // step sizes grow them quickly, and experiments showed that forcing the
  // initial mean prediction toward 0.5 creates a stiff starting point
  // that ends in a worse optimum.
  return m;
}

}  // namespace tcss
