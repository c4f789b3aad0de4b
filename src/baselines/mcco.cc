#include "baselines/mcco.h"

#include <algorithm>
#include <vector>

#include "linalg/svd.h"

namespace tcss {

Status Mcco::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr) {
    return Status::InvalidArgument("Mcco: null train tensor");
  }
  const SparseTensor& x = *ctx.train;
  const size_t I = x.dim_i();
  const size_t J = x.dim_j();

  z_ = Matrix(I, J);
  const size_t r = std::min(opts_.max_rank, std::min(I, J));
  for (int iter = 0; iter < opts_.iterations; ++iter) {
    // Y = P_Omega(X) + P_Omega_perp(Z): overwrite observed cells, the
    // (i, j) pairs collapsed over time, with 1.
    Matrix y = z_;
    for (uint32_t i = 0; i < I; ++i) {
      for (uint32_t j : x.Pois(i)) y(i, j) = 1.0;
    }
    auto svd = ComputeTruncatedSvd(y, r);
    if (!svd.ok()) return svd.status();
    const TruncatedSvd& dec = svd.value();
    // Z = U * shrink(S) * V^T, dropping zeroed components.
    z_.Fill(0.0);
    for (size_t t = 0; t < r; ++t) {
      const double s = std::max(dec.s[t] - opts_.tau, 0.0);
      if (s == 0.0) continue;
      for (size_t i = 0; i < I; ++i) {
        const double us = dec.u(i, t) * s;
        if (us == 0.0) continue;
        for (size_t j = 0; j < J; ++j) z_(i, j) += us * dec.v(j, t);
      }
    }
  }
  return Status::OK();
}

double Mcco::Score(uint32_t i, uint32_t j, uint32_t k) const {
  return z_(i, j);
}

}  // namespace tcss
