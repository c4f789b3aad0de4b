#include "baselines/geomf.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "geo/haversine.h"
#include "linalg/cholesky.h"

namespace tcss {

Status GeoMf::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr || ctx.data == nullptr) {
    return Status::InvalidArgument("GeoMf: null context");
  }
  const SparseTensor& x = *ctx.train;
  const Dataset& data = *ctx.data;
  const size_t I = x.dim_i();
  const size_t J = x.dim_j();
  const size_t r = std::min(opts_.rank, std::min(I, J));
  num_pois_ = J;

  // Distinct (user, poi) pairs, grouped both ways.
  std::vector<std::span<const uint32_t>> by_user(I);
  std::vector<std::vector<uint32_t>> by_poi(J);
  for (uint32_t i = 0; i < I; ++i) {
    by_user[i] = x.Pois(i);
    for (uint32_t j : by_user[i]) by_poi[j].push_back(i);
  }

  // --- Weighted implicit ALS on the binary user-POI matrix -------------
  Rng rng(opts_.seed ^ ctx.seed);
  user_ = Matrix::GaussianRandom(I, r, &rng, 0.1);
  poi_ = Matrix::GaussianRandom(J, r, &rng, 0.1);
  const double dw = opts_.w_pos - opts_.w_neg;
  auto update_side = [&](Matrix* rows, const Matrix& cols, const auto& nz) {
    // Shared part of the normal equations: w- * cols^T cols.
    Matrix base = Gram(cols);
    base.Scale(opts_.w_neg);
    for (size_t row = 0; row < rows->rows(); ++row) {
      Matrix lhs = base;
      std::vector<double> rhs(r, 0.0);
      for (uint32_t other : nz[row]) {
        const double* c = cols.row(other);
        for (size_t a = 0; a < r; ++a) {
          rhs[a] += opts_.w_pos * c[a];
          for (size_t b = 0; b < r; ++b) lhs(a, b) += dw * c[a] * c[b];
        }
      }
      auto sol = CholeskySolve(lhs, rhs, opts_.ridge);
      if (!sol.ok()) continue;  // keep the previous row on failure
      for (size_t a = 0; a < r; ++a) (*rows)(row, a) = sol.value()[a];
    }
  };
  for (int sweep = 0; sweep < opts_.sweeps; ++sweep) {
    update_side(&user_, poi_, by_user);
    update_side(&poi_, user_, by_poi);
  }

  // --- Geographic activity term ----------------------------------------
  geo_.assign(I * J, 0.0f);
  const double inv_two_sigma2 =
      1.0 / (2.0 * opts_.kernel_sigma_km * opts_.kernel_sigma_km);
  double max_geo = 1e-12;
  for (uint32_t i = 0; i < I; ++i) {
    float* row = geo_.data() + static_cast<size_t>(i) * J;
    for (uint32_t j = 0; j < J; ++j) {
      double affinity = 0.0;
      for (uint32_t anchor : by_user[i]) {
        const double d = HaversineKm(data.poi(anchor).location,
                                     data.poi(j).location);
        affinity += std::exp(-d * d * inv_two_sigma2);
      }
      row[j] = static_cast<float>(affinity);
      max_geo = std::max(max_geo, affinity);
    }
  }
  const float inv = static_cast<float>(1.0 / max_geo);
  for (auto& g : geo_) g *= inv;
  return Status::OK();
}

double GeoMf::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const double* u = user_.row(i);
  const double* v = poi_.row(j);
  double s = 0.0;
  for (size_t t = 0; t < user_.cols(); ++t) s += u[t] * v[t];
  return s + opts_.geo_weight *
                 geo_[static_cast<size_t>(i) * num_pois_ + j];
}

}  // namespace tcss
