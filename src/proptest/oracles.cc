#include "proptest/oracles.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/whole_data_loss.h"
#include "geo/haversine.h"
#include "linalg/cholesky.h"

namespace tcss {
namespace proptest {

namespace {

/// Independent re-derivation of the model prediction (the oracle must not
/// trust FactorModel::Predict).
double PredictRef(const FactorModel& m, uint32_t i, uint32_t j, uint32_t k) {
  double s = 0.0;
  for (size_t t = 0; t < m.rank(); ++t) {
    s += m.h[t] * m.u1(i, t) * m.u2(j, t) * m.u3(k, t);
  }
  return s;
}

}  // namespace

double OracleDenseLoss(const FactorModel& model, const SparseTensor& x,
                       double w_pos, double w_neg, FactorGrads* grads) {
  const size_t I = x.dim_i();
  const size_t J = x.dim_j();
  const size_t K = x.dim_k();
  const size_t r = model.rank();
  double loss = 0.0;
  for (uint32_t i = 0; i < I; ++i) {
    for (uint32_t j = 0; j < J; ++j) {
      for (uint32_t k = 0; k < K; ++k) {
        const double value = x.Get(i, j, k);
        const double w = (value != 0.0) ? w_pos : w_neg;
        const double y = PredictRef(model, i, j, k);
        const double d = y - value;
        loss += w * d * d;
        if (grads != nullptr) {
          const double g = 2.0 * w * d;  // dL/dy at this cell
          for (size_t t = 0; t < r; ++t) {
            grads->u1(i, t) += g * model.h[t] * model.u2(j, t) * model.u3(k, t);
            grads->u2(j, t) += g * model.h[t] * model.u1(i, t) * model.u3(k, t);
            grads->u3(k, t) += g * model.h[t] * model.u1(i, t) * model.u2(j, t);
            grads->h[t] += g * model.u1(i, t) * model.u2(j, t) * model.u3(k, t);
          }
        }
      }
    }
  }
  return loss;
}

Matrix OracleMatMul(const Matrix& a, const Matrix& b) {
  TCSS_CHECK(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = s;
    }
  }
  return out;
}

Matrix OracleMatTMul(const Matrix& a, const Matrix& b) {
  TCSS_CHECK(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (size_t k = 0; k < a.rows(); ++k) s += a(k, i) * b(k, j);
      out(i, j) = s;
    }
  }
  return out;
}

Matrix OracleGram(const Matrix& a) { return OracleMatTMul(a, a); }

Matrix OracleMttkrp(const SparseTensor& x, const Matrix factors[3],
                    int mode) {
  TCSS_CHECK(mode >= 0 && mode <= 2);
  const size_t r = factors[(mode + 1) % 3].cols();
  Matrix out(x.dim(mode), r);
  const size_t I = x.dim_i();
  const size_t J = x.dim_j();
  const size_t K = x.dim_k();
  for (uint32_t i = 0; i < I; ++i) {
    for (uint32_t j = 0; j < J; ++j) {
      for (uint32_t k = 0; k < K; ++k) {
        const double value = x.Get(i, j, k);
        if (value == 0.0) continue;
        const uint32_t idx[3] = {i, j, k};
        const Matrix& fa = factors[(mode + 1) % 3];
        const Matrix& fb = factors[(mode + 2) % 3];
        for (size_t t = 0; t < r; ++t) {
          out(idx[mode], t) += value * fa(idx[(mode + 1) % 3], t) *
                               fb(idx[(mode + 2) % 3], t);
        }
      }
    }
  }
  return out;
}

double OracleHausdorffUser(const SocialHausdorffLoss& loss,
                           const Dataset& data, const FactorModel& model,
                           uint32_t user) {
  const std::vector<uint32_t>& s_set = loss.candidate_pool(user);
  const std::vector<uint32_t>& n_set = loss.friend_pois(user);
  if (s_set.empty() || n_set.empty()) return 0.0;
  const std::vector<double>& e = loss.entropy_weights();
  const double d_max = loss.d_max();
  const double alpha = loss.config().alpha;
  const size_t K = model.u3.rows();

  // Visit probabilities p_j = 1 - prod_k (1 - clamp(Xhat)).
  std::vector<double> p(s_set.size());
  for (size_t a = 0; a < s_set.size(); ++a) {
    double prod = 1.0;
    for (size_t k = 0; k < K; ++k) {
      double y = PredictRef(model, user, s_set[a], static_cast<uint32_t>(k));
      y = std::clamp(y, 0.0, 1.0 - kHausdorffCapMargin);
      prod *= 1.0 - y;
    }
    p[a] = 1.0 - prod;
  }

  // Term 1: sum_j p e_j dmin_j / (sum_j p + eps), dmin capped at d_max.
  double num = 0.0;
  double den = kHausdorffEpsilon;
  for (size_t a = 0; a < s_set.size(); ++a) {
    double dmin = d_max;
    for (uint32_t jp : n_set) {
      dmin = std::min(dmin, HaversineKm(data.poi(s_set[a]).location,
                                        data.poi(jp).location));
    }
    num += p[a] * e[s_set[a]] * dmin;
    den += p[a];
  }
  const double term1 = num / den;

  // Term 2: (1/|N|) sum_{j'} e_j' M_alpha over f = p d + (1-p) d_max.
  double term2 = 0.0;
  for (uint32_t jp : n_set) {
    double mean = 0.0;
    for (size_t a = 0; a < s_set.size(); ++a) {
      const double d = HaversineKm(data.poi(s_set[a]).location,
                                   data.poi(jp).location);
      const double f =
          std::max(p[a] * d + (1.0 - p[a]) * d_max, kHausdorffSoftMinFloor);
      mean += std::pow(f, alpha);
    }
    mean /= static_cast<double>(s_set.size());
    term2 += e[jp] * std::pow(mean, 1.0 / alpha);
  }
  term2 /= static_cast<double>(n_set.size());
  return term1 + term2;
}

std::vector<double> ReferenceGramApply(const ModeGramOperator& op,
                                       const std::vector<double>& x) {
  const std::vector<uint32_t>& row = op.GroupRows();
  const std::vector<double>& val = op.GroupValues();
  const std::vector<size_t>& col_start = op.GroupStarts();
  TCSS_CHECK(x.size() == op.Dim());
  std::vector<double> y(op.Dim(), 0.0);
  for (size_t g = 0; g + 1 < col_start.size(); ++g) {
    const size_t b = col_start[g];
    const size_t e = col_start[g + 1];
    double s = 0.0;
    for (size_t t = b; t < e; ++t) s += val[t] * x[row[t]];
    if (s == 0.0) continue;
    for (size_t t = b; t < e; ++t) y[row[t]] += val[t] * s;
  }
  if (op.zero_diagonal()) {
    for (size_t i = 0; i < op.Dim(); ++i) y[i] -= op.Diagonal()[i] * x[i];
  }
  return y;
}

namespace {

double ColDot(const Matrix& a, size_t p, size_t q) {
  double s = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) s += a(i, p) * a(i, q);
  return s;
}

void ColAxpy(Matrix* a, size_t dst, size_t src, double alpha) {
  for (size_t i = 0; i < a->rows(); ++i) (*a)(i, dst) += alpha * (*a)(i, src);
}

}  // namespace

Status ReferenceOrthonormalize(Matrix* a, Rng* rng) {
  const size_t m = a->rows();
  const size_t n = a->cols();
  if (m < n) return Status::InvalidArgument("rows < cols");
  constexpr double kRankTol = 1e-12;
  for (size_t j = 0; j < n; ++j) {
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t p = 0; p < j; ++p) {
        double proj = ColDot(*a, p, j);
        if (proj != 0.0) ColAxpy(a, j, p, -proj);
      }
    }
    double norm = std::sqrt(ColDot(*a, j, j));
    int retries = 0;
    while (norm < kRankTol) {
      if (rng == nullptr || ++retries > 8) {
        return Status::FailedPrecondition("rank deficient");
      }
      for (size_t i = 0; i < m; ++i) (*a)(i, j) = rng->Gaussian();
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t p = 0; p < j; ++p) {
          double proj = ColDot(*a, p, j);
          if (proj != 0.0) ColAxpy(a, j, p, -proj);
        }
      }
      norm = std::sqrt(ColDot(*a, j, j));
    }
    const double inv = 1.0 / norm;
    for (size_t i = 0; i < m; ++i) (*a)(i, j) *= inv;
  }
  return Status::OK();
}

double ReferenceHausdorffUser(const SocialHausdorffLoss& loss,
                              const Dataset& data, const FactorModel& model,
                              uint32_t user, FactorGrads* grads,
                              double grad_scale) {
  const auto& s_set = loss.candidate_pool(user);
  const auto& n_set = loss.friend_pois(user);
  const std::vector<double>& e = loss.entropy_weights();
  const double d_max = loss.d_max();
  constexpr double kCapMargin = kHausdorffCapMargin;
  constexpr double kFloorF = kHausdorffSoftMinFloor;
  if (s_set.empty() || n_set.empty()) return 0.0;
  const size_t ns = s_set.size();
  const size_t nn = n_set.size();
  const size_t K = model.u3.rows();
  const double alpha = loss.config().alpha;

  // --- probabilities p_j and their per-bin partials ---------------------
  std::vector<double> p(ns);
  std::vector<double> y(ns * K);        // clamped predictions
  std::vector<double> dp_dy(ns * K);    // dp_j / dy_{jk}
  std::vector<uint8_t> gate(ns * K);    // 1 if clamp is in the interior
  for (size_t a = 0; a < ns; ++a) {
    const uint32_t j = s_set[a];
    double prod = 1.0;
    for (size_t k = 0; k < K; ++k) {
      const double raw =
          model.Predict(user, j, static_cast<uint32_t>(k));
      double yc = raw;
      uint8_t g = 1;
      if (raw <= 0.0) {
        yc = 0.0;
        g = 0;
      } else if (raw >= 1.0 - kCapMargin) {
        yc = 1.0 - kHausdorffCapMargin;
        g = 0;
      }
      y[a * K + k] = yc;
      gate[a * K + k] = g;
      prod *= (1.0 - yc);
    }
    p[a] = 1.0 - prod;
    // dp/dy_k = prod_{k' != k} (1 - y_{k'}); via prefix/suffix products.
    // prefix[k] = prod_{k'<k} (1-y), suffix[k] = prod_{k'>k} (1-y).
    double prefix = 1.0;
    std::vector<double> suffix(K + 1, 1.0);
    for (size_t k = K; k-- > 0;) {
      suffix[k] = suffix[k + 1] * (1.0 - y[a * K + k]);
    }
    for (size_t k = 0; k < K; ++k) {
      dp_dy[a * K + k] = prefix * suffix[k + 1];
      prefix *= (1.0 - y[a * K + k]);
    }
  }

  // --- geometry: d(j, j') and dmin_j -------------------------------------
  // (The library may serve these floats from its construction-time
  // cache; HausdorffDistanceBlock fills both sides with the same bits.)
  std::vector<float> dist_f(ns * nn), dmin_f(ns);
  for (size_t a = 0; a < ns; ++a) {
    const GeoPoint& pj = data.poi(s_set[a]).location;
    double best = d_max;
    for (size_t b = 0; b < nn; ++b) {
      const double d = HaversineKm(pj, data.poi(n_set[b]).location);
      dist_f[a * nn + b] = static_cast<float>(d);
      best = std::min(best, d);
    }
    dmin_f[a] = static_cast<float>(best);
  }
  const float* dist = dist_f.data();
  const float* dmin = dmin_f.data();

  // --- term 1 -------------------------------------------------------------
  double a_sum = 0.0;
  double w_sum = 0.0;
  for (size_t a = 0; a < ns; ++a) {
    a_sum += p[a];
    w_sum += p[a] * e[s_set[a]] * dmin[a];
  }
  const double denom = a_sum + kHausdorffEpsilon;
  const double term1 = w_sum / denom;

  // --- term 2 -------------------------------------------------------------
  // f_{a,b} = p_a d(a,b) + (1 - p_a) d_max, clamped from below.
  // M_b = ((1/ns) sum_a f^alpha)^(1/alpha);  term2 = (1/nn) sum_b e_b M_b.
  double term2 = 0.0;
  std::vector<double> dl_dp(ns, 0.0);  // d(d_WH)/dp_a accumulated
  const double inv_ns = 1.0 / static_cast<double>(ns);
  const double inv_nn = 1.0 / static_cast<double>(nn);
  const bool harmonic = (alpha == -1.0);  // paper default; avoids pow()
  for (size_t b = 0; b < nn; ++b) {
    double s_alpha = 0.0;
    for (size_t a = 0; a < ns; ++a) {
      const double f = std::max(
          p[a] * dist[a * nn + b] + (1.0 - p[a]) * d_max, kFloorF);
      s_alpha += harmonic ? 1.0 / f : std::pow(f, alpha);
    }
    s_alpha *= inv_ns;
    const double m =
        harmonic ? 1.0 / s_alpha : std::pow(s_alpha, 1.0 / alpha);
    const double eb = e[n_set[b]];
    term2 += inv_nn * eb * m;
    if (grads != nullptr) {
      // dM/df_a = S^(1/alpha - 1) * f^(alpha-1) / ns
      const double s_pow = harmonic
                               ? 1.0 / (s_alpha * s_alpha)
                               : std::pow(s_alpha, 1.0 / alpha - 1.0);
      for (size_t a = 0; a < ns; ++a) {
        const double f = std::max(
            p[a] * dist[a * nn + b] + (1.0 - p[a]) * d_max, kFloorF);
        if (f <= kFloorF) continue;  // clamped: zero subgradient
        const double f_pow =
            harmonic ? 1.0 / (f * f) : std::pow(f, alpha - 1.0);
        const double dm_df = s_pow * f_pow * inv_ns;
        const double df_dp = dist[a * nn + b] - d_max;
        dl_dp[a] += inv_nn * eb * dm_df * df_dp;
      }
    }
  }

  if (grads != nullptr) {
    // term1 gradient: dT1/dp_a = (e_a dmin_a - T1) / denom.
    for (size_t a = 0; a < ns; ++a) {
      dl_dp[a] += (e[s_set[a]] * dmin[a] - term1) / denom;
    }
    // Chain through p -> y -> factors.
    for (size_t a = 0; a < ns; ++a) {
      if (dl_dp[a] == 0.0) continue;
      const uint32_t j = s_set[a];
      for (size_t k = 0; k < K; ++k) {
        if (!gate[a * K + k]) continue;
        const double g = grad_scale * dl_dp[a] * dp_dy[a * K + k];
        if (g == 0.0) continue;
        AccumulateEntryGrad(model, user, j, static_cast<uint32_t>(k), g,
                            grads);
      }
    }
  }
  return term1 + term2;
}

std::vector<Recommendation> OracleTopK(const Recommender& model,
                                       uint32_t user, uint32_t time_bin,
                                       size_t num_pois,
                                       const TopKOptions& opts,
                                       const SparseTensor* train) {
  if (opts.exclude_visited && train == nullptr) return {};
  std::vector<uint8_t> excluded(num_pois, 0);
  if (opts.exclude_visited) {
    for (const TensorEntry& entry : train->entries()) {
      if (entry.i == user && entry.j < num_pois) excluded[entry.j] = 1;
    }
  }
  std::vector<uint8_t> allowed(num_pois, opts.candidates.empty() ? 1 : 0);
  for (uint32_t j : opts.candidates) {
    if (j < num_pois) allowed[j] = 1;
  }
  std::vector<Recommendation> scored;
  for (uint32_t j = 0; j < num_pois; ++j) {
    if (!allowed[j] || excluded[j]) continue;
    scored.push_back({j, model.Score(user, j, time_bin)});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Recommendation& a, const Recommendation& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.poi < b.poi;
            });
  if (scored.size() > std::min(opts.k, num_pois)) {
    scored.resize(std::min(opts.k, num_pois));
  }
  return scored;
}

Result<std::vector<double>> OracleFoldIn(
    const FactorModel& model, const std::vector<TensorCell>& observations,
    const FoldInOptions& opts) {
  const size_t r = model.rank();
  if (r == 0) return Status::FailedPrecondition("OracleFoldIn: empty model");
  const size_t J = model.u2.rows();
  const size_t K = model.u3.rows();
  if (J == 0 || K == 0) {
    return Status::FailedPrecondition("OracleFoldIn: empty POI/time factors");
  }
  // Observation membership on the grid.
  std::vector<uint8_t> observed(J * K, 0);
  for (const TensorCell& cell : observations) {
    if (cell.j >= J || cell.k >= K) {
      return Status::OutOfRange("OracleFoldIn: observation outside model");
    }
    observed[cell.j * K + cell.k] = 1;
  }
  // Normal equations of the weighted ridge LS, cell by dense cell:
  //   lhs = sum_{j,k} w_{jk} phi phi^T,  rhs = sum_{obs} w+ phi,
  // with phi = h ⊙ U2_j ⊙ U3_k and w_{jk} = w+ on observed cells, w-
  // elsewhere.
  Matrix lhs(r, r);
  std::vector<double> rhs(r, 0.0);
  std::vector<double> phi(r);
  for (uint32_t j = 0; j < J; ++j) {
    for (uint32_t k = 0; k < K; ++k) {
      for (size_t t = 0; t < r; ++t) {
        phi[t] = model.h[t] * model.u2(j, t) * model.u3(k, t);
      }
      const bool obs = observed[j * K + k] != 0;
      const double w = obs ? opts.w_pos : opts.w_neg;
      for (size_t a = 0; a < r; ++a) {
        for (size_t b = 0; b < r; ++b) lhs(a, b) += w * phi[a] * phi[b];
        if (obs) rhs[a] += opts.w_pos * phi[a];
      }
    }
  }
  return CholeskySolve(lhs, rhs, opts.ridge);
}

double RelDiff(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) / scale;
}

double RelMaxDiff(const Matrix& a, const Matrix& b) {
  TCSS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, RelDiff(a.data()[i], b.data()[i]));
  }
  return m;
}

double RelMaxDiff(const FactorGrads& a, const FactorGrads& b) {
  double m = RelMaxDiff(a.u1, b.u1);
  m = std::max(m, RelMaxDiff(a.u2, b.u2));
  m = std::max(m, RelMaxDiff(a.u3, b.u3));
  TCSS_CHECK(a.h.size() == b.h.size());
  for (size_t t = 0; t < a.h.size(); ++t) {
    m = std::max(m, RelDiff(a.h[t], b.h[t]));
  }
  return m;
}

FactorGrads CentralDifferenceGrads(
    const std::function<double(const FactorModel&)>& f, FactorModel model,
    double step) {
  FactorGrads grads(model);
  auto diff = [&](double* param, double* grad) {
    const double saved = *param;
    *param = saved + step;
    const double up = f(model);
    *param = saved - step;
    const double down = f(model);
    *param = saved;
    *grad = (up - down) / (2.0 * step);
  };
  Matrix* factors[3] = {&model.u1, &model.u2, &model.u3};
  Matrix* grad_factors[3] = {&grads.u1, &grads.u2, &grads.u3};
  for (int m = 0; m < 3; ++m) {
    for (size_t i = 0; i < factors[m]->size(); ++i) {
      diff(factors[m]->data() + i, grad_factors[m]->data() + i);
    }
  }
  for (size_t t = 0; t < model.h.size(); ++t) {
    diff(&model.h[t], &grads.h[t]);
  }
  return grads;
}

}  // namespace proptest
}  // namespace tcss
