#include "linalg/vector_ops.h"

#include <cmath>

#include "common/logging.h"

namespace tcss {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  TCSS_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm2(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

void AddAndZero(double* y, double* x, size_t n, double alpha) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
    x[i] = 0.0;
  }
}

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double na = Norm2(a);
  double nb = Norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

void AdamUpdate(double* value, const double* grad, double* m, double* v,
                size_t n, int64_t t, double lr, double weight_decay) {
  constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t));
  for (size_t idx = 0; idx < n; ++idx) {
    const double gi = grad[idx];
    m[idx] = b1 * m[idx] + (1.0 - b1) * gi;
    v[idx] = b2 * v[idx] + (1.0 - b2) * gi * gi;
    const double mhat = m[idx] / bc1;
    const double vhat = v[idx] / bc2;
    value[idx] -= lr * (mhat / (std::sqrt(vhat) + eps) +
                        weight_decay * value[idx]);
  }
}

}  // namespace tcss
