#ifndef TCSS_CORE_FACTOR_MODEL_H_
#define TCSS_CORE_FACTOR_MODEL_H_

#include <vector>

#include "linalg/matrix.h"

namespace tcss {

/// The learnable state of TCSS (Eq 6): three factor matrices plus the
/// dense-layer weight vector h. Plain value type; trainers own the
/// optimizer state separately.
struct FactorModel {
  Matrix u1;              ///< I x r (users)
  Matrix u2;              ///< J x r (POIs)
  Matrix u3;              ///< K x r (time bins)
  std::vector<double> h;  ///< r importance weights

  size_t rank() const { return h.size(); }

  /// X-hat(i,j,k) = sum_t h_t * U1[i,t] * U2[j,t] * U3[k,t].
  double Predict(uint32_t i, uint32_t j, uint32_t k) const {
    const double* a = u1.row(i);
    const double* b = u2.row(j);
    const double* c = u3.row(k);
    double s = 0.0;
    for (size_t t = 0; t < h.size(); ++t) s += h[t] * a[t] * b[t] * c[t];
    return s;
  }
};

/// Gradient accumulator shaped like a FactorModel. Also reused as the
/// container for Adam moment estimates (same shape as the model).
struct FactorGrads {
  Matrix u1, u2, u3;
  std::vector<double> h;

  /// Empty shape; filled in by deserialization (checkpoint restore).
  FactorGrads() = default;

  explicit FactorGrads(const FactorModel& m)
      : u1(m.u1.rows(), m.u1.cols()),
        u2(m.u2.rows(), m.u2.cols()),
        u3(m.u3.rows(), m.u3.cols()),
        h(m.h.size(), 0.0) {}

  void Zero() {
    u1.Fill(0.0);
    u2.Fill(0.0);
    u3.Fill(0.0);
    std::fill(h.begin(), h.end(), 0.0);
  }

  /// this += alpha * other (shapes must match). The merge step that
  /// ParallelReduce (common/thread_pool.h) applies to per-shard gradient
  /// buffers in ascending shard order (DESIGN.md, "Deterministic
  /// parallelism").
  void Add(const FactorGrads& other, double alpha = 1.0) {
    u1.Add(other.u1, alpha);
    u2.Add(other.u2, alpha);
    u3.Add(other.u3, alpha);
    for (size_t t = 0; t < h.size(); ++t) h[t] += alpha * other.h[t];
  }
};

}  // namespace tcss

#endif  // TCSS_CORE_FACTOR_MODEL_H_
