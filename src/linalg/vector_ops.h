#ifndef TCSS_LINALG_VECTOR_OPS_H_
#define TCSS_LINALG_VECTOR_OPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcss {

/// Dot product; sizes must match.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm.
double Norm2(const std::vector<double>& v);

/// y[i] += alpha * x[i], then x[i] = +0.0, for i < n in one pass: the merge
/// of a ParallelReduce shard buffer (common/thread_pool.h) into its output,
/// which leaves the buffer ready for the next shard.
void AddAndZero(double* y, double* x, size_t n, double alpha = 1.0);

/// Cosine similarity in [-1, 1]; returns 0 if either vector is zero.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

/// One Adam step (Kingma & Ba; β1 = 0.9, β2 = 0.999, ε = 1e-8) of the n
/// parameters `value` on gradient `grad`, with moments m and v, at step
/// t >= 1:
///   m = β1 m + (1 - β1) g,   v = β2 v + (1 - β2) g²,
///   value -= lr (m̂ / (√v̂ + ε) + weight_decay value),
/// where m̂ = m / (1 - β1^t) and v̂ = v / (1 - β2^t). The one update of the
/// TCSS trainer (AdamStep) and the neural baselines (nn::Adam).
void AdamUpdate(double* value, const double* grad, double* m, double* v,
                size_t n, int64_t t, double lr, double weight_decay);

}  // namespace tcss

#endif  // TCSS_LINALG_VECTOR_OPS_H_
