#ifndef TCSS_PROPTEST_ORACLES_H_
#define TCSS_PROPTEST_ORACLES_H_

#include <functional>
#include <vector>

#include "core/factor_model.h"
#include "core/fold_in.h"
#include "core/hausdorff_loss.h"
#include "core/recommend.h"
#include "core/tcss_config.h"
#include "data/dataset.h"
#include "eval/recommender.h"
#include "linalg/matrix.h"
#include "tensor/gram_operator.h"
#include "tensor/sparse_tensor.h"

namespace tcss {
namespace proptest {

/// Naive reference implementations ("oracles") of every optimized kernel
/// and loss in the stack. Each is written as the literal textbook
/// formula — no sorted-cursor tricks, no Gram rewrites, no caches — so a
/// property `optimized == oracle` genuinely checks the algebraic
/// equivalence the optimization claims (DESIGN.md §9). Oracles favour
/// obviousness over speed: costs are dense (O(I*J*K*r) etc.), which is
/// fine at property-test sizes.

// --- whole-data loss (Eq 14) ----------------------------------------------

/// Literal dense enumeration of Eq 14 over every cell of the I x J x K
/// grid, with membership via SparseTensor::Get. Accumulates analytic
/// gradients into `grads` when non-null (explicit per-cell partials, not
/// the shared AccumulateEntryGrad helper). O(I*J*K*(r + log nnz)).
double OracleDenseLoss(const FactorModel& model, const SparseTensor& x,
                       double w_pos, double w_neg, FactorGrads* grads);

// --- dense kernels --------------------------------------------------------

/// Triple-loop gemm out(i,j) = sum_k a(i,k) b(k,j), plain i-j-k dot
/// products.
Matrix OracleMatMul(const Matrix& a, const Matrix& b);

/// Triple-loop out(i,j) = sum_k a(k,i) b(k,j).
Matrix OracleMatTMul(const Matrix& a, const Matrix& b);

/// Triple-loop Gram a^T a.
Matrix OracleGram(const Matrix& a);

/// Entry-free MTTKRP: densifies X and contracts the full grid,
/// out(idx_mode, t) = sum over the other two modes of
/// X[i,j,k] * A(., t) * B(., t). O(I*J*K*r).
Matrix OracleMttkrp(const SparseTensor& x, const Matrix factors[3],
                    int mode);

// --- spectral initialization (Eq 4) --------------------------------------

/// The single-vector ModeGramOperator::Apply that the block kernel
/// replaced, kept verbatim as the bitwise reference: y = A (A^T x) in one
/// pass over the operator's column groups, skipping a group whose sum s
/// is zero, then the zero-diagonal term. Column c of the block Apply
/// must equal this applied to column c of the block, under either kernel
/// table.
std::vector<double> ReferenceGramApply(const ModeGramOperator& op,
                                       const std::vector<double>& x);

/// The left-looking modified Gram-Schmidt that Orthonormalize replaced,
/// kept verbatim as the bitwise reference: it walks columns in place
/// with a row stride, and draws the same rng values on its rank-
/// deficiency retry.
Status ReferenceOrthonormalize(Matrix* a, Rng* rng);

// --- social Hausdorff head (Eq 12) ----------------------------------------

/// Brute-force social Hausdorff distance of one user: recomputes
/// probabilities, double-precision haversine distances (no float cache)
/// and the generalized-mean soft minimum via std::pow from the formulas
/// in hausdorff_loss.h. Reads the loss object only for its precomputed
/// sets (S, N, entropy weights, d_max).
double OracleHausdorffUser(const SocialHausdorffLoss& loss,
                           const Dataset& data, const FactorModel& model,
                           uint32_t user);

/// The scalar ComputeForUser that the blocked Hausdorff kernels replaced,
/// kept verbatim (member reads turned into the loss's accessors, the
/// distances always computed on the fly) as the reference:
/// SocialHausdorffLoss::ComputeForUser must return the same value bytes
/// under either kernel table and accumulate gradients within 1e-12
/// relative of these (its fused soft-min sweep sums dL/dp in another
/// order, with one division per pair). One Predict call and one
/// AccumulateEntryGrad call per cell.
double ReferenceHausdorffUser(const SocialHausdorffLoss& loss,
                              const Dataset& data, const FactorModel& model,
                              uint32_t user, FactorGrads* grads,
                              double grad_scale);

// --- recommendation -------------------------------------------------------

/// Full-sort top-k: scores every candidate, sorts by (score desc, poi
/// asc), returns the first k distinct POIs. Honors the TopKOptions
/// contract (null-train exclusion => empty, k clamp, out-of-range and
/// duplicate candidates dropped).
std::vector<Recommendation> OracleTopK(const Recommender& model,
                                       uint32_t user, uint32_t time_bin,
                                       size_t num_pois,
                                       const TopKOptions& opts,
                                       const SparseTensor* train = nullptr);

// --- fold-in --------------------------------------------------------------

/// Dense-grid fold-in: builds the ridge normal equations by looping every
/// (j, k) cell of the J x K grid (no Gram rewrite), O(J*K*r^2), and
/// solves them. FoldInUser must agree.
Result<std::vector<double>> OracleFoldIn(
    const FactorModel& model, const std::vector<TensorCell>& observations,
    const FoldInOptions& opts = FoldInOptions());

// --- numeric helpers ------------------------------------------------------

/// |a - b| / max(1, |a|, |b|): relative for large values, absolute near
/// zero.
double RelDiff(double a, double b);

/// Max RelDiff over entries; shapes must match.
double RelMaxDiff(const Matrix& a, const Matrix& b);

/// Max RelDiff over all four gradient blocks; shapes must match.
double RelMaxDiff(const FactorGrads& a, const FactorGrads& b);

/// Central-difference gradient of `f` with respect to every parameter of
/// `model` (u1, u2, u3, h), step size `step`. O(#params) evaluations of f.
FactorGrads CentralDifferenceGrads(
    const std::function<double(const FactorModel&)>& f, FactorModel model,
    double step);

}  // namespace proptest
}  // namespace tcss

#endif  // TCSS_PROPTEST_ORACLES_H_
