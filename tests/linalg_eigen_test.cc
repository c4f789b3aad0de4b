#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/qr.h"
#include "linalg/subspace_iteration.h"

namespace tcss {
namespace {

Matrix RandomSymmetric(size_t n, Rng* rng) {
  Matrix a = Matrix::GaussianRandom(n, n, rng);
  Matrix s(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  return s;
}

// ||A v - lambda v|| for each eigenpair.
double MaxResidual(const Matrix& a, const std::vector<double>& values,
                   const Matrix& vectors) {
  double worst = 0.0;
  for (size_t t = 0; t < values.size(); ++t) {
    std::vector<double> v = vectors.Column(t);
    std::vector<double> av = MatVec(a, v);
    double res = 0.0;
    for (size_t i = 0; i < v.size(); ++i) {
      double d = av[i] - values[t] * v[i];
      res += d * d;
    }
    worst = std::max(worst, std::sqrt(res));
  }
  return worst;
}

TEST(JacobiEigenTest, DiagonalMatrix) {
  Matrix a = Matrix::FromRows({{3, 0, 0}, {0, 1, 0}, {0, 0, 2}});
  auto r = JacobiEigen(a);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().values[0], 3, 1e-12);
  EXPECT_NEAR(r.value().values[1], 2, 1e-12);
  EXPECT_NEAR(r.value().values[2], 1, 1e-12);
}

TEST(JacobiEigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  auto r = JacobiEigen(a);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().values[0], 3, 1e-12);
  EXPECT_NEAR(r.value().values[1], 1, 1e-12);
}

TEST(JacobiEigenTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_FALSE(JacobiEigen(a).ok());
}

TEST(JacobiEigenTest, EigenvectorsAreOrthonormal) {
  Rng rng(5);
  Matrix a = RandomSymmetric(12, &rng);
  auto r = JacobiEigen(a);
  ASSERT_TRUE(r.ok());
  Matrix g = Gram(r.value().vectors);
  EXPECT_LT(MaxAbsDiff(g, Matrix::Identity(12)), 1e-10);
}

class JacobiPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JacobiPropertyTest, ResidualAndTraceAndOrder) {
  Rng rng(100 + GetParam());
  const size_t n = 2 + rng.UniformInt(20);
  Matrix a = RandomSymmetric(n, &rng);
  auto r = JacobiEigen(a);
  ASSERT_TRUE(r.ok());
  const auto& dec = r.value();
  EXPECT_LT(MaxResidual(a, dec.values, dec.vectors), 1e-9);
  // Eigenvalues sum to the trace.
  double trace = 0.0, sum = 0.0;
  for (size_t i = 0; i < n; ++i) trace += a(i, i);
  for (double v : dec.values) sum += v;
  EXPECT_NEAR(sum, trace, 1e-9 * std::max(1.0, std::fabs(trace)));
  // Non-increasing order.
  for (size_t t = 1; t < n; ++t) EXPECT_GE(dec.values[t - 1], dec.values[t]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JacobiPropertyTest, ::testing::Range(0, 10));

TEST(QrTest, OrthonormalizeProducesOrthonormalColumns) {
  Rng rng(7);
  Matrix a = Matrix::GaussianRandom(20, 6, &rng);
  ASSERT_TRUE(Orthonormalize(&a, &rng).ok());
  EXPECT_LT(MaxAbsDiff(Gram(a), Matrix::Identity(6)), 1e-10);
}

TEST(QrTest, OrthonormalizeRecoversFromRankDeficiency) {
  Rng rng(8);
  Matrix a = Matrix::GaussianRandom(10, 4, &rng);
  // Make column 3 a copy of column 0.
  for (size_t i = 0; i < 10; ++i) a(i, 3) = a(i, 0);
  ASSERT_TRUE(Orthonormalize(&a, &rng).ok());
  EXPECT_LT(MaxAbsDiff(Gram(a), Matrix::Identity(4)), 1e-10);
}

TEST(QrTest, OrthonormalizeFailsWithoutRngOnDeficiency) {
  Matrix a(5, 2);
  for (size_t i = 0; i < 5; ++i) a(i, 0) = a(i, 1) = 1.0;
  EXPECT_FALSE(Orthonormalize(&a, nullptr).ok());
}

TEST(QrTest, ThinQrReconstructs) {
  Rng rng(9);
  Matrix a = Matrix::GaussianRandom(12, 5, &rng);
  Matrix q, r;
  ASSERT_TRUE(ThinQr(a, &q, &r).ok());
  EXPECT_LT(MaxAbsDiff(MatMul(q, r), a), 1e-10);
  EXPECT_LT(MaxAbsDiff(Gram(q), Matrix::Identity(5)), 1e-10);
  // R upper triangular with positive diagonal.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_GT(r(i, i), 0.0);
    for (size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
  }
}

TEST(QrTest, RejectsWideMatrix) {
  Matrix a(2, 5), q, r;
  EXPECT_FALSE(ThinQr(a, &q, &r).ok());
}

TEST(SubspaceIterationTest, MatchesJacobiOnPsdMatrix) {
  Rng rng(10);
  // PSD matrix B B^T.
  Matrix b = Matrix::GaussianRandom(30, 30, &rng);
  Matrix a = MatMulT(b, b);
  DenseOperator op(&a);
  auto sub = SubspaceEigen(op, 5);
  ASSERT_TRUE(sub.ok());
  auto full = JacobiEigen(a);
  ASSERT_TRUE(full.ok());
  for (size_t t = 0; t < 5; ++t) {
    EXPECT_NEAR(sub.value().values[t], full.value().values[t],
                1e-6 * full.value().values[0]);
  }
  // Eigenvector directions match up to sign (assuming distinct values).
  for (size_t t = 0; t < 5; ++t) {
    double dot = 0.0;
    for (size_t i = 0; i < 30; ++i) {
      dot += sub.value().vectors(i, t) * full.value().vectors(i, t);
    }
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-5);
  }
}

TEST(SubspaceIterationTest, ReportsIterationsPerformedAndConvergence) {
  // A converging solve stops at the iteration whose Ritz values met tol.
  Rng rng(10);
  Matrix b = Matrix::GaussianRandom(30, 30, &rng);
  Matrix a = MatMulT(b, b);
  DenseOperator op(&a);
  auto fast = SubspaceEigen(op, 5);
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(fast.value().converged);
  EXPECT_EQ(fast.value().iterations, 82);

  // Eigenvalues 1, 0.999, ...: the gap past the block is tiny, so the
  // cap is reached. The count is the iterations run, not the cap + 1.
  Matrix d(40, 40);
  for (size_t i = 0; i < 40; ++i) {
    d(i, i) = 1.0 - 0.001 * static_cast<double>(i);
  }
  DenseOperator slow(&d);
  SubspaceIterationOptions opts;
  opts.max_iterations = 5;
  auto capped = SubspaceEigen(slow, 5, opts);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().iterations, 5);
  EXPECT_FALSE(capped.value().converged);
  auto defaults = SubspaceEigen(slow, 5);
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().iterations, 300);
  EXPECT_FALSE(defaults.value().converged);
}

TEST(SubspaceIterationTest, RejectsBadRank) {
  Matrix a = Matrix::Identity(4);
  DenseOperator op(&a);
  EXPECT_FALSE(SubspaceEigen(op, 0).ok());
  EXPECT_FALSE(SubspaceEigen(op, 5).ok());
}

TEST(SubspaceIterationTest, FullRankEqualsDim) {
  Rng rng(11);
  Matrix b = Matrix::GaussianRandom(8, 8, &rng);
  Matrix a = MatMulT(b, b);
  DenseOperator op(&a);
  auto sub = SubspaceEigen(op, 8);
  ASSERT_TRUE(sub.ok());
  auto full = JacobiEigen(a);
  ASSERT_TRUE(full.ok());
  for (size_t t = 0; t < 8; ++t) {
    EXPECT_NEAR(sub.value().values[t], full.value().values[t], 1e-6);
  }
}

}  // namespace
}  // namespace tcss
