#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

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

// Counts the Apply calls made on a wrapped operator.
class CountingOperator : public LinearOperator {
 public:
  explicit CountingOperator(const LinearOperator* base) : base_(base) {}
  size_t Dim() const override { return base_->Dim(); }
  void Apply(const Matrix& x, Matrix* y) const override {
    ++applications_;
    base_->Apply(x, y);
  }
  int applications() const { return applications_; }

 private:
  const LinearOperator* base_;
  mutable int applications_ = 0;
};

// diag(d) as an operator, without the n x n matrix.
class DiagonalOperator : public LinearOperator {
 public:
  explicit DiagonalOperator(std::vector<double> d) : d_(std::move(d)) {}
  size_t Dim() const override { return d_.size(); }
  void Apply(const Matrix& x, Matrix* y) const override {
    for (size_t i = 0; i < x.rows(); ++i)
      for (size_t j = 0; j < x.cols(); ++j) (*y)(i, j) = d_[i] * x(i, j);
  }

 private:
  std::vector<double> d_;
};

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

TEST(QrTest, RejectsWideMatrix) {
  Rng rng(9);
  Matrix a = Matrix::GaussianRandom(2, 5, &rng);
  EXPECT_FALSE(Orthonormalize(&a, &rng).ok());
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
  // A converging solve reports the operator applications it ran: one for
  // the starting block, then eight per degree-8 filter step.
  Rng rng(10);
  Matrix b = Matrix::GaussianRandom(30, 30, &rng);
  Matrix a = MatMulT(b, b);
  DenseOperator dense(&a);
  CountingOperator op(&dense);
  auto fast = SubspaceEigen(op, 5);
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(fast.value().converged);
  EXPECT_EQ(fast.value().iterations, 25);
  EXPECT_EQ(fast.value().iterations, op.applications());

  // Eigenvalues 1, 1 - 1e-7, 1 - 2e-7, ...: the filter gains a factor of
  // about 1.005 per step across the whole spectrum, far too little to
  // separate the block within the cap, and the Ritz residuals stay about
  // 100x the tolerance (a 1e-9 spacing would leave them within 1.3x of
  // it). The count is the applications run, never past the cap.
  Matrix d(40, 40);
  for (size_t i = 0; i < 40; ++i) {
    d(i, i) = 1.0 - 1e-7 * static_cast<double>(i);
  }
  DenseOperator slow(&d);
  for (int cap : {1, 2, 5, 9, 10, 300}) {
    SubspaceIterationOptions opts;
    opts.max_iterations = cap;
    CountingOperator counted(&slow);
    auto capped = SubspaceEigen(counted, 5, opts);
    ASSERT_TRUE(capped.ok());
    EXPECT_EQ(capped.value().iterations, cap);
    EXPECT_EQ(counted.applications(), cap);
    EXPECT_FALSE(capped.value().converged);
  }
  // A cap below what the solve needs ends the fast solve exactly there.
  for (int cap = 1; cap <= 25; ++cap) {
    SubspaceIterationOptions opts;
    opts.max_iterations = cap;
    CountingOperator counted(&dense);
    auto capped = SubspaceEigen(counted, 5, opts);
    ASSERT_TRUE(capped.ok());
    EXPECT_EQ(capped.value().iterations, counted.applications());
    EXPECT_LE(capped.value().iterations, cap);
    if (!capped.value().converged) {
      EXPECT_EQ(capped.value().iterations, cap);
    }
  }
  SubspaceIterationOptions none;
  none.max_iterations = 0;
  EXPECT_FALSE(SubspaceEigen(dense, 5, none).ok());
}

TEST(SubspaceIterationTest, WideSpectrumStaysFiniteAndAccurate) {
  // Eigenvalues 1e12 down to 1e-3, 10, 2 or 1 per decade. At the wider
  // spacings the block itself spans up to 1e13: a filter scaled once for
  // the whole block (at theta_1) shrinks its guard columns below the rank
  // tolerance, and an unscaled one grows its top column by up to ~1e110;
  // both return wrong trailing pairs here. Each column carries its own
  // scale instead.
  for (double decades : {0.1, 0.5, 1.0}) {
    const size_t n = static_cast<size_t>(std::lround(15.0 / decades)) + 1;
    std::vector<double> diag(n);
    for (size_t i = 0; i < n; ++i) {
      diag[i] = std::pow(10.0, 12.0 - decades * static_cast<double>(i));
    }
    DiagonalOperator op(diag);
    for (size_t r : {1, 5, 10}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " r=" << r);
      auto sub = SubspaceEigen(op, r);
      ASSERT_TRUE(sub.ok());
      const EigenPairs& pairs = sub.value();
      EXPECT_TRUE(pairs.converged);
      for (size_t i = 0; i < pairs.vectors.size(); ++i) {
        ASSERT_TRUE(std::isfinite(pairs.vectors.data()[i]));
      }
      EXPECT_LT(MaxAbsDiff(Gram(pairs.vectors), Matrix::Identity(r)), 1e-12);
      for (size_t t = 0; t < r; ++t) {
        EXPECT_NEAR(pairs.values[t], diag[t], 1e-12 * diag[t]) << "t=" << t;
        EXPECT_NEAR(std::fabs(pairs.vectors(t, t)), 1.0, 1e-12) << "t=" << t;
      }
    }
  }
}

TEST(SubspaceIterationTest, RejectsBadRank) {
  Matrix a = Matrix::Identity(4);
  DenseOperator op(&a);
  EXPECT_FALSE(SubspaceEigen(op, 0).ok());
  EXPECT_FALSE(SubspaceEigen(op, 5).ok());
}

TEST(SubspaceIterationTest, FullRankEqualsDim) {
  // r + oversample >= n, whether r = n or not: the first Rayleigh-Ritz
  // sees the whole space, so the solve is exact after one application.
  Rng rng(11);
  Matrix b = Matrix::GaussianRandom(8, 8, &rng);
  Matrix a = MatMulT(b, b);
  DenseOperator dense(&a);
  auto full = JacobiEigen(a);
  ASSERT_TRUE(full.ok());
  const double top = full.value().values[0];
  for (size_t r : {5, 8}) {
    CountingOperator op(&dense);
    auto sub = SubspaceEigen(op, r);
    ASSERT_TRUE(sub.ok());
    EXPECT_TRUE(sub.value().converged);
    EXPECT_EQ(sub.value().iterations, 1);
    EXPECT_EQ(op.applications(), 1);
    for (size_t t = 0; t < r; ++t) {
      EXPECT_NEAR(sub.value().values[t], full.value().values[t], 1e-12 * top);
    }
    EXPECT_LT(MaxResidual(a, sub.value().values, sub.value().vectors),
              1e-12 * top);
  }
}

TEST(SubspaceIterationTest, NullSpaceInTheBlockTakesPowerSteps) {
  // Rank 3 with r = 3: the four guard columns end in the null space, so
  // the block's smallest Ritz value is 0 up to rounding and there is no
  // interval [0, theta_b] for the filter to damp.
  std::vector<double> diag(30, 0.0);
  diag[0] = 3.0;
  diag[1] = 2.0;
  diag[2] = 1.0;
  DiagonalOperator op(diag);
  auto sub = SubspaceEigen(op, 3);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub.value().converged);
  for (size_t t = 0; t < 3; ++t) {
    EXPECT_NEAR(sub.value().values[t], diag[t], 1e-12);
    EXPECT_NEAR(std::fabs(sub.value().vectors(t, t)), 1.0, 1e-12);
  }
}

TEST(SubspaceIterationTest, SmallOperatorKeepsItsBlock) {
  // The null-space case scaled by s: every column of the block's image
  // is about s long. A rank tolerance that stays absolute at such norms
  // counts the whole block dead for s below ~1e-12, swaps in random
  // columns after every power step and runs to the cap with values
  // 38-88% low.
  for (size_t n : {10, 40}) {
    for (double s : {1.0, 1e-10, 1e-13, 1e-16}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " s=" << s);
      std::vector<double> diag(n, 0.0);
      diag[0] = 3.0 * s;
      diag[1] = 2.0 * s;
      diag[2] = 1.0 * s;
      DiagonalOperator op(diag);
      auto sub = SubspaceEigen(op, 3);
      ASSERT_TRUE(sub.ok());
      EXPECT_TRUE(sub.value().converged);
      EXPECT_LE(sub.value().iterations, 2);
      for (size_t t = 0; t < 3; ++t) {
        EXPECT_NEAR(sub.value().values[t], diag[t], 1e-12 * diag[t]);
        EXPECT_NEAR(std::fabs(sub.value().vectors(t, t)), 1.0, 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace tcss
