#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tensor/gram_operator.h"
#include "tensor/matricization.h"
#include "tensor/mttkrp.h"
#include "tensor/sparse_tensor.h"

namespace tcss {
namespace {

SparseTensor RandomTensor(size_t I, size_t J, size_t K, size_t nnz,
                          uint64_t seed, bool binary = true) {
  SparseTensor t(I, J, K);
  Rng rng(seed);
  for (size_t n = 0; n < nnz; ++n) {
    EXPECT_TRUE(t.Add(rng.UniformInt(I), rng.UniformInt(J), rng.UniformInt(K),
                      binary ? 1.0 : rng.Uniform(0.1, 2.0))
                    .ok());
  }
  EXPECT_TRUE(t.Finalize(binary).ok());
  return t;
}

TEST(SparseTensorTest, AddFinalizeGet) {
  SparseTensor t(3, 4, 5);
  ASSERT_TRUE(t.Add(0, 1, 2).ok());
  ASSERT_TRUE(t.Add(2, 3, 4).ok());
  ASSERT_TRUE(t.Add(0, 1, 2).ok());  // duplicate
  ASSERT_TRUE(t.Finalize().ok());
  EXPECT_EQ(t.nnz(), 2u);  // coalesced
  EXPECT_DOUBLE_EQ(t.Get(0, 1, 2), 1.0);
  EXPECT_DOUBLE_EQ(t.Get(2, 3, 4), 1.0);
  EXPECT_DOUBLE_EQ(t.Get(1, 1, 1), 0.0);
  EXPECT_TRUE(t.Contains(0, 1, 2));
  EXPECT_FALSE(t.Contains(0, 1, 3));
}

TEST(SparseTensorTest, NonBinaryCoalesceSums) {
  SparseTensor t(2, 2, 2);
  ASSERT_TRUE(t.Add(0, 0, 0, 1.5).ok());
  ASSERT_TRUE(t.Add(0, 0, 0, 2.5).ok());
  ASSERT_TRUE(t.Finalize(/*binary=*/false).ok());
  EXPECT_DOUBLE_EQ(t.Get(0, 0, 0), 4.0);
}

TEST(SparseTensorTest, RejectsOutOfRangeAndDoubleFinalize) {
  SparseTensor t(2, 2, 2);
  EXPECT_FALSE(t.Add(2, 0, 0).ok());
  EXPECT_FALSE(t.Add(0, 2, 0).ok());
  EXPECT_FALSE(t.Add(0, 0, 2).ok());
  ASSERT_TRUE(t.Finalize().ok());
  EXPECT_FALSE(t.Add(0, 0, 0).ok());
  EXPECT_FALSE(t.Finalize().ok());
}

TEST(SparseTensorTest, DensityAndDims) {
  SparseTensor t = RandomTensor(10, 10, 10, 50, 1);
  EXPECT_EQ(t.dim(0), 10u);
  EXPECT_EQ(t.dim(1), 10u);
  EXPECT_EQ(t.dim(2), 10u);
  EXPECT_DOUBLE_EQ(t.NumCells(), 1000.0);
  EXPECT_NEAR(t.Density(), t.nnz() / 1000.0, 1e-15);
}

TEST(SparseTensorTest, EntriesAreSorted) {
  SparseTensor t = RandomTensor(7, 7, 7, 100, 2);
  const auto& e = t.entries();
  for (size_t n = 1; n < e.size(); ++n) {
    const bool less =
        std::make_tuple(e[n - 1].i, e[n - 1].j, e[n - 1].k) <
        std::make_tuple(e[n].i, e[n].j, e[n].k);
    EXPECT_TRUE(less);
  }
}

TEST(MatricizationTest, UnfoldingShapesAndEntries) {
  SparseTensor t(2, 3, 4);
  ASSERT_TRUE(t.Add(1, 2, 3).ok());
  ASSERT_TRUE(t.Finalize().ok());
  Matrix m0 = Unfold(t, 0);
  EXPECT_EQ(m0.rows(), 2u);
  EXPECT_EQ(m0.cols(), 12u);
  EXPECT_DOUBLE_EQ(m0(1, 2 * 4 + 3), 1.0);
  Matrix m1 = Unfold(t, 1);
  EXPECT_EQ(m1.rows(), 3u);
  EXPECT_EQ(m1.cols(), 8u);
  EXPECT_DOUBLE_EQ(m1(2, 1 * 4 + 3), 1.0);
  Matrix m2 = Unfold(t, 2);
  EXPECT_EQ(m2.rows(), 4u);
  EXPECT_EQ(m2.cols(), 6u);
  EXPECT_DOUBLE_EQ(m2(3, 1 * 3 + 2), 1.0);
}

TEST(MatricizationTest, UnfoldingPreservesMass) {
  SparseTensor t = RandomTensor(5, 6, 7, 60, 4, /*binary=*/false);
  double mass = 0.0;
  for (const auto& e : t.entries()) mass += e.value * e.value;
  for (int mode = 0; mode < 3; ++mode) {
    Matrix m = Unfold(t, mode);
    double sum = 0.0;
    for (size_t i = 0; i < m.rows(); ++i)
      for (size_t j = 0; j < m.cols(); ++j) sum += m(i, j) * m(i, j);
    EXPECT_NEAR(sum, mass, 1e-10);
  }
}

// MTTKRP against the dense reference computation.
class MttkrpTest : public ::testing::TestWithParam<int> {};

TEST_P(MttkrpTest, MatchesDenseReference) {
  const int mode = GetParam();
  Rng rng(17);
  SparseTensor t = RandomTensor(6, 5, 4, 40, 5, /*binary=*/false);
  const size_t r = 3;
  Matrix factors[3] = {Matrix::GaussianRandom(6, r, &rng),
                       Matrix::GaussianRandom(5, r, &rng),
                       Matrix::GaussianRandom(4, r, &rng)};
  Matrix fast = Mttkrp(t, factors, mode);

  // Dense reference: out[row, t] = sum over all entries of
  // value * f1[idx1,t] * f2[idx2,t].
  Matrix ref(t.dim(mode), r);
  for (const auto& e : t.entries()) {
    const uint32_t idx[3] = {e.i, e.j, e.k};
    for (size_t tt = 0; tt < r; ++tt) {
      ref(idx[mode], tt) += e.value *
                            factors[(mode + 1) % 3](idx[(mode + 1) % 3], tt) *
                            factors[(mode + 2) % 3](idx[(mode + 2) % 3], tt);
    }
  }
  EXPECT_LT(MaxAbsDiff(fast, ref), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Modes, MttkrpTest, ::testing::Values(0, 1, 2));

// ModeGramOperator against the dense A A^T with and without the diagonal.
class GramOperatorTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(GramOperatorTest, MatchesDenseGram) {
  const int mode = std::get<0>(GetParam());
  const bool zero_diag = std::get<1>(GetParam());
  SparseTensor t = RandomTensor(8, 7, 6, 80, 6, /*binary=*/false);
  ModeGramOperator op(t, mode, zero_diag);
  Matrix unfolding = Unfold(t, mode);
  Matrix dense = MatMulT(unfolding, unfolding);
  if (zero_diag) {
    for (size_t i = 0; i < dense.rows(); ++i) dense(i, i) = 0.0;
  }
  ASSERT_EQ(op.Dim(), dense.rows());
  Rng rng(7);
  for (size_t b : {1, 5}) {
    const Matrix x = Matrix::GaussianRandom(op.Dim(), b, &rng);
    Matrix fast(op.Dim(), b);
    op.Apply(x, &fast);
    const Matrix ref = MatMul(dense, x);
    EXPECT_LT(MaxAbsDiff(fast, ref), 1e-9) << "mode " << mode << " b " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndDiag, GramOperatorTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Bool()));

TEST(GramOperatorTest, DiagonalMatchesDense) {
  SparseTensor t = RandomTensor(5, 5, 5, 40, 8, /*binary=*/false);
  for (int mode = 0; mode < 3; ++mode) {
    ModeGramOperator op(t, mode, true);
    Matrix unfolding = Unfold(t, mode);
    for (size_t i = 0; i < op.Dim(); ++i) {
      double expected = 0.0;
      for (size_t c = 0; c < unfolding.cols(); ++c) {
        expected += unfolding(i, c) * unfolding(i, c);
      }
      EXPECT_NEAR(op.Diagonal()[i], expected, 1e-10);
    }
  }
}

}  // namespace
}  // namespace tcss
