#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace tcss {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FromRowsAndIdentity) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 1), 4);
  Matrix id = Matrix::Identity(3);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
}

TEST(MatrixTest, MatMulAgainstHandComputed) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, MatMulIdentityIsNoop) {
  Rng rng(1);
  Matrix a = Matrix::GaussianRandom(4, 4, &rng);
  EXPECT_LT(MaxAbsDiff(MatMul(a, Matrix::Identity(4)), a), 1e-14);
  EXPECT_LT(MaxAbsDiff(MatMul(Matrix::Identity(4), a), a), 1e-14);
}

TEST(MatrixTest, TransposedVariantsAgree) {
  Rng rng(2);
  Matrix a = Matrix::GaussianRandom(5, 3, &rng);
  Matrix b = Matrix::GaussianRandom(5, 4, &rng);
  // a^T b via MatTMul == explicit transpose then MatMul.
  EXPECT_LT(MaxAbsDiff(MatTMul(a, b), MatMul(a.Transposed(), b)), 1e-12);
  Matrix c = Matrix::GaussianRandom(6, 3, &rng);
  EXPECT_LT(MaxAbsDiff(MatMulT(a, c), MatMul(a, c.Transposed())), 1e-12);
}

TEST(MatrixTest, GramIsSymmetricPsd) {
  Rng rng(3);
  Matrix a = Matrix::GaussianRandom(10, 4, &rng);
  Matrix g = Gram(a);
  ASSERT_EQ(g.rows(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_GE(g(i, i), 0.0);
    for (size_t j = 0; j < 4; ++j) EXPECT_NEAR(g(i, j), g(j, i), 1e-12);
  }
}

TEST(MatrixTest, MatVecAndTranspose) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  auto y = MatVec(a, {1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
  auto z = MatTVec(a, {1, 1});
  EXPECT_DOUBLE_EQ(z[0], 5);
  EXPECT_DOUBLE_EQ(z[1], 7);
  EXPECT_DOUBLE_EQ(z[2], 9);
}

TEST(MatrixTest, HadamardAndScaleAdd) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{2, 2}, {2, 2}});
  Matrix h = Hadamard(a, b);
  EXPECT_DOUBLE_EQ(h(1, 1), 8);
  a.Add(b, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  a.Scale(2.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 4.0);
}

TEST(MatrixTest, Norms) {
  Matrix a = Matrix::FromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
}

TEST(MatrixTest, Column) {
  Rng rng(4);
  Matrix a = Matrix::GaussianRandom(6, 3, &rng);
  auto col = a.Column(1);
  ASSERT_EQ(col.size(), 6u);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(col[i], a(i, 1));
}

TEST(VectorOpsTest, DotAndNorm) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32);
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5);
}

TEST(VectorOpsTest, Cosine) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {0, 1}), 0.0);
  EXPECT_NEAR(CosineSimilarity({1, 2}, {2, 4}), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 2}, {-1, -2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 2}), 0.0);
}

// Property sweep: (A B) C == A (B C) across shapes.
class MatMulAssocTest : public ::testing::TestWithParam<int> {};

TEST_P(MatMulAssocTest, Associativity) {
  Rng rng(GetParam());
  const size_t m = 1 + rng.UniformInt(8);
  const size_t n = 1 + rng.UniformInt(8);
  const size_t p = 1 + rng.UniformInt(8);
  const size_t q = 1 + rng.UniformInt(8);
  Matrix a = Matrix::GaussianRandom(m, n, &rng);
  Matrix b = Matrix::GaussianRandom(n, p, &rng);
  Matrix c = Matrix::GaussianRandom(p, q, &rng);
  EXPECT_LT(MaxAbsDiff(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c))),
            1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulAssocTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace tcss
