// Tests for the tensor's CSF tree and for the PSD-shifted Gram operator
// that spectral initialization runs subspace iteration over, checked
// against JacobiEigen on the materialized matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/subspace_iteration.h"
#include "tensor/gram_operator.h"
#include "tensor/mttkrp.h"
#include "tensor/sparse_tensor.h"

namespace tcss {
namespace {

SparseTensor RandomBinaryTensor(size_t I, size_t J, size_t K, size_t nnz,
                                uint64_t seed) {
  SparseTensor t(I, J, K);
  Rng rng(seed);
  for (size_t n = 0; n < nnz; ++n) {
    EXPECT_TRUE(
        t.Add(rng.UniformInt(I), rng.UniformInt(J), rng.UniformInt(K), 1.0)
            .ok());
  }
  EXPECT_TRUE(t.Finalize(true).ok());
  return t;
}

TEST(CsfTensorTest, StructureCountsAreConsistent) {
  SparseTensor coo = RandomBinaryTensor(10, 8, 6, 120, 1);
  const CsfView csf = coo.csf();
  const size_t fibers = coo.num_fibers();
  EXPECT_EQ(csf.fiber_start[fibers], coo.nnz());
  EXPECT_EQ(csf.slice_start[csf.num_slices], fibers);
  EXPECT_LE(csf.num_slices, coo.nnz());
  EXPECT_LE(fibers, coo.nnz());
  EXPECT_GE(fibers, csf.num_slices);
  EXPECT_EQ(csf.entry, coo.entries().data());  // no copy of the nonzeros
  // Slice ids strictly increasing; fiber ids within a slice strictly
  // increasing (inherited from the COO sort order).
  for (size_t s = 1; s < csf.num_slices; ++s) {
    EXPECT_LT(csf.slice_id[s - 1], csf.slice_id[s]);
  }
  for (size_t s = 0; s < csf.num_slices; ++s) {
    for (size_t f = csf.slice_start[s] + 1; f < csf.slice_start[s + 1]; ++f) {
      EXPECT_LT(csf.fiber_id[f - 1], csf.fiber_id[f]);
    }
  }
}

TEST(CsfTensorTest, EmptyTensor) {
  SparseTensor coo(3, 3, 3);
  ASSERT_TRUE(coo.Finalize().ok());
  const CsfView csf = coo.csf();
  EXPECT_EQ(csf.num_slices, 0u);
  EXPECT_EQ(coo.num_fibers(), 0u);
  EXPECT_EQ(csf.slice_start[0], 0u);
  EXPECT_EQ(csf.fiber_start[0], 0u);
  const Matrix factors[3] = {Matrix(3, 2, 1.0), Matrix(3, 2, 1.0),
                             Matrix(3, 2, 1.0)};
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix out = Mttkrp(coo, factors, mode);
    EXPECT_EQ(out.rows(), 3u);
    EXPECT_EQ(out.cols(), 2u);
    EXPECT_DOUBLE_EQ(out.MaxAbs(), 0.0) << "mode " << mode;
  }
}

// The dense matrix of a symmetric operator: A I.
Matrix Materialize(const LinearOperator& op) {
  Matrix a(op.Dim(), op.Dim());
  op.Apply(Matrix::Identity(op.Dim()), &a);
  return a;
}

TEST(GramEigenTest, SubspaceIterationAgreesWithJacobiOnShiftedGramOperator) {
  // The zero-diagonal Gram is indefinite; subspace (power) iteration
  // finds the largest-magnitude eigenvalues, while the algebraically
  // largest are wanted. After a PSD shift the two semantics coincide
  // (this is exactly how spectral initialization uses the operator).
  SparseTensor x = RandomBinaryTensor(25, 20, 8, 300, 7);
  ModeGramOperator op(x, 0, /*zero_diagonal=*/true);
  double sigma = 0.0;
  for (double d : op.Diagonal()) sigma = std::max(sigma, d);
  ShiftedOperator shifted(&op, sigma);
  auto full = JacobiEigen(Materialize(shifted));
  auto subspace = SubspaceEigen(shifted, 5);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(subspace.ok());
  for (size_t t = 0; t < 5; ++t) {
    EXPECT_NEAR(full.value().values[t], subspace.value().values[t],
                1e-5 * std::max(1.0, std::fabs(subspace.value().values[0])));
  }
}

TEST(GramEigenTest, SubspaceIterationResolvesGapsTheShiftDwarfs) {
  // The shape of a POI-mode Gram on a catalogue: 160 users in 20 cities,
  // each checking in at its own city's 12 POIs with weight 1/(rank + 1).
  // The shift (the busiest POI's diagonal, 86) is ~23x the gap between
  // the 10th and 11th eigenvalues and over 4000x the smallest gap among
  // the top 11, and the 15th eigenvalue is 0.96 of the 10th. Power steps
  // on this operator stop at their cap about 1e-5 away from the
  // subspace.
  const size_t users = 160, cities = 20, per_city = 12, months = 12;
  SparseTensor x(users, cities * per_city, months);
  std::vector<double> cdf(per_city);
  double total = 0.0;
  for (size_t j = 0; j < per_city; ++j) {
    total += 1.0 / (static_cast<double>(j) + 1.0);
    cdf[j] = total;
  }
  Rng rng(5);
  for (int n = 0; n < 10000; ++n) {
    const size_t i = rng.UniformInt(users);
    const double u = rng.Uniform() * total;
    const size_t j = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ASSERT_TRUE(
        x.Add(i, (i % cities) * per_city + j, rng.UniformInt(months), 1.0)
            .ok());
  }
  ASSERT_TRUE(x.Finalize(true).ok());
  ModeGramOperator op(x, 1, /*zero_diagonal=*/true);
  double sigma = 0.0;
  for (double d : op.Diagonal()) sigma = std::max(sigma, d);
  ShiftedOperator shifted(&op, sigma);
  auto full = JacobiEigen(Materialize(shifted));
  ASSERT_TRUE(full.ok());
  const std::vector<double>& lambda = full.value().values;
  ASSERT_GT(sigma, 20.0 * (lambda[9] - lambda[10]));

  const size_t r = 10;
  auto sub = SubspaceEigen(shifted, r);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub.value().converged);
  for (size_t t = 0; t < r; ++t) {
    EXPECT_NEAR(sub.value().values[t], lambda[t], 1e-10 * lambda[t]);
  }
  // The part of the computed subspace outside the top-r eigenvectors.
  const Matrix& v = sub.value().vectors;
  Matrix top(v.rows(), r);
  for (size_t i = 0; i < v.rows(); ++i)
    for (size_t t = 0; t < r; ++t) top(i, t) = full.value().vectors(i, t);
  Matrix outside = v;
  outside.Add(MatMul(top, MatTMul(top, v)), -1.0);
  EXPECT_LT(outside.FrobeniusNorm(), 1e-6);
}

TEST(ShiftedOperatorTest, ShiftsSpectrumNotVectors) {
  Rng rng(21);
  Matrix b = Matrix::GaussianRandom(15, 15, &rng);
  Matrix a = MatMulT(b, b);
  DenseOperator base(&a);
  ShiftedOperator shifted(&base, 3.5);
  auto top_base = JacobiEigen(Materialize(base));
  auto top_shift = JacobiEigen(Materialize(shifted));
  ASSERT_TRUE(top_base.ok());
  ASSERT_TRUE(top_shift.ok());
  for (size_t t = 0; t < 15; ++t) {
    EXPECT_NEAR(top_shift.value().values[t],
                top_base.value().values[t] + 3.5, 1e-6);
  }
}

}  // namespace
}  // namespace tcss
