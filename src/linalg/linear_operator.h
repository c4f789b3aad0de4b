#ifndef TCSS_LINALG_LINEAR_OPERATOR_H_
#define TCSS_LINALG_LINEAR_OPERATOR_H_

#include <cstddef>

#include "linalg/matrix.h"

namespace tcss {

/// Abstract symmetric linear operator Y = A X on R^n, applied to a block
/// of vectors at once. Lets iterative eigensolvers work on implicitly-
/// represented matrices (e.g. Gram matrices of sparse tensor unfoldings)
/// without ever materializing them. A single vector is an n x 1 block.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// Dimension n of the (square, symmetric) operator.
  virtual size_t Dim() const = 0;

  /// Computes Y = A X for an n x b row-major block X. `y` is pre-sized to
  /// n x b and must be overwritten. Column c of Y is bitwise what the
  /// operator gives for column c of X alone: implementations share the
  /// pass over their data between columns, never the arithmetic.
  virtual void Apply(const Matrix& x, Matrix* y) const = 0;
};

/// Y = (A + sigma I) X. Shifting an indefinite symmetric operator by
/// sigma >= -lambda_min makes it PSD, as SubspaceEigen requires, so the
/// top eigenpairs it returns are the *algebraically* largest of A;
/// eigenvectors are unchanged and eigenvalues are shifted by sigma.
class ShiftedOperator : public LinearOperator {
 public:
  ShiftedOperator(const LinearOperator* base, double sigma)
      : base_(base), sigma_(sigma) {}

  size_t Dim() const override { return base_->Dim(); }
  void Apply(const Matrix& x, Matrix* y) const override {
    base_->Apply(x, y);
    const double* xd = x.data();
    double* yd = y->data();
    for (size_t i = 0; i < x.size(); ++i) yd[i] += sigma_ * xd[i];
  }
  double sigma() const { return sigma_; }

 private:
  const LinearOperator* base_;
  double sigma_;
};

/// Adapter exposing an explicit dense symmetric matrix as a LinearOperator.
class DenseOperator : public LinearOperator {
 public:
  /// Keeps a pointer to `a`; the matrix must outlive the operator.
  explicit DenseOperator(const Matrix* a) : a_(a) {}

  size_t Dim() const override { return a_->rows(); }
  /// Y = MatMul(A, X): each element a plain ascending-j dot product.
  void Apply(const Matrix& x, Matrix* y) const override {
    *y = MatMul(*a_, x);
  }

 private:
  const Matrix* a_;
};

}  // namespace tcss

#endif  // TCSS_LINALG_LINEAR_OPERATOR_H_
