#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/subspace_iteration.h"

namespace tcss {
namespace {

// Gram operator (A^T A or A A^T, whichever is smaller) of an implicit
// matrix, applied one block column at a time through the vector products.
class ImplicitGram : public LinearOperator {
 public:
  ImplicitGram(const MatVecOperator* op, bool use_cols)
      : op_(op), use_cols_(use_cols) {}

  size_t Dim() const override {
    return use_cols_ ? op_->Cols() : op_->Rows();
  }

  void Apply(const Matrix& x, Matrix* y) const override {
    const size_t n = Dim();
    y->Resize(n, x.cols());
    std::vector<double> in(n), tmp(use_cols_ ? op_->Rows() : op_->Cols()),
        out(n);
    for (size_t c = 0; c < x.cols(); ++c) {
      for (size_t i = 0; i < n; ++i) in[i] = x(i, c);
      if (use_cols_) {
        // y = A^T (A x)
        op_->Apply(in, &tmp);
        op_->ApplyTranspose(tmp, &out);
      } else {
        // y = A (A^T x)
        op_->ApplyTranspose(in, &tmp);
        op_->Apply(tmp, &out);
      }
      for (size_t i = 0; i < n; ++i) (*y)(i, c) = out[i];
    }
  }

 private:
  const MatVecOperator* op_;
  bool use_cols_;
};

// Wraps a dense matrix in the MatVecOperator interface.
class DenseMatVec : public MatVecOperator {
 public:
  explicit DenseMatVec(const Matrix* a) : a_(a) {}
  size_t Rows() const override { return a_->rows(); }
  size_t Cols() const override { return a_->cols(); }
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override {
    *y = MatVec(*a_, x);
  }
  void ApplyTranspose(const std::vector<double>& x,
                      std::vector<double>* y) const override {
    *y = MatTVec(*a_, x);
  }

 private:
  const Matrix* a_;
};

}  // namespace

Result<TruncatedSvd> ComputeTruncatedSvd(const MatVecOperator& op, size_t r,
                                         uint64_t seed) {
  const size_t m = op.Rows();
  const size_t n = op.Cols();
  if (r == 0 || r > std::min(m, n)) {
    return Status::InvalidArgument(
        StrFormat("TruncatedSvd: r=%zu out of range for %zux%zu", r, m, n));
  }
  const bool use_cols = n <= m;  // eigensolve on the smaller Gram side
  ImplicitGram gram(&op, use_cols);
  SubspaceIterationOptions sub_opts;
  sub_opts.seed = seed;
  auto eig = SubspaceEigen(gram, r, sub_opts);
  if (!eig.ok()) return eig.status();
  EigenPairs pairs = eig.MoveValue();

  TruncatedSvd out;
  out.s.resize(r);
  for (size_t j = 0; j < r; ++j) {
    out.s[j] = std::sqrt(std::max(pairs.values[j], 0.0));
  }

  if (use_cols) {
    out.v = std::move(pairs.vectors);  // n x r, right singular vectors
    out.u.Resize(m, r);
    std::vector<double> x(n), y(m);
    for (size_t j = 0; j < r; ++j) {
      for (size_t i = 0; i < n; ++i) x[i] = out.v(i, j);
      op.Apply(x, &y);
      const double inv = out.s[j] > 1e-14 ? 1.0 / out.s[j] : 0.0;
      for (size_t i = 0; i < m; ++i) out.u(i, j) = y[i] * inv;
    }
  } else {
    out.u = std::move(pairs.vectors);  // m x r, left singular vectors
    out.v.Resize(n, r);
    std::vector<double> x(m), y(n);
    for (size_t j = 0; j < r; ++j) {
      for (size_t i = 0; i < m; ++i) x[i] = out.u(i, j);
      op.ApplyTranspose(x, &y);
      const double inv = out.s[j] > 1e-14 ? 1.0 / out.s[j] : 0.0;
      for (size_t i = 0; i < n; ++i) out.v(i, j) = y[i] * inv;
    }
  }
  return out;
}

Result<TruncatedSvd> ComputeTruncatedSvd(const Matrix& a, size_t r) {
  DenseMatVec op(&a);
  return ComputeTruncatedSvd(op, r);
}

}  // namespace tcss
