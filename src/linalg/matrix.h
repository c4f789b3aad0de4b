#ifndef TCSS_LINALG_MATRIX_H_
#define TCSS_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace tcss {

/// Dense row-major matrix of doubles. Owning, copyable and movable.
/// This is the workhorse value type for factor matrices (I x r etc.) and
/// the small dense problems (Gram matrices, Jacobi eigen, Cholesky).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer-style data (row major).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  /// Matrix with i.i.d. N(0, stddev^2) entries.
  static Matrix GaussianRandom(size_t rows, size_t cols, Rng* rng,
                               double stddev = 1.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t i, size_t j) { return data_[i * cols_ + j]; }
  double operator()(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(size_t i) { return data_.data() + i * cols_; }
  const double* row(size_t i) const { return data_.data() + i * cols_; }

  void Fill(double value);
  void Resize(size_t rows, size_t cols, double fill = 0.0);

  Matrix Transposed() const;

  /// this += alpha * other. Shapes must match.
  void Add(const Matrix& other, double alpha = 1.0);

  /// this *= alpha.
  void Scale(double alpha);

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Max absolute entry.
  double MaxAbs() const;

  /// Extracts column j as a vector.
  std::vector<double> Column(size_t j) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n).
Matrix MatTMul(const Matrix& a, const Matrix& b);

/// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n).
Matrix MatMulT(const Matrix& a, const Matrix& b);

/// Symmetric rank-k product a^T a (Gram matrix of the columns of a).
Matrix Gram(const Matrix& a);

/// y = A x (dense gemv). x.size() == A.cols().
std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x);

/// y = A^T x. x.size() == A.rows().
std::vector<double> MatTVec(const Matrix& a, const std::vector<double>& x);

/// Elementwise (Hadamard) product; shapes must match.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// Max |a - b| over entries; shapes must match.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace tcss

#endif  // TCSS_LINALG_MATRIX_H_
