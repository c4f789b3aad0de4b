#include "linalg/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/kernel_table.h"

namespace tcss {

namespace {

/// Minimum multiply-add count before MatMul/MatTMul go parallel; below it
/// the fork/join overhead dominates. Row-sharded outputs are disjoint and
/// every output element is summed in the same index order as the serial
/// loop, so the parallel path is bit-identical to the serial one and the
/// threshold cannot change results.
constexpr size_t kParallelFlopThreshold = 1u << 15;

/// Row grain: at most 32 shards, pure function of the row count.
size_t RowGrain(size_t rows) { return std::max<size_t>(1, (rows + 31) / 32); }

/// Output-row grain of MatTMul and Gram, whose every shard streams all of
/// a: one shard per thread, so one thread makes one pass over a. Output
/// rows are disjoint and each element's chain is the same under any
/// decomposition, so the grain may follow the thread count (DESIGN.md §6,
/// class 1).
size_t ThreadRowGrain(size_t rows) {
  const size_t threads = static_cast<size_t>(GlobalThreads());
  return std::max<size_t>(1, (rows + threads - 1) / threads);
}

}  // namespace

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) {
    TCSS_CHECK(rows[i].size() == m.cols_) << "ragged row " << i;
    std::copy(rows[i].begin(), rows[i].end(), m.row(i));
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::GaussianRandom(size_t rows, size_t cols, Rng* rng,
                              double stddev) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng->Gaussian(0.0, stddev);
  return m;
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Resize(size_t rows, size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i)
    for (size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

void Matrix::Add(const Matrix& other, double alpha) {
  TCSS_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::Scale(double alpha) {
  for (double& x : data_) x *= alpha;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

std::vector<double> Matrix::Column(size_t j) const {
  std::vector<double> v(rows_);
  for (size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
  return v;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  TCSS_CHECK(a.cols() == b.rows()) << "MatMul shape mismatch";
  Matrix out(a.rows(), b.cols());
  // Dispatched panel loop (kernels_impl.h), a read along its rows: k
  // tiles of 64, with a tile of up to 2 rows x 16 columns in registers.
  // Every out(i,j) accumulates in ascending k regardless of sharding or
  // kernel build, so all paths are bit-identical to the serial reference
  // loop.
  const KernelTable& kern = ActiveKernels();
  if (a.rows() * a.cols() * b.cols() >= kParallelFlopThreshold) {
    ParallelFor(a.rows(), RowGrain(a.rows()),
                [&](size_t begin, size_t end, size_t) {
                  kern.gemm_rows(a.data(), a.cols(), 1, b.data(), out.data(),
                                 begin, end, a.cols(), b.cols());
                });
  } else {
    kern.gemm_rows(a.data(), a.cols(), 1, b.data(), out.data(), 0, a.rows(),
                   a.cols(), b.cols());
  }
  return out;
}

Matrix MatTMul(const Matrix& a, const Matrix& b) {
  TCSS_CHECK(a.rows() == b.rows()) << "MatTMul shape mismatch";
  Matrix out(a.cols(), b.cols());
  // out(i,j) = sum_k a(k,i) b(k,j): MatMul's panel loop with a read down
  // its columns. i indexes output rows, so sharding over i is exact; k
  // runs in ascending order for every element in all kernel builds,
  // matching a k-outer serial loop bit for bit. Shards hold whole pairs of
  // output rows: every shard streams all of a and b, and the kernel's
  // two-row tile reads each b row once for both of its rows.
  const KernelTable& kern = ActiveKernels();
  if (a.rows() * a.cols() * b.cols() >= kParallelFlopThreshold) {
    ParallelFor(a.cols(), (ThreadRowGrain(a.cols()) + 1) / 2 * 2,
                [&](size_t begin, size_t end, size_t) {
                  kern.gemm_rows(a.data(), 1, a.cols(), b.data(), out.data(),
                                 begin, end, a.rows(), b.cols());
                });
  } else {
    kern.gemm_rows(a.data(), 1, a.cols(), b.data(), out.data(), 0, a.cols(),
                   a.rows(), b.cols());
  }
  return out;
}

Matrix MatMulT(const Matrix& a, const Matrix& b) {
  TCSS_CHECK(a.cols() == b.cols()) << "MatMulT shape mismatch";
  Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i);
    double* out_row = out.row(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* b_row = b.row(j);
      double s = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) s += a_row[k] * b_row[k];
      out_row[j] = s;
    }
  }
  return out;
}

Matrix Gram(const Matrix& a) {
  // a^T a is symmetric: compute only the upper triangle and mirror. The
  // (i,j) and (j,i) chains are the same multiplications a(k,i)*a(k,j) in
  // the same ascending-k order, so the mirror is bitwise-faithful to the
  // full-rectangle MatTMul(a, a) it replaces (proptest keeps that gate).
  Matrix out(a.cols(), a.cols());
  const KernelTable& kern = ActiveKernels();
  if (a.rows() * a.cols() * a.cols() >= kParallelFlopThreshold) {
    ParallelFor(a.cols(), ThreadRowGrain(a.cols()),
                [&](size_t begin, size_t end, size_t) {
                  kern.gram_upper(a.data(), out.data(), begin, end, a.rows(),
                                  a.cols());
                });
  } else {
    kern.gram_upper(a.data(), out.data(), 0, a.cols(), a.rows(), a.cols());
  }
  for (size_t i = 0; i < a.cols(); ++i)
    for (size_t j = i + 1; j < a.cols(); ++j) out(j, i) = out(i, j);
  return out;
}

std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x) {
  TCSS_CHECK(x.size() == a.cols());
  std::vector<double> y(a.rows(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i);
    double s = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

std::vector<double> MatTVec(const Matrix& a, const std::vector<double>& x) {
  TCSS_CHECK(x.size() == a.rows());
  std::vector<double> y(a.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i);
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t j = 0; j < a.cols(); ++j) y[j] += xi * row[j];
  }
  return y;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  TCSS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j) out(i, j) = a(i, j) * b(i, j);
  return out;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  TCSS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::fabs(a(i, j) - b(i, j)));
  return m;
}

}  // namespace tcss
