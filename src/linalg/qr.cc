#include "linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/strings.h"

namespace tcss {
namespace {

// Dot product and axpy of contiguous columns (rows of a transposed copy).
double Dot(const double* x, const double* y, size_t m) {
  double s = 0.0;
  for (size_t i = 0; i < m; ++i) s += x[i] * y[i];
  return s;
}

void Axpy(double* y, const double* x, double alpha, size_t m) {
  for (size_t i = 0; i < m; ++i) y[i] += alpha * x[i];
}

// Axpy(y, x, alpha) unless alpha is zero, then Dot(z, y): one pass, each
// y[i] updated before the dot reads it. z may be y.
double AxpyDot(double* y, const double* x, double alpha, const double* z,
               size_t m) {
  if (alpha == 0.0) return Dot(z, y, m);
  double s = 0.0;
  for (size_t i = 0; i < m; ++i) {
    y[i] += alpha * x[i];
    s += z[i] * y[i];
  }
  return s;
}

// Pass 0 of the (at most four) columns l.. of the transposed copy t once
// column j is final. Each column first takes its pending update against
// column j - 1, c += -proj * c_{j-1} (skipped when proj is zero, as the
// left-looking loop skips a zero projection); then proj = Dot(c_j, c),
// its projection on column j, replaces proj. The four dot chains run
// side by side so their add latencies overlap; when all four updates are
// live they are fused into the same loop, each element updated just
// before the dots read it.
void SweepColumns(Matrix* t, size_t j, size_t l, double* proj) {
  const size_t m = t->cols();
  const size_t w = std::min<size_t>(4, t->rows() - l);
  const double* cj = t->row(j);
  const double* prev = j > 0 ? t->row(j - 1) : nullptr;
  double* c[4];
  double beta[4];
  bool fuse = w == 4 && prev != nullptr;
  for (size_t k = 0; k < 4; ++k) {
    c[k] = t->row(k < w ? l + k : l);  // past the end: repeat, drop sums
    beta[k] = k < w ? -proj[k] : 0.0;
    fuse = fuse && beta[k] != 0.0;
  }
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  if (fuse) {
    for (size_t i = 0; i < m; ++i) {
      const double p = prev[i];
      const double a = cj[i];
      const double y0 = c[0][i] + beta[0] * p;
      const double y1 = c[1][i] + beta[1] * p;
      const double y2 = c[2][i] + beta[2] * p;
      const double y3 = c[3][i] + beta[3] * p;
      c[0][i] = y0;
      c[1][i] = y1;
      c[2][i] = y2;
      c[3][i] = y3;
      s0 += a * y0;
      s1 += a * y1;
      s2 += a * y2;
      s3 += a * y3;
    }
  } else {
    for (size_t k = 0; k < w; ++k) {
      if (beta[k] != 0.0) Axpy(c[k], prev, beta[k], m);
    }
    for (size_t i = 0; i < m; ++i) {
      const double a = cj[i];
      s0 += a * c[0][i];
      s1 += a * c[1][i];
      s2 += a * c[2][i];
      s3 += a * c[3][i];
    }
  }
  const double sums[4] = {s0, s1, s2, s3};
  for (size_t k = 0; k < w; ++k) proj[k] = sums[k];
}

}  // namespace

Status Orthonormalize(Matrix* a, Rng* rng) {
  const size_t m = a->rows();
  const size_t n = a->cols();
  if (m < n) {
    return Status::InvalidArgument(
        StrFormat("Orthonormalize: need rows >= cols, got %zux%zu", m, n));
  }
  constexpr double kRankTol = 1e-12;
  // Modified Gram-Schmidt with two projection passes per column ("twice
  // is enough" - Kahan/Parlett): column j is projected off columns
  // 0..j-1 in ascending order, then off them again, and normalized. It
  // runs on a transposed copy, where each column is contiguous instead
  // of one double per b-double row.
  //
  // The first pass runs right-looking: once column j is final, the later
  // columns' dot products with it run side by side in one sweep, and each
  // of their updates rides along with the next pass over that column.
  // Each column still takes its pass-0 projections in ascending order,
  // each after the column it projects off is final, and each update
  // lands before the next dot product reads the column. So every dot
  // product and update is the left-looking loop's, bit for bit; so are
  // the retry's rng draws, which happen in column order.
  Matrix t = a->Transposed();
  // A column is dead when projection leaves it zero or shorter than
  // kRankTol * min(1, its norm before projection): absolute for columns
  // of norm >= 1, relative below, so a small operator's block (norms
  // near 1e-13) is not mistaken for a null space.
  std::vector<double> tol(n);
  for (size_t j = 0; j < n; ++j) {
    tol[j] = kRankTol * std::min(1.0, std::sqrt(Dot(t.row(j), t.row(j), m)));
  }
  // proj[l]: dot of column l with the last finished column (pass 0).
  std::vector<double> proj(n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double* cj = t.row(j);
    // Column j's last pass-0 update, then pass 1, then its norm; each
    // update is fused with the dot product that follows it.
    const double* src = j > 0 ? t.row(j - 1) : cj;
    double alpha = -proj[j];
    for (size_t p = 0; p < j; ++p) {
      const double pr = AxpyDot(cj, src, alpha, t.row(p), m);
      src = t.row(p);
      alpha = -pr;
    }
    double norm = std::sqrt(AxpyDot(cj, src, alpha, cj, m));
    int retries = 0;
    while (norm < tol[j] || norm == 0.0) {
      if (rng == nullptr || ++retries > 8) {
        return Status::FailedPrecondition(
            StrFormat("Orthonormalize: column %zu is rank deficient", j));
      }
      // Replace a dead column with a random direction, re-project.
      for (size_t i = 0; i < m; ++i) cj[i] = rng->Gaussian();
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t p = 0; p < j; ++p) {
          const double pr = Dot(t.row(p), cj, m);
          if (pr != 0.0) Axpy(cj, t.row(p), -pr, m);
        }
      }
      norm = std::sqrt(Dot(cj, cj, m));
    }
    const double inv = 1.0 / norm;
    for (size_t i = 0; i < m; ++i) cj[i] *= inv;

    // Pass 0 of columns j+1..n-1 against the now final column j.
    for (size_t l = j + 1; l < n; l += 4) SweepColumns(&t, j, l, &proj[l]);
  }
  for (size_t i = 0; i < m; ++i)
    for (size_t j = 0; j < n; ++j) (*a)(i, j) = t(j, i);
  return Status::OK();
}

}  // namespace tcss
