// Composite and loss ops of the autodiff Tape (kept in a separate TU from
// the structural ops in tape.cc for readability).
#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/tape.h"

namespace tcss::nn {
namespace {
constexpr double kEps = 1e-9;
}  // namespace

Var Tape::ConcatCols(Var a, Var b) {
  const Matrix& va = value(a);
  const Matrix& vb = value(b);
  TCSS_CHECK(va.rows() == vb.rows());
  Matrix out(va.rows(), va.cols() + vb.cols());
  for (size_t i = 0; i < va.rows(); ++i) {
    double* dst = out.row(i);
    const double* sa = va.row(i);
    const double* sb = vb.row(i);
    for (size_t j = 0; j < va.cols(); ++j) dst[j] = sa[j];
    for (size_t j = 0; j < vb.cols(); ++j) dst[va.cols() + j] = sb[j];
  }
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  Node* nb = &node(b);
  n->backward = [n, na, nb]() {
    const size_t ca = na->grad.cols();
    const size_t cb = nb->grad.cols();
    for (size_t i = 0; i < n->grad.rows(); ++i) {
      const double* src = n->grad.row(i);
      double* da = na->grad.row(i);
      double* db = nb->grad.row(i);
      for (size_t j = 0; j < ca; ++j) da[j] += src[j];
      for (size_t j = 0; j < cb; ++j) db[j] += src[ca + j];
    }
  };
  return v;
}

Var Tape::Slice(Var a, size_t r0, size_t c0, size_t rows, size_t cols) {
  const Matrix& va = value(a);
  TCSS_CHECK(r0 + rows <= va.rows() && c0 + cols <= va.cols());
  Matrix out(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) out(i, j) = va(r0 + i, c0 + j);
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  n->backward = [n, na, r0, c0, rows, cols]() {
    for (size_t i = 0; i < rows; ++i)
      for (size_t j = 0; j < cols; ++j)
        na->grad(r0 + i, c0 + j) += n->grad(i, j);
  };
  return v;
}

Var Tape::MulScalarVar(Var a, Var scalar) {
  const Matrix& vs = value(scalar);
  TCSS_CHECK(vs.rows() == 1 && vs.cols() == 1);
  Matrix out = value(a);
  out.Scale(vs(0, 0));
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  Node* ns = &node(scalar);
  n->backward = [n, na, ns]() {
    const double s = ns->value(0, 0);
    na->grad.Add(n->grad, s);
    double acc = 0.0;
    for (size_t i = 0; i < n->grad.rows(); ++i)
      for (size_t j = 0; j < n->grad.cols(); ++j)
        acc += n->grad(i, j) * na->value(i, j);
    ns->grad(0, 0) += acc;
  };
  return v;
}

Var Tape::SoftmaxRows(Var a) {
  Matrix out = value(a);
  for (size_t i = 0; i < out.rows(); ++i) {
    double* row = out.row(i);
    double mx = row[0];
    for (size_t j = 1; j < out.cols(); ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (size_t j = 0; j < out.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    for (size_t j = 0; j < out.cols(); ++j) row[j] /= sum;
  }
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  n->backward = [n, na]() {
    // dX_j = s_j * (dY_j - sum_k dY_k s_k), per row.
    for (size_t i = 0; i < n->grad.rows(); ++i) {
      const double* s = n->value.row(i);
      const double* dy = n->grad.row(i);
      double dot = 0.0;
      for (size_t j = 0; j < n->grad.cols(); ++j) dot += dy[j] * s[j];
      double* dx = na->grad.row(i);
      for (size_t j = 0; j < n->grad.cols(); ++j)
        dx[j] += s[j] * (dy[j] - dot);
    }
  };
  return v;
}

Var Tape::MseLoss(Var pred, const Matrix& target) {
  const Matrix& p = value(pred);
  TCSS_CHECK(p.rows() == target.rows() && p.cols() == target.cols());
  double s = 0.0;
  for (size_t i = 0; i < p.rows(); ++i)
    for (size_t j = 0; j < p.cols(); ++j) {
      const double d = p(i, j) - target(i, j);
      s += d * d;
    }
  const double inv = 1.0 / static_cast<double>(std::max<size_t>(1, p.size()));
  Matrix out(1, 1);
  out(0, 0) = s * inv;
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* np = &node(pred);
  Matrix tgt = target;
  n->backward = [n, np, tgt = std::move(tgt), inv]() {
    const double g = n->grad(0, 0) * 2.0 * inv;
    for (size_t i = 0; i < np->grad.rows(); ++i)
      for (size_t j = 0; j < np->grad.cols(); ++j)
        np->grad(i, j) += g * (np->value(i, j) - tgt(i, j));
  };
  return v;
}

Var Tape::BceLoss(Var probs, const Matrix& target) {
  const Matrix& p = value(probs);
  TCSS_CHECK(p.rows() == target.rows() && p.cols() == target.cols());
  double s = 0.0;
  for (size_t i = 0; i < p.rows(); ++i)
    for (size_t j = 0; j < p.cols(); ++j) {
      const double q = std::clamp(p(i, j), kEps, 1.0 - kEps);
      const double t = target(i, j);
      s -= t * std::log(q) + (1.0 - t) * std::log(1.0 - q);
    }
  const double inv = 1.0 / static_cast<double>(std::max<size_t>(1, p.size()));
  Matrix out(1, 1);
  out(0, 0) = s * inv;
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* np = &node(probs);
  Matrix tgt = target;
  n->backward = [n, np, tgt = std::move(tgt), inv]() {
    const double g = n->grad(0, 0) * inv;
    for (size_t i = 0; i < np->grad.rows(); ++i)
      for (size_t j = 0; j < np->grad.cols(); ++j) {
        const double q = std::clamp(np->value(i, j), kEps, 1.0 - kEps);
        const double t = tgt(i, j);
        np->grad(i, j) += g * (q - t) / (q * (1.0 - q));
      }
  };
  return v;
}

}  // namespace tcss::nn
