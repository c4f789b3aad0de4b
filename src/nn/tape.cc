#include "nn/tape.h"

#include <cmath>

#include "common/logging.h"

namespace tcss::nn {

Var Tape::NewNode(Matrix value) {
  Node n;
  n.grad = Matrix(value.rows(), value.cols());
  n.value = std::move(value);
  nodes_.push_back(std::move(n));
  return Var{static_cast<int>(nodes_.size()) - 1};
}

Var Tape::Input(Matrix value) { return NewNode(std::move(value)); }

Var Tape::Leaf(Parameter* p) {
  Var v = NewNode(p->value);
  node(v).param = p;
  // Gradient transfer into the parameter happens in Backward()'s final
  // pass, so no closure is needed here.
  return v;
}

Var Tape::Rows(Parameter* table, const std::vector<uint32_t>& row_ids) {
  const size_t cols = table->value.cols();
  Matrix out(row_ids.size(), cols);
  for (size_t r = 0; r < row_ids.size(); ++r) {
    TCSS_CHECK(row_ids[r] < table->value.rows());
    const double* src = table->value.row(row_ids[r]);
    double* dst = out.row(r);
    for (size_t c = 0; c < cols; ++c) dst[c] = src[c];
  }
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  std::vector<uint32_t> ids = row_ids;
  n->backward = [n, table, ids]() {
    const size_t cols = table->value.cols();
    for (size_t r = 0; r < ids.size(); ++r) {
      double* dst = table->grad.row(ids[r]);
      const double* src = n->grad.row(r);
      for (size_t c = 0; c < cols; ++c) dst[c] += src[c];
    }
  };
  return v;
}

Var Tape::MatMul(Var a, Var b) {
  Var v = NewNode(::tcss::MatMul(value(a), value(b)));
  Node* n = &node(v);
  Node* na = &node(a);
  Node* nb = &node(b);
  n->backward = [n, na, nb]() {
    // dA += dOut * B^T ; dB += A^T * dOut
    na->grad.Add(::tcss::MatMulT(n->grad, nb->value));
    nb->grad.Add(::tcss::MatTMul(na->value, n->grad));
  };
  return v;
}

Var Tape::MatMulT(Var a, Var b) {
  Var v = NewNode(::tcss::MatMulT(value(a), value(b)));
  Node* n = &node(v);
  Node* na = &node(a);
  Node* nb = &node(b);
  n->backward = [n, na, nb]() {
    // out = A B^T: dA += dOut * B ; dB += dOut^T * A
    na->grad.Add(::tcss::MatMul(n->grad, nb->value));
    nb->grad.Add(::tcss::MatTMul(n->grad, na->value));
  };
  return v;
}

Var Tape::Add(Var a, Var b) {
  Matrix out = value(a);
  out.Add(value(b));
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  Node* nb = &node(b);
  n->backward = [n, na, nb]() {
    na->grad.Add(n->grad);
    nb->grad.Add(n->grad);
  };
  return v;
}

Var Tape::Sub(Var a, Var b) {
  Matrix out = value(a);
  out.Add(value(b), -1.0);
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  Node* nb = &node(b);
  n->backward = [n, na, nb]() {
    na->grad.Add(n->grad);
    nb->grad.Add(n->grad, -1.0);
  };
  return v;
}

Var Tape::Mul(Var a, Var b) {
  Var v = NewNode(Hadamard(value(a), value(b)));
  Node* n = &node(v);
  Node* na = &node(a);
  Node* nb = &node(b);
  n->backward = [n, na, nb]() {
    na->grad.Add(Hadamard(n->grad, nb->value));
    nb->grad.Add(Hadamard(n->grad, na->value));
  };
  return v;
}

Var Tape::AddRowBroadcast(Var a, Var bias) {
  TCSS_CHECK(value(bias).rows() == 1);
  TCSS_CHECK(value(bias).cols() == value(a).cols());
  Matrix out = value(a);
  const Matrix& b = value(bias);
  for (size_t i = 0; i < out.rows(); ++i) {
    double* row = out.row(i);
    for (size_t j = 0; j < out.cols(); ++j) row[j] += b(0, j);
  }
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  Node* nb = &node(bias);
  n->backward = [n, na, nb]() {
    na->grad.Add(n->grad);
    for (size_t i = 0; i < n->grad.rows(); ++i) {
      const double* row = n->grad.row(i);
      for (size_t j = 0; j < n->grad.cols(); ++j) nb->grad(0, j) += row[j];
    }
  };
  return v;
}

Var Tape::Scale(Var a, double alpha) {
  Matrix out = value(a);
  out.Scale(alpha);
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  n->backward = [n, na, alpha]() { na->grad.Add(n->grad, alpha); };
  return v;
}

Var Tape::Sigmoid(Var a) {
  Matrix out = value(a);
  for (size_t i = 0; i < out.rows(); ++i)
    for (size_t j = 0; j < out.cols(); ++j)
      out(i, j) = 1.0 / (1.0 + std::exp(-out(i, j)));
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  n->backward = [n, na]() {
    for (size_t i = 0; i < n->grad.rows(); ++i)
      for (size_t j = 0; j < n->grad.cols(); ++j) {
        const double s = n->value(i, j);
        na->grad(i, j) += n->grad(i, j) * s * (1.0 - s);
      }
  };
  return v;
}

Var Tape::Tanh(Var a) {
  Matrix out = value(a);
  for (size_t i = 0; i < out.rows(); ++i)
    for (size_t j = 0; j < out.cols(); ++j) out(i, j) = std::tanh(out(i, j));
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  n->backward = [n, na]() {
    for (size_t i = 0; i < n->grad.rows(); ++i)
      for (size_t j = 0; j < n->grad.cols(); ++j) {
        const double t = n->value(i, j);
        na->grad(i, j) += n->grad(i, j) * (1.0 - t * t);
      }
  };
  return v;
}

Var Tape::Relu(Var a) {
  Matrix out = value(a);
  for (size_t i = 0; i < out.rows(); ++i)
    for (size_t j = 0; j < out.cols(); ++j)
      if (out(i, j) < 0.0) out(i, j) = 0.0;
  Var v = NewNode(std::move(out));
  Node* n = &node(v);
  Node* na = &node(a);
  n->backward = [n, na]() {
    for (size_t i = 0; i < n->grad.rows(); ++i)
      for (size_t j = 0; j < n->grad.cols(); ++j)
        if (n->value(i, j) > 0.0) na->grad(i, j) += n->grad(i, j);
  };
  return v;
}

void Tape::Backward(Var loss) {
  TCSS_CHECK(value(loss).rows() == 1 && value(loss).cols() == 1)
      << "Backward expects a scalar loss";
  for (auto& n : nodes_) n.grad.Fill(0.0);
  nodes_[loss.id].grad(0, 0) = 1.0;
  for (size_t idx = nodes_.size(); idx-- > 0;) {
    if (nodes_[idx].backward) nodes_[idx].backward();
  }
  // Flush leaf node grads into their parameters.
  for (auto& n : nodes_) {
    if (n.param != nullptr && !n.backward) {
      n.param->grad.Add(n.grad);
    }
  }
}

}  // namespace tcss::nn
