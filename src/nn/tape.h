#ifndef TCSS_NN_TAPE_H_
#define TCSS_NN_TAPE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "linalg/matrix.h"
#include "nn/parameter.h"

namespace tcss::nn {

/// Handle to a node on the tape (index into Tape::nodes_).
struct Var {
  int id = -1;
  bool valid() const { return id >= 0; }
};

/// Eager, tape-based reverse-mode autodiff over dense matrices. Each op
/// computes its value immediately and records a backward closure; calling
/// Backward(loss) runs the closures in reverse order, accumulating
/// gradients into node grads and, for Leaf nodes, into Parameter::grad.
///
/// A Tape represents one forward pass; construct a fresh Tape per training
/// step (cheap: vectors of small matrices) and reuse the ParameterStore.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // --- Graph construction -------------------------------------------------

  /// Constant input; no gradient is tracked through it.
  Var Input(Matrix value);

  /// Leaf bound to a trainable parameter; backward adds to p->grad.
  Var Leaf(Parameter* p);

  /// Selected rows of an embedding table parameter; backward scatters.
  Var Rows(Parameter* table, const std::vector<uint32_t>& row_ids);

  // --- Ops (shapes follow the dense Matrix conventions) -------------------

  Var MatMul(Var a, Var b);
  Var MatMulT(Var a, Var b);            ///< a * b^T
  Var Add(Var a, Var b);                ///< elementwise, equal shapes
  Var Sub(Var a, Var b);
  Var Mul(Var a, Var b);                ///< Hadamard
  Var AddRowBroadcast(Var a, Var bias); ///< bias is 1 x n, added to each row
  Var Scale(Var a, double alpha);

  Var Sigmoid(Var a);
  Var Tanh(Var a);
  Var Relu(Var a);

  /// Column-wise concatenation [a | b]; equal row counts.
  Var ConcatCols(Var a, Var b);

  /// Contiguous submatrix a[r0:r0+rows, c0:c0+cols].
  Var Slice(Var a, size_t r0, size_t c0, size_t rows, size_t cols);

  /// Elementwise multiply by a 1x1 node (gradient flows into both).
  Var MulScalarVar(Var a, Var scalar);

  /// Row-wise softmax.
  Var SoftmaxRows(Var a);

  /// Mean squared error against a fixed target (same shape) -> 1x1.
  Var MseLoss(Var pred, const Matrix& target);

  /// Binary cross-entropy of probabilities in (0,1) against 0/1 targets,
  /// with clamping for numerical safety -> 1x1.
  Var BceLoss(Var probs, const Matrix& target);

  // --- Execution -----------------------------------------------------------

  const Matrix& value(Var v) const { return nodes_[v.id].value; }
  const Matrix& grad(Var v) const { return nodes_[v.id].grad; }

  /// Runs reverse-mode accumulation seeded with d(loss)/d(loss) = 1.
  /// `loss` must be 1x1. Parameter grads are *accumulated* (call
  /// ParameterStore::ZeroGrads() between steps).
  void Backward(Var loss);

  size_t NumNodes() const { return nodes_.size(); }

 private:
  struct Node {
    Matrix value;
    Matrix grad;
    Parameter* param = nullptr;  // set for Leaf/Rows nodes
    std::function<void()> backward;
  };

  Var NewNode(Matrix value);
  Node& node(Var v) { return nodes_[v.id]; }

  // deque: backward closures capture Node pointers, so addresses must be
  // stable under push_back.
  std::deque<Node> nodes_;
};

}  // namespace tcss::nn

#endif  // TCSS_NN_TAPE_H_
