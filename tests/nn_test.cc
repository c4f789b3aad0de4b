#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/tape.h"

namespace tcss::nn {
namespace {

// Numerically checks d(loss)/d(param) against the tape for every entry of
// every parameter in the store. `build` must construct the full forward
// graph and return the scalar loss Var.
void CheckGradients(ParameterStore* store,
                    const std::function<Var(Tape*)>& build,
                    double tol = 1e-5) {
  Tape tape;
  Var loss = build(&tape);
  store->ZeroGrads();
  tape.Backward(loss);

  const double eps = 1e-6;
  for (size_t p = 0; p < store->size(); ++p) {
    Parameter* param = store->at(p);
    for (size_t idx = 0; idx < param->value.size(); ++idx) {
      const double orig = param->value.data()[idx];
      param->value.data()[idx] = orig + eps;
      Tape tp;
      const double up = tp.value(build(&tp))(0, 0);
      param->value.data()[idx] = orig - eps;
      Tape tm;
      const double down = tm.value(build(&tm))(0, 0);
      param->value.data()[idx] = orig;
      const double numeric = (up - down) / (2 * eps);
      const double analytic = param->grad.data()[idx];
      EXPECT_NEAR(analytic, numeric,
                  tol * std::max(1.0, std::fabs(numeric)))
          << param->name << "[" << idx << "]";
    }
  }
}

TEST(TapeTest, ForwardValuesMatMulAdd) {
  Tape tape;
  Var a = tape.Input(Matrix::FromRows({{1, 2}, {3, 4}}));
  Var b = tape.Input(Matrix::FromRows({{1, 0}, {0, 1}}));
  Var c = tape.MatMul(a, b);
  EXPECT_DOUBLE_EQ(tape.value(c)(1, 0), 3);
  Var d = tape.Add(a, a);
  EXPECT_DOUBLE_EQ(tape.value(d)(0, 1), 4);
}

TEST(TapeTest, ActivationValues) {
  Tape tape;
  Var x = tape.Input(Matrix::FromRows({{0.0, -1.0, 2.0}}));
  EXPECT_DOUBLE_EQ(tape.value(tape.Sigmoid(x))(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(tape.value(tape.Relu(x))(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(tape.value(tape.Relu(x))(0, 2), 2.0);
  EXPECT_NEAR(tape.value(tape.Tanh(x))(0, 2), std::tanh(2.0), 1e-12);
}

TEST(TapeTest, SoftmaxRowsSumToOne) {
  Tape tape;
  Var x = tape.Input(Matrix::FromRows({{1, 2, 3}, {-5, 0, 5}}));
  const Matrix& s = tape.value(tape.SoftmaxRows(x));
  for (size_t i = 0; i < 2; ++i) {
    double sum = 0;
    for (size_t j = 0; j < 3; ++j) sum += s(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_GT(s(0, 2), s(0, 0));
}

TEST(TapeGradTest, MatMulChain) {
  Rng rng(1);
  ParameterStore store;
  Parameter* w1 = store.Create("w1", 3, 4, &rng, 0.5);
  Parameter* w2 = store.Create("w2", 4, 2, &rng, 0.5);
  Matrix x = Matrix::GaussianRandom(5, 3, &rng);
  Matrix target = Matrix::GaussianRandom(5, 2, &rng);
  CheckGradients(&store, [&](Tape* t) {
    Var h = t->MatMul(t->Input(x), t->Leaf(w1));
    Var y = t->MatMul(h, t->Leaf(w2));
    return t->MseLoss(y, target);
  });
}

TEST(TapeGradTest, ElementwiseOpsAndBroadcast) {
  Rng rng(2);
  ParameterStore store;
  Parameter* a = store.Create("a", 3, 3, &rng, 0.7);
  Parameter* b = store.Create("b", 3, 3, &rng, 0.7);
  Parameter* bias = store.Create("bias", 1, 3, &rng, 0.3);
  Matrix target(3, 3, 0.2);
  CheckGradients(&store, [&](Tape* t) {
    Var m = t->Mul(t->Leaf(a), t->Leaf(b));
    Var s = t->Sub(m, t->Scale(t->Leaf(a), 0.3));
    Var z = t->AddRowBroadcast(s, t->Leaf(bias));
    return t->MseLoss(z, target);
  });
}

TEST(TapeGradTest, Activations) {
  Rng rng(3);
  ParameterStore store;
  Parameter* w = store.Create("w", 2, 4, &rng, 0.8);
  Matrix x = Matrix::GaussianRandom(3, 2, &rng);
  Matrix target(3, 4, 0.5);
  for (int which = 0; which < 3; ++which) {
    CheckGradients(&store, [&](Tape* t) {
      Var z = t->MatMul(t->Input(x), t->Leaf(w));
      Var y = which == 0 ? t->Sigmoid(z)
              : which == 1 ? t->Tanh(z)
                           : t->Relu(z);
      return t->MseLoss(y, target);
    });
  }
}

TEST(TapeGradTest, SoftmaxConcat) {
  Rng rng(4);
  ParameterStore store;
  Parameter* a = store.Create("a", 3, 3, &rng, 0.6);
  Parameter* b = store.Create("b", 3, 2, &rng, 0.6);
  Matrix target(3, 5, 0.1);
  CheckGradients(&store, [&](Tape* t) {
    Var sm = t->SoftmaxRows(t->Leaf(a));
    Var cc = t->ConcatCols(sm, t->Leaf(b));
    return t->MseLoss(cc, target);
  });
}

TEST(TapeGradTest, SliceAndMulScalarVar) {
  Rng rng(5);
  ParameterStore store;
  Parameter* a = store.Create("a", 4, 4, &rng, 0.5);
  Parameter* s = store.Create("s", 1, 3, &rng, 0.5);
  Matrix target(2, 2, 0.3);
  CheckGradients(&store, [&](Tape* t) {
    Var block = t->Slice(t->Leaf(a), 1, 1, 2, 2);
    Var scaled = t->MulScalarVar(block, t->Slice(t->Leaf(s), 0, 1, 1, 1));
    return t->MseLoss(scaled, target);
  });
}

TEST(TapeGradTest, RowsLookupScatters) {
  Rng rng(6);
  ParameterStore store;
  Parameter* table = store.Create("emb", 5, 3, &rng, 0.5);
  Matrix target(4, 3, 0.25);
  std::vector<uint32_t> ids = {1, 3, 1, 0};  // repeated row 1
  CheckGradients(&store, [&](Tape* t) {
    return t->MseLoss(t->Rows(table, ids), target);
  });
}

TEST(TapeGradTest, Bce) {
  Rng rng(7);
  ParameterStore store;
  Parameter* w = store.Create("w", 3, 1, &rng, 0.5);
  Matrix x = Matrix::GaussianRandom(6, 3, &rng);
  Matrix target(6, 1);
  for (size_t i = 0; i < 6; ++i) target(i, 0) = i % 2;
  CheckGradients(&store, [&](Tape* t) {
    Var p = t->Sigmoid(t->MatMul(t->Input(x), t->Leaf(w)));
    return t->BceLoss(p, target);
  });
}

TEST(TapeGradTest, MatMulT) {
  Rng rng(14);
  ParameterStore store;
  Parameter* a = store.Create("a", 3, 4, &rng, 0.6);
  Parameter* b = store.Create("b", 5, 4, &rng, 0.6);
  Matrix target(3, 5, 0.2);
  CheckGradients(&store, [&](Tape* t) {
    return t->MseLoss(t->MatMulT(t->Leaf(a), t->Leaf(b)), target);
  });
}

TEST(TapeGradTest, LstmStep) {
  Rng rng(8);
  ParameterStore store;
  LstmCell cell(&store, "lstm", 3, 4, /*spatiotemporal=*/true, &rng);
  Matrix x = Matrix::GaussianRandom(2, 3, &rng);
  Matrix dt(2, 1, 0.5), dd(2, 1, 0.25);
  Matrix target(2, 4, 0.2);
  CheckGradients(
      &store,
      [&](Tape* t) {
        auto st = cell.InitialState(t, 2);
        st = cell.Step(t, t->Input(x), st, t->Input(dt), t->Input(dd));
        auto st2 = cell.Step(t, t->Input(x), st, t->Input(dt), t->Input(dd));
        return t->MseLoss(st2.h, target);
      },
      2e-4);
}

TEST(DenseLayerTest, ShapesAndBiasEffect) {
  Rng rng(9);
  ParameterStore store;
  Dense layer(&store, "d", 3, 2, Activation::kNone, &rng);
  Tape tape;
  Var y = layer.Apply(&tape, tape.Input(Matrix(4, 3, 1.0)));
  EXPECT_EQ(tape.value(y).rows(), 4u);
  EXPECT_EQ(tape.value(y).cols(), 2u);
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  Rng rng(10);
  ParameterStore store;
  Parameter* w = store.Create("w", 1, 5, &rng, 1.0);
  Adam adam(&store, 0.1);
  Matrix target(1, 5, 3.0);
  double first = 0, last = 0;
  for (int step = 0; step < 200; ++step) {
    Tape tape;
    Var loss = tape.MseLoss(tape.Leaf(w), target);
    if (step == 0) first = tape.value(loss)(0, 0);
    last = tape.value(loss)(0, 0);
    tape.Backward(loss);
    adam.Step();
  }
  EXPECT_LT(last, 1e-3 * first);
  for (size_t i = 0; i < 5; ++i) EXPECT_NEAR(w->value(0, i), 3.0, 0.05);
}

TEST(ParameterStoreTest, CountsWeights) {
  Rng rng(13);
  ParameterStore store;
  store.Create("a", 2, 3, &rng, 1.0);
  store.Create("b", Matrix(4, 1));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.NumWeights(), 10u);
}

}  // namespace
}  // namespace tcss::nn
