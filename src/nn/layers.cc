#include "nn/layers.h"

#include <cmath>

#include "common/logging.h"

namespace tcss::nn {
namespace {

Var Activate(Tape* tape, Var x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return tape->Relu(x);
    case Activation::kSigmoid:
      return tape->Sigmoid(x);
    case Activation::kTanh:
      return tape->Tanh(x);
  }
  return x;
}

// He/Xavier-style scale.
double InitStddev(size_t in, size_t out) {
  return std::sqrt(2.0 / static_cast<double>(in + out));
}

}  // namespace

Dense::Dense(ParameterStore* store, const std::string& name, size_t in,
             size_t out, Activation act, Rng* rng)
    : in_(in), out_(out), act_(act) {
  w_ = store->Create(name + ".w", in, out, rng, InitStddev(in, out));
  b_ = store->Create(name + ".b", Matrix(1, out));
}

Var Dense::Apply(Tape* tape, Var x) const {
  Var z = tape->MatMul(x, tape->Leaf(w_));
  z = tape->AddRowBroadcast(z, tape->Leaf(b_));
  return Activate(tape, z, act_);
}

LstmCell::LstmCell(ParameterStore* store, const std::string& name, size_t in,
                   size_t hidden, bool spatiotemporal, Rng* rng)
    : in_(in), hidden_(hidden), st_(spatiotemporal) {
  const double sx = InitStddev(in, hidden);
  const double sh = InitStddev(hidden, hidden);
  auto make = [&](const char* g, Parameter** wx, Parameter** wh,
                  Parameter** b) {
    *wx = store->Create(name + ".wx" + g, in, hidden, rng, sx);
    *wh = store->Create(name + ".wh" + g, hidden, hidden, rng, sh);
    *b = store->Create(name + ".b" + g, Matrix(1, hidden));
  };
  make("i", &wxi_, &whi_, &bi_);
  make("f", &wxf_, &whf_, &bf_);
  make("o", &wxo_, &who_, &bo_);
  make("c", &wxc_, &whc_, &bc_);
  if (st_) {
    wxt_ = store->Create(name + ".wxt", in, hidden, rng, sx);
    wt_ = store->Create(name + ".wt", 1, hidden, rng, 0.1);
    bt_ = store->Create(name + ".bt", Matrix(1, hidden));
    wxd_ = store->Create(name + ".wxd", in, hidden, rng, sx);
    wd_ = store->Create(name + ".wd", 1, hidden, rng, 0.1);
    bd_ = store->Create(name + ".bd", Matrix(1, hidden));
  }
}

LstmCell::State LstmCell::InitialState(Tape* tape, size_t batch) const {
  return {tape->Input(Matrix(batch, hidden_)),
          tape->Input(Matrix(batch, hidden_))};
}

Var LstmCell::Gate(Tape* tape, Var x, Var h, Parameter* wx, Parameter* wh,
                   Parameter* b) const {
  Var z = tape->Add(tape->MatMul(x, tape->Leaf(wx)),
                    tape->MatMul(h, tape->Leaf(wh)));
  return tape->AddRowBroadcast(z, tape->Leaf(b));
}

LstmCell::State LstmCell::Step(Tape* tape, Var x, const State& prev, Var dt,
                               Var dd) const {
  Var i = tape->Sigmoid(Gate(tape, x, prev.h, wxi_, whi_, bi_));
  Var f = tape->Sigmoid(Gate(tape, x, prev.h, wxf_, whf_, bf_));
  Var o = tape->Sigmoid(Gate(tape, x, prev.h, wxo_, who_, bo_));
  Var g = tape->Tanh(Gate(tape, x, prev.h, wxc_, whc_, bc_));
  Var update = tape->Mul(i, g);
  if (st_) {
    // STGN-style: the cell update is additionally gated by functions of the
    // time gap dt and distance gap dd (batch x 1, broadcast over hidden by
    // an outer product with learned row vectors).
    TCSS_CHECK(dt.valid() && dd.valid());
    Var t_feat = tape->MatMul(dt, tape->Leaf(wt_));  // batch x hidden
    Var t_gate = tape->Sigmoid(tape->AddRowBroadcast(
        tape->Add(tape->MatMul(x, tape->Leaf(wxt_)), t_feat),
        tape->Leaf(bt_)));
    Var d_feat = tape->MatMul(dd, tape->Leaf(wd_));
    Var d_gate = tape->Sigmoid(tape->AddRowBroadcast(
        tape->Add(tape->MatMul(x, tape->Leaf(wxd_)), d_feat),
        tape->Leaf(bd_)));
    update = tape->Mul(update, tape->Mul(t_gate, d_gate));
  }
  Var c = tape->Add(tape->Mul(f, prev.c), update);
  Var h = tape->Mul(o, tape->Tanh(c));
  return {h, c};
}

}  // namespace tcss::nn
