#ifndef TCSS_NN_LAYERS_H_
#define TCSS_NN_LAYERS_H_

#include <string>

#include "nn/tape.h"

namespace tcss::nn {

enum class Activation { kNone, kRelu, kSigmoid, kTanh };

/// Fully connected layer y = act(x W + b). W is (in x out), b is (1 x out).
class Dense {
 public:
  Dense() = default;
  Dense(ParameterStore* store, const std::string& name, size_t in, size_t out,
        Activation act, Rng* rng);

  Var Apply(Tape* tape, Var x) const;

  size_t in_dim() const { return in_; }
  size_t out_dim() const { return out_; }
  const Parameter* weights() const { return w_; }
  const Parameter* bias() const { return b_; }

 private:
  size_t in_ = 0, out_ = 0;
  Activation act_ = Activation::kNone;
  Parameter* w_ = nullptr;
  Parameter* b_ = nullptr;
};

/// LSTM cell with optional extra spatiotemporal gates (used by the STGN
/// baseline). Step() consumes one timestep for a batch of sequences.
class LstmCell {
 public:
  LstmCell() = default;
  /// If `spatiotemporal`, two extra gates modulated by scalar time/distance
  /// intervals are added (STGN-style).
  LstmCell(ParameterStore* store, const std::string& name, size_t in,
           size_t hidden, bool spatiotemporal, Rng* rng);

  struct State {
    Var h;  ///< batch x hidden
    Var c;  ///< batch x hidden
  };

  /// Zero initial state for a batch.
  State InitialState(Tape* tape, size_t batch) const;

  /// One step. `dt` and `dd` are per-row scalar columns (batch x 1) of
  /// time gap and distance gap; ignored unless spatiotemporal.
  State Step(Tape* tape, Var x, const State& prev, Var dt = {},
             Var dd = {}) const;

  size_t hidden() const { return hidden_; }

 private:
  Var Gate(Tape* tape, Var x, Var h, Parameter* wx, Parameter* wh,
           Parameter* b) const;

  size_t in_ = 0, hidden_ = 0;
  bool st_ = false;
  // input, forget, output, candidate
  Parameter *wxi_ = nullptr, *whi_ = nullptr, *bi_ = nullptr;
  Parameter *wxf_ = nullptr, *whf_ = nullptr, *bf_ = nullptr;
  Parameter *wxo_ = nullptr, *who_ = nullptr, *bo_ = nullptr;
  Parameter *wxc_ = nullptr, *whc_ = nullptr, *bc_ = nullptr;
  // spatiotemporal gates: T gate (time), D gate (distance)
  Parameter *wxt_ = nullptr, *wt_ = nullptr, *bt_ = nullptr;
  Parameter *wxd_ = nullptr, *wd_ = nullptr, *bd_ = nullptr;
};

}  // namespace tcss::nn

#endif  // TCSS_NN_LAYERS_H_
