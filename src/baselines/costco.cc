#include "baselines/costco.h"

#include <cmath>

#include "nn/optimizer.h"
#include "nn/tape.h"

namespace tcss {

Status CoSTCo::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr) {
    return Status::InvalidArgument("CoSTCo: null train tensor");
  }
  const SparseTensor& x = *ctx.train;
  const size_t d = opts_.emb_dim;
  const size_t c = opts_.channels;
  Rng rng(opts_.seed ^ ctx.seed);

  eu_ = store_.Create("emb.user", x.dim_i(), d, &rng, 0.1);
  ep_ = store_.Create("emb.poi", x.dim_j(), d, &rng, 0.1);
  et_ = store_.Create("emb.time", x.dim_k(), d, &rng, 0.1);
  wu_ = store_.Create("conv1.wu", 1, c, &rng, 0.4);
  wv_ = store_.Create("conv1.wv", 1, c, &rng, 0.4);
  ww_ = store_.Create("conv1.ww", 1, c, &rng, 0.4);
  wb_ = store_.Create("conv1.b", Matrix(1, c));
  conv2_ = nn::Dense(&store_, "conv2", d * c, opts_.hidden,
                     nn::Activation::kRelu, &rng);
  out_ = nn::Dense(&store_, "out", opts_.hidden, 1, nn::Activation::kSigmoid,
                   &rng);

  nn::Adam adam(&store_, opts_.lr);
  TripleSampler sampler(x, opts_.seed ^ ctx.seed ^ 0xc057);

  const size_t batches_per_epoch =
      std::max<size_t>(1, x.nnz() / std::max<size_t>(1, opts_.batch_positives));
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    for (size_t bi = 0; bi < batches_per_epoch; ++bi) {
      TripleBatch batch =
          sampler.Next(opts_.batch_positives, opts_.neg_ratio);
      if (batch.users.empty()) continue;
      nn::Tape tape;
      nn::Var u = tape.Rows(eu_, batch.users);   // batch x d
      nn::Var v = tape.Rows(ep_, batch.pois);
      nn::Var w = tape.Rows(et_, batch.times);
      nn::Var wu = tape.Leaf(wu_);
      nn::Var wv = tape.Leaf(wv_);
      nn::Var ww = tape.Leaf(ww_);
      nn::Var wb = tape.Leaf(wb_);
      // conv-1 (1x3 kernels): channel f maps each latent dim t of each
      // sample to relu(wu_f * u_t + wv_f * v_t + ww_f * w_t + b_f);
      // channel maps are concatenated to a batch x (d*c) feature block.
      nn::Var features;
      for (size_t f = 0; f < c; ++f) {
        nn::Var lin = tape.Add(
            tape.Add(tape.MulScalarVar(u, tape.Slice(wu, 0, f, 1, 1)),
                     tape.MulScalarVar(v, tape.Slice(wv, 0, f, 1, 1))),
            tape.MulScalarVar(w, tape.Slice(ww, 0, f, 1, 1)));
        // Bias per channel: add b_f to every element of the channel map.
        nn::Var biased = tape.Relu(
            tape.Add(lin, tape.MulScalarVar(
                              tape.Input(Matrix(tape.value(lin).rows(),
                                                tape.value(lin).cols(), 1.0)),
                              tape.Slice(wb, 0, f, 1, 1))));
        features = (f == 0) ? biased : tape.ConcatCols(features, biased);
      }
      nn::Var h = conv2_.Apply(&tape, features);
      nn::Var prob = out_.Apply(&tape, h);
      nn::Var loss = tape.BceLoss(prob, batch.labels);
      tape.Backward(loss);
      adam.Step();
    }
  }
  return Status::OK();
}

double CoSTCo::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const size_t d = opts_.emb_dim;
  const size_t c = opts_.channels;
  std::vector<double> features(d * c);
  for (size_t f = 0; f < c; ++f) {
    const double a = wu_->value(0, f);
    const double b = wv_->value(0, f);
    const double g = ww_->value(0, f);
    const double bias = wb_->value(0, f);
    for (size_t t = 0; t < d; ++t) {
      const double z = a * eu_->value(i, t) + b * ep_->value(j, t) +
                       g * et_->value(k, t) + bias;
      features[f * d + t] = z > 0.0 ? z : 0.0;
    }
  }
  std::vector<double> h =
      DenseForward(*conv2_.weights(), *conv2_.bias(), features, true);
  const std::vector<double> out =
      DenseForward(*out_.weights(), *out_.bias(), h, false, true);
  return out[0];
}

}  // namespace tcss
