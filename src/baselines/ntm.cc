#include "baselines/ntm.h"

#include <cmath>

#include "nn/optimizer.h"
#include "nn/tape.h"

namespace tcss {

Status Ntm::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr) {
    return Status::InvalidArgument("Ntm: null train tensor");
  }
  const SparseTensor& x = *ctx.train;
  const size_t d = opts_.emb_dim;
  Rng rng(opts_.seed ^ ctx.seed);

  eu_ = store_.Create("emb.user", x.dim_i(), d, &rng, 0.1);
  ep_ = store_.Create("emb.poi", x.dim_j(), d, &rng, 0.1);
  et_ = store_.Create("emb.time", x.dim_k(), d, &rng, 0.1);
  cp_weights_ = store_.Create("cp.w", Matrix(d, 1, 1.0 / d));

  size_t in = 3 * d;
  for (size_t l = 0; l < opts_.mlp_hidden.size(); ++l) {
    mlp_.emplace_back(&store_, "mlp.l" + std::to_string(l), in,
                      opts_.mlp_hidden[l], nn::Activation::kRelu, &rng);
    in = opts_.mlp_hidden[l];
  }
  mlp_out_ = nn::Dense(&store_, "mlp.out", in, 1, nn::Activation::kNone, &rng);

  nn::Adam adam(&store_, opts_.lr);
  TripleSampler sampler(x, opts_.seed ^ ctx.seed ^ 0xcafe);

  const size_t batches_per_epoch =
      std::max<size_t>(1, x.nnz() / std::max<size_t>(1, opts_.batch_positives));
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    for (size_t bi = 0; bi < batches_per_epoch; ++bi) {
      TripleBatch batch =
          sampler.Next(opts_.batch_positives, opts_.neg_ratio);
      if (batch.users.empty()) continue;
      nn::Tape tape;
      nn::Var u = tape.Rows(eu_, batch.users);
      nn::Var p = tape.Rows(ep_, batch.pois);
      nn::Var t = tape.Rows(et_, batch.times);
      // Generalized-CP head: (u ⊙ p ⊙ t) w  -> batch x 1.
      nn::Var cp = tape.MatMul(tape.Mul(tape.Mul(u, p), t),
                               tape.Leaf(cp_weights_));
      // Tensorized MLP head over the concatenation.
      nn::Var h = tape.ConcatCols(tape.ConcatCols(u, p), t);
      for (const auto& layer : mlp_) h = layer.Apply(&tape, h);
      nn::Var mlp = mlp_out_.Apply(&tape, h);
      nn::Var prob = tape.Sigmoid(tape.Add(cp, mlp));
      nn::Var loss = tape.BceLoss(prob, batch.labels);
      tape.Backward(loss);
      adam.Step();
    }
  }
  return Status::OK();
}

double Ntm::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const size_t d = opts_.emb_dim;
  double cp = 0.0;
  std::vector<double> h;
  h.reserve(3 * d);
  for (size_t t = 0; t < d; ++t) {
    cp += eu_->value(i, t) * ep_->value(j, t) * et_->value(k, t) *
          cp_weights_->value(t, 0);
  }
  for (size_t t = 0; t < d; ++t) h.push_back(eu_->value(i, t));
  for (size_t t = 0; t < d; ++t) h.push_back(ep_->value(j, t));
  for (size_t t = 0; t < d; ++t) h.push_back(et_->value(k, t));
  for (const auto& layer : mlp_) {
    h = DenseForward(*layer.weights(), *layer.bias(), h, /*relu=*/true);
  }
  const std::vector<double> mlp =
      DenseForward(*mlp_out_.weights(), *mlp_out_.bias(), h, /*relu=*/false);
  const double z = cp + mlp[0];
  return 1.0 / (1.0 + std::exp(-z));
}

}  // namespace tcss
