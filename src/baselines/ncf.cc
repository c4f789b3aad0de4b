#include "baselines/ncf.h"

#include <cmath>

#include "nn/tape.h"

namespace tcss {

Status Ncf::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr) {
    return Status::InvalidArgument("Ncf: null train tensor");
  }
  const SparseTensor& x = *ctx.train;
  const size_t d = opts_.emb_dim;
  Rng rng(opts_.seed ^ ctx.seed);

  gu_ = store_.Create("gmf.user", x.dim_i(), d, &rng, 0.1);
  gp_ = store_.Create("gmf.poi", x.dim_j(), d, &rng, 0.1);
  gt_ = store_.Create("gmf.time", x.dim_k(), d, &rng, 0.1);
  mu_ = store_.Create("mlp.user", x.dim_i(), d, &rng, 0.1);
  mp_ = store_.Create("mlp.poi", x.dim_j(), d, &rng, 0.1);
  mt_ = store_.Create("mlp.time", x.dim_k(), d, &rng, 0.1);

  size_t in = 3 * d;
  for (size_t l = 0; l < opts_.mlp_hidden.size(); ++l) {
    mlp_.emplace_back(&store_, "mlp.l" + std::to_string(l), in,
                      opts_.mlp_hidden[l], nn::Activation::kRelu, &rng);
    in = opts_.mlp_hidden[l];
  }
  out_ = nn::Dense(&store_, "out", d + in, 1, nn::Activation::kSigmoid, &rng);

  nn::Adam adam(&store_, opts_.lr);
  TripleSampler sampler(x, opts_.seed ^ ctx.seed ^ 0xbeef);

  const size_t batches_per_epoch =
      std::max<size_t>(1, x.nnz() / std::max<size_t>(1, opts_.batch_positives));
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    for (size_t bi = 0; bi < batches_per_epoch; ++bi) {
      TripleBatch batch =
          sampler.Next(opts_.batch_positives, opts_.neg_ratio);
      if (batch.users.empty()) continue;
      nn::Tape tape;
      nn::Var gmf = tape.Mul(
          tape.Mul(tape.Rows(gu_, batch.users), tape.Rows(gp_, batch.pois)),
          tape.Rows(gt_, batch.times));
      nn::Var h = tape.ConcatCols(
          tape.ConcatCols(tape.Rows(mu_, batch.users),
                          tape.Rows(mp_, batch.pois)),
          tape.Rows(mt_, batch.times));
      for (const auto& layer : mlp_) h = layer.Apply(&tape, h);
      nn::Var prob = out_.Apply(&tape, tape.ConcatCols(gmf, h));
      nn::Var loss = tape.BceLoss(prob, batch.labels);
      tape.Backward(loss);
      adam.Step();
    }
  }
  return Status::OK();
}

double Ncf::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const size_t d = opts_.emb_dim;
  // GMF path.
  std::vector<double> feat;
  feat.reserve(d + 3 * d);
  for (size_t t = 0; t < d; ++t) {
    feat.push_back(gu_->value(i, t) * gp_->value(j, t) * gt_->value(k, t));
  }
  // MLP path.
  std::vector<double> h;
  h.reserve(3 * d);
  for (size_t t = 0; t < d; ++t) h.push_back(mu_->value(i, t));
  for (size_t t = 0; t < d; ++t) h.push_back(mp_->value(j, t));
  for (size_t t = 0; t < d; ++t) h.push_back(mt_->value(k, t));
  for (const auto& layer : mlp_) {
    h = DenseForward(*layer.weights(), *layer.bias(), h, /*relu=*/true);
  }
  feat.insert(feat.end(), h.begin(), h.end());
  const std::vector<double> out =
      DenseForward(*out_.weights(), *out_.bias(), feat,
                   /*relu=*/false, /*sigmoid=*/true);
  return out[0];
}

}  // namespace tcss
