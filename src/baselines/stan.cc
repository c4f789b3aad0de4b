#include "baselines/stan.h"

#include <algorithm>
#include <cmath>

#include "geo/haversine.h"
#include "nn/optimizer.h"
#include "nn/tape.h"

namespace tcss {
namespace {

// Pairwise relation matrices over a trajectory window: normalized absolute
// time gaps (days/30) and distances (km/200), negated so that *near*
// events receive *larger* attention bias.
void RelationMatrices(const Dataset& data,
                      const std::vector<TrajectoryEvent>& window, Matrix* mt,
                      Matrix* md) {
  const size_t L = window.size();
  mt->Resize(L, L);
  md->Resize(L, L);
  for (size_t a = 0; a < L; ++a) {
    for (size_t b = 0; b < L; ++b) {
      const double days =
          std::fabs(static_cast<double>(window[a].timestamp -
                                        window[b].timestamp)) /
          86400.0;
      (*mt)(a, b) = -std::clamp(days / 30.0, 0.0, 3.0);
      const double km = HaversineKm(data.poi(window[a].poi).location,
                                    data.poi(window[b].poi).location);
      (*md)(a, b) = -std::clamp(km / 200.0, 0.0, 3.0);
    }
  }
}

}  // namespace

Status Stan::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr || ctx.data == nullptr) {
    return Status::InvalidArgument("Stan: null context");
  }
  const Dataset& data = *ctx.data;
  const size_t d = opts_.dim;
  const size_t J = ctx.train->dim_j();
  const size_t K = ctx.train->dim_k();
  Rng rng(opts_.seed ^ ctx.seed);

  poi_emb_ = store_.Create("poi", J, d, &rng, 0.1);
  time_emb_ = store_.Create("time", K, d, &rng, 0.1);
  rel_t_ = store_.Create("rel_t", Matrix(1, 1, 0.5));
  rel_d_ = store_.Create("rel_d", Matrix(1, 1, 0.5));

  const auto trajectories =
      BuildTrajectories(data, data.checkins(), ctx.granularity,
                        opts_.max_seq + 1, ctx.train);
  nn::Adam adam(&store_, opts_.lr);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(d));

  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    for (uint32_t user = 0; user < trajectories.size(); ++user) {
      const auto& traj = trajectories[user];
      if (traj.size() < 4) continue;
      // Window = all but the last event; target = the last event.
      std::vector<TrajectoryEvent> window(traj.begin(), traj.end() - 1);
      const TrajectoryEvent& target = traj.back();
      const size_t L = window.size();

      std::vector<uint32_t> pois(L), bins(L);
      for (size_t t = 0; t < L; ++t) {
        pois[t] = window[t].poi;
        bins[t] = window[t].time_bin;
      }
      Matrix mt, md;
      RelationMatrices(data, window, &mt, &md);

      nn::Tape tape;
      nn::Var e = tape.Add(tape.Rows(poi_emb_, pois),
                           tape.Rows(time_emb_, bins));  // L x d
      nn::Var logits = tape.Scale(tape.MatMulT(e, e), inv_sqrt_d);
      logits = tape.Add(
          logits, tape.MulScalarVar(tape.Input(mt), tape.Leaf(rel_t_)));
      logits = tape.Add(
          logits, tape.MulScalarVar(tape.Input(md), tape.Leaf(rel_d_)));
      nn::Var attended = tape.MatMul(tape.SoftmaxRows(logits), e);
      nn::Var state = tape.Add(tape.Slice(attended, L - 1, 0, 1, d),
                               tape.Rows(time_emb_, {target.time_bin}));
      uint32_t neg = static_cast<uint32_t>(rng.UniformInt(J));
      if (neg == target.poi) neg = (neg + 1) % static_cast<uint32_t>(J);
      nn::Var s_pos = tape.MatMulT(state, tape.Rows(poi_emb_, {target.poi}));
      nn::Var s_neg = tape.MatMulT(state, tape.Rows(poi_emb_, {neg}));
      nn::Var loss = tape.BceLoss(tape.Sigmoid(tape.Sub(s_pos, s_neg)),
                                  Matrix(1, 1, 1.0));
      tape.Backward(loss);
      adam.Step();
    }
  }

  // Final user states: attention over the full trajectory, last position.
  user_state_ = Matrix(trajectories.size(), d);
  for (uint32_t user = 0; user < trajectories.size(); ++user) {
    const auto& traj = trajectories[user];
    if (traj.empty()) continue;
    const size_t L = traj.size();
    std::vector<uint32_t> pois(L), bins(L);
    for (size_t t = 0; t < L; ++t) {
      pois[t] = traj[t].poi;
      bins[t] = traj[t].time_bin;
    }
    Matrix mt, md;
    RelationMatrices(data, traj, &mt, &md);
    nn::Tape tape;  // forward only
    nn::Var e = tape.Add(tape.Rows(poi_emb_, pois),
                         tape.Rows(time_emb_, bins));
    nn::Var logits = tape.Scale(tape.MatMulT(e, e), inv_sqrt_d);
    logits = tape.Add(
        logits, tape.MulScalarVar(tape.Input(mt), tape.Leaf(rel_t_)));
    logits = tape.Add(
        logits, tape.MulScalarVar(tape.Input(md), tape.Leaf(rel_d_)));
    nn::Var attended = tape.MatMul(tape.SoftmaxRows(logits), e);
    const Matrix& out = tape.value(attended);
    for (size_t o = 0; o < d; ++o) user_state_(user, o) = out(L - 1, o);
  }
  return Status::OK();
}

double Stan::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const size_t d = opts_.dim;
  const double* h = user_state_.row(i);
  const double* q = time_emb_->value.row(k);
  const double* e = poi_emb_->value.row(j);
  double s = 0.0;
  for (size_t o = 0; o < d; ++o) s += (h[o] + q[o]) * e[o];
  return s;
}

}  // namespace tcss
