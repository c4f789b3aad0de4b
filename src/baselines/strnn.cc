#include "baselines/strnn.h"

#include <algorithm>
#include <cmath>

#include "geo/haversine.h"
#include "nn/optimizer.h"
#include "nn/tape.h"

namespace tcss {
namespace {

// Normalized scalar gaps between consecutive trajectory events.
double TimeGap(int64_t from, int64_t to) {
  const double days = static_cast<double>(to - from) / 86400.0;
  return std::clamp(days / 30.0, 0.0, 2.0);
}

double DistGap(const Dataset& data, uint32_t from, uint32_t to) {
  const double km =
      HaversineKm(data.poi(from).location, data.poi(to).location);
  return std::clamp(km / 200.0, 0.0, 2.0);
}

}  // namespace

Status Strnn::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr || ctx.data == nullptr) {
    return Status::InvalidArgument("Strnn: null context");
  }
  const Dataset& data = *ctx.data;
  const size_t d = opts_.dim;
  const size_t J = ctx.train->dim_j();
  const size_t K = ctx.train->dim_k();
  Rng rng(opts_.seed ^ ctx.seed);

  poi_emb_ = store_.Create("poi", J, d, &rng, 0.1);
  time_emb_ = store_.Create("time", K, d, &rng, 0.1);
  wx_ = store_.Create("wx", d, d, &rng, 1.0 / std::sqrt((double)d));
  wh_ = store_.Create("wh", d, d, &rng, 1.0 / std::sqrt((double)d));
  wt_ = store_.Create("wt", 1, d, &rng, 0.1);
  wd_ = store_.Create("wd", 1, d, &rng, 0.1);
  b_ = store_.Create("b", Matrix(1, d));

  // Only events whose cell is observed in the train tensor are used, so
  // the held-out check-ins never leak into the trajectories.
  const auto trajectories =
      BuildTrajectories(data, data.checkins(), ctx.granularity,
                        opts_.max_seq, ctx.train);
  nn::Adam adam(&store_, opts_.lr);

  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    for (uint32_t user = 0; user < trajectories.size(); ++user) {
      const auto& traj = trajectories[user];
      if (traj.size() < 3) continue;
      nn::Tape tape;
      nn::Var h = tape.Input(Matrix(1, d));
      nn::Var loss;
      bool have_loss = false;
      for (size_t t = 0; t + 1 < traj.size(); ++t) {
        // Advance the RNN with event t.
        nn::Var x = tape.Rows(poi_emb_, {traj[t].poi});
        Matrix dt(1, 1), dd(1, 1);
        if (t > 0) {
          dt(0, 0) = TimeGap(traj[t - 1].timestamp, traj[t].timestamp);
          dd(0, 0) = DistGap(data, traj[t - 1].poi, traj[t].poi);
        }
        nn::Var z = tape.Add(tape.MatMul(x, tape.Leaf(wx_)),
                             tape.MatMul(h, tape.Leaf(wh_)));
        z = tape.Add(z, tape.MatMul(tape.Input(dt), tape.Leaf(wt_)));
        z = tape.Add(z, tape.MatMul(tape.Input(dd), tape.Leaf(wd_)));
        h = tape.Tanh(tape.AddRowBroadcast(z, tape.Leaf(b_)));

        // BPR: next event's POI vs a random negative, time-conditioned.
        const TrajectoryEvent& next = traj[t + 1];
        uint32_t neg = static_cast<uint32_t>(rng.UniformInt(J));
        if (neg == next.poi) neg = (neg + 1) % static_cast<uint32_t>(J);
        nn::Var state =
            tape.Add(h, tape.Rows(time_emb_, {next.time_bin}));
        nn::Var s_pos = tape.MatMulT(state, tape.Rows(poi_emb_, {next.poi}));
        nn::Var s_neg = tape.MatMulT(state, tape.Rows(poi_emb_, {neg}));
        nn::Var step_loss =
            tape.BceLoss(tape.Sigmoid(tape.Sub(s_pos, s_neg)),
                         Matrix(1, 1, 1.0));
        loss = have_loss ? tape.Add(loss, step_loss) : step_loss;
        have_loss = true;
      }
      if (have_loss) {
        tape.Backward(loss);
        adam.Step();
      }
    }
  }

  // Final hidden state per user (forward only).
  user_state_ = Matrix(trajectories.size(), d);
  for (uint32_t user = 0; user < trajectories.size(); ++user) {
    const auto& traj = trajectories[user];
    std::vector<double> h(d, 0.0);
    for (size_t t = 0; t < traj.size(); ++t) {
      std::vector<double> z(d, 0.0);
      const double* x = poi_emb_->value.row(traj[t].poi);
      for (size_t a = 0; a < d; ++a) {
        const double* wx_row = wx_->value.row(a);
        const double* wh_row = wh_->value.row(a);
        for (size_t o = 0; o < d; ++o) {
          z[o] += x[a] * wx_row[o] + h[a] * wh_row[o];
        }
      }
      double dt = 0.0, dd = 0.0;
      if (t > 0) {
        dt = TimeGap(traj[t - 1].timestamp, traj[t].timestamp);
        dd = DistGap(data, traj[t - 1].poi, traj[t].poi);
      }
      for (size_t o = 0; o < d; ++o) {
        z[o] += dt * wt_->value(0, o) + dd * wd_->value(0, o) +
                b_->value(0, o);
        z[o] = std::tanh(z[o]);
      }
      h = std::move(z);
    }
    for (size_t o = 0; o < d; ++o) user_state_(user, o) = h[o];
  }
  return Status::OK();
}

double Strnn::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const size_t d = opts_.dim;
  const double* h = user_state_.row(i);
  const double* q = time_emb_->value.row(k);
  const double* e = poi_emb_->value.row(j);
  double s = 0.0;
  for (size_t o = 0; o < d; ++o) s += (h[o] + q[o]) * e[o];
  return s;
}

}  // namespace tcss
