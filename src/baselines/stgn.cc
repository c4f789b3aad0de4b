#include "baselines/stgn.h"

#include <algorithm>
#include <cmath>

#include "geo/haversine.h"
#include "nn/optimizer.h"
#include "nn/tape.h"

namespace tcss {
namespace {

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

Status Stgn::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr || ctx.data == nullptr) {
    return Status::InvalidArgument("Stgn: null context");
  }
  const Dataset& data = *ctx.data;
  const size_t d = opts_.dim;
  const size_t J = ctx.train->dim_j();
  const size_t K = ctx.train->dim_k();
  Rng rng(opts_.seed ^ ctx.seed);

  poi_emb_ = store_.Create("poi", J, d, &rng, 0.1);
  time_emb_ = store_.Create("time", K, d, &rng, 0.1);
  cell_ = nn::LstmCell(&store_, "lstm", d, d, /*spatiotemporal=*/true, &rng);

  const auto trajectories =
      BuildTrajectories(data, data.checkins(), ctx.granularity,
                        opts_.max_seq, ctx.train);
  nn::Adam adam(&store_, opts_.lr);

  // One forward pass of the whole trajectory; records h at every step so
  // training and the final-state extraction share this helper.
  auto unroll = [&](nn::Tape* tape, const std::vector<TrajectoryEvent>& traj,
                    std::vector<nn::Var>* states) {
    nn::LstmCell::State st = cell_.InitialState(tape, 1);
    for (size_t t = 0; t < traj.size(); ++t) {
      nn::Var x = tape->Rows(poi_emb_, {traj[t].poi});
      Matrix dt(1, 1), dd(1, 1);
      if (t > 0) {
        dt(0, 0) = TimeGap(traj[t - 1].timestamp, traj[t].timestamp);
        dd(0, 0) = DistGap(data, traj[t - 1].poi, traj[t].poi);
      }
      st = cell_.Step(tape, x, st, tape->Input(dt), tape->Input(dd));
      if (states != nullptr) states->push_back(st.h);
    }
    return st;
  };

  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    for (uint32_t user = 0; user < trajectories.size(); ++user) {
      const auto& traj = trajectories[user];
      if (traj.size() < 3) continue;
      nn::Tape tape;
      std::vector<nn::Var> states;
      unroll(&tape, traj, &states);
      nn::Var loss;
      bool have_loss = false;
      for (size_t t = 0; t + 1 < traj.size(); ++t) {
        const TrajectoryEvent& next = traj[t + 1];
        uint32_t neg = static_cast<uint32_t>(rng.UniformInt(J));
        if (neg == next.poi) neg = (neg + 1) % static_cast<uint32_t>(J);
        nn::Var state =
            tape.Add(states[t], tape.Rows(time_emb_, {next.time_bin}));
        nn::Var s_pos =
            tape.MatMulT(state, tape.Rows(poi_emb_, {next.poi}));
        nn::Var s_neg = tape.MatMulT(state, tape.Rows(poi_emb_, {neg}));
        nn::Var step = tape.BceLoss(tape.Sigmoid(tape.Sub(s_pos, s_neg)),
                                    Matrix(1, 1, 1.0));
        loss = have_loss ? tape.Add(loss, step) : step;
        have_loss = true;
      }
      if (have_loss) {
        tape.Backward(loss);
        adam.Step();
      }
    }
  }

  user_state_ = Matrix(trajectories.size(), d);
  for (uint32_t user = 0; user < trajectories.size(); ++user) {
    const auto& traj = trajectories[user];
    if (traj.empty()) continue;
    nn::Tape tape;  // forward only
    nn::LstmCell::State st = unroll(&tape, traj, nullptr);
    const Matrix& h = tape.value(st.h);
    for (size_t o = 0; o < d; ++o) user_state_(user, o) = h(0, o);
  }
  return Status::OK();
}

double Stgn::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const size_t d = opts_.dim;
  const double* h = user_state_.row(i);
  const double* q = time_emb_->value.row(k);
  const double* e = poi_emb_->value.row(j);
  double s = 0.0;
  for (size_t o = 0; o < d; ++o) s += (h[o] + q[o]) * e[o];
  return s;
}

}  // namespace tcss
