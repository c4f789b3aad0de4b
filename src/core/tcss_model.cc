#include "core/tcss_model.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "geo/haversine.h"
#include "linalg/vector_ops.h"

namespace tcss {
namespace {

// Zero-out ablation: a POI within this fraction of d_max of one of the
// user's own POIs stays scoreable.
constexpr double kZeroOutSigmaFrac = 0.01;

}  // namespace

std::string TcssModel::name() const {
  std::string n = "TCSS";
  if (config_.hausdorff == HausdorffMode::kNone) n += "(no-L1)";
  if (config_.hausdorff == HausdorffMode::kSelf) n += "(self-hausdorff)";
  if (config_.hausdorff == HausdorffMode::kZeroOut) n += "(zero-out)";
  if (config_.init == InitMethod::kRandom) n += "(rand-init)";
  if (config_.init == InitMethod::kOneHot) n += "(onehot-init)";
  if (config_.loss_mode == LossMode::kNegativeSampling) n += "(neg-sampling)";
  return n;
}

Status TcssModel::Fit(const TrainContext& ctx) {
  return FitWithCallback(ctx, nullptr);
}

Status TcssModel::FitWithCallback(const TrainContext& ctx,
                                  const EpochCallback& callback) {
  return FitWithOptions(ctx, TrainOptions{}, callback);
}

Status TcssModel::FitWithOptions(const TrainContext& ctx,
                                 const TrainOptions& options,
                                 const EpochCallback& callback) {
  if (ctx.data == nullptr || ctx.train == nullptr) {
    return Status::InvalidArgument("TcssModel::Fit: null context");
  }
  if (fitted_) {
    return Status::FailedPrecondition("TcssModel::Fit called twice");
  }
  TcssTrainer trainer(*ctx.data, *ctx.train, config_);
  auto trained = trainer.Train(options, callback);
  if (!trained.ok()) return trained.status();
  factors_ = trained.MoveValue();
  num_pois_ = ctx.train->dim_j();
  if (config_.hausdorff == HausdorffMode::kZeroOut) {
    BuildZeroOutMask(ctx);
  }
  fitted_ = true;
  return Status::OK();
}

void TcssModel::BuildZeroOutMask(const TrainContext& ctx) {
  const size_t I = ctx.train->dim_i();
  const size_t J = ctx.train->dim_j();
  const double d_max = MaxPairwiseDistanceKm(ctx.data->PoiLocations());
  const double sigma = kZeroOutSigmaFrac * std::max(d_max, 1e-9);

  allowed_.assign(I * J, 0);
  for (uint32_t i = 0; i < I; ++i) {
    const std::span<const uint32_t> own_pois = ctx.train->Pois(i);
    for (size_t j = 0; j < J; ++j) {
      const GeoPoint& pj = ctx.data->poi(static_cast<uint32_t>(j)).location;
      for (uint32_t own : own_pois) {
        if (HaversineKm(pj, ctx.data->poi(own).location) <= sigma) {
          allowed_[i * J + j] = 1;
          break;
        }
      }
    }
  }
}

double TcssModel::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const double y = factors_.Predict(i, j, k);
  if (!allowed_.empty()) {
    if (!allowed_[static_cast<size_t>(i) * num_pois_ + j]) {
      return -1e9;  // zero-out ablation: discard far POIs entirely
    }
  }
  return y;
}

Matrix TcssModel::TimeFactorSimilarity() const {
  const size_t K = factors_.u3.rows();
  Matrix sim(K, K);
  for (size_t a = 0; a < K; ++a) {
    std::vector<double> va(factors_.u3.row(a),
                           factors_.u3.row(a) + factors_.rank());
    for (size_t b = 0; b < K; ++b) {
      std::vector<double> vb(factors_.u3.row(b),
                             factors_.u3.row(b) + factors_.rank());
      sim(a, b) = CosineSimilarity(va, vb);
    }
  }
  return sim;
}

}  // namespace tcss
