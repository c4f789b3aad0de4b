#include "core/trainer.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/spectral_init.h"
#include "obs/metrics.h"

namespace tcss {
namespace {

/// Per-stage telemetry of the training loop, resolved once per Train()
/// call. Every member only *observes* the loop (clock samples, event
/// counts); none of them feeds a value back into the math — the trained
/// bytes are identical with metrics on or off (determinism suite).
struct TrainMetrics {
  obs::Counter* epochs;
  obs::Counter* rollbacks;
  obs::Counter* plateau_stops;
  obs::Counter* checkpoints;
  obs::Histogram* epoch_ms;
  obs::Histogram* loss_ms;
  obs::Histogram* hausdorff_ms;
  obs::Histogram* apply_ms;
  obs::Histogram* checkpoint_ms;
  obs::Histogram* init_ms;
  obs::Counter* unconverged_modes;
  obs::Gauge* loss_total;
  obs::Gauge* lr;

  static TrainMetrics Resolve() {
    obs::MetricRegistry* reg = obs::MetricRegistry::Global();
    return {reg->GetCounter("train.epochs"),
            reg->GetCounter("train.rollbacks"),
            reg->GetCounter("train.plateau_stops"),
            reg->GetCounter("train.checkpoints_written"),
            reg->GetHistogram("train.epoch_ms"),
            reg->GetHistogram("train.stage.loss_ms"),
            reg->GetHistogram("train.stage.hausdorff_ms"),
            reg->GetHistogram("train.stage.apply_ms"),
            reg->GetHistogram("train.stage.checkpoint_ms"),
            reg->GetHistogram("train.stage.init_ms"),
            reg->GetCounter("train.init.unconverged_modes"),
            reg->GetGauge("train.loss_total"),
            reg->GetGauge("train.lr")};
  }
};

/// Max-abs entry over all gradient blocks; +inf if any entry is NaN/Inf,
/// so a single comparison catches both explosion and corruption.
double GradMaxAbs(const FactorGrads& g) {
  double m = MaxAbsOrInf(g.u1.data(), g.u1.size());
  m = std::max(m, MaxAbsOrInf(g.u2.data(), g.u2.size()));
  m = std::max(m, MaxAbsOrInf(g.u3.data(), g.u3.size()));
  m = std::max(m, MaxAbsOrInf(g.h.data(), g.h.size()));
  return m;
}

}  // namespace

double MaxAbsOrInf(const double* p, size_t n) {
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(p[i])) return std::numeric_limits<double>::infinity();
    const double a = std::fabs(p[i]);
    if (a > m) m = a;
  }
  return m;
}

void AdamBiasCorrection(int64_t t, double* bc1, double* bc2) {
  *bc1 = 1.0 - std::pow(kAdamBeta1, static_cast<double>(t));
  *bc2 = 1.0 - std::pow(kAdamBeta2, static_cast<double>(t));
}

void AdamUpdateBlock(double* value, const double* grad, double* m, double* v,
                     size_t n, double lr, double weight_decay, double bc1,
                     double bc2) {
  const double b1 = kAdamBeta1, b2 = kAdamBeta2, eps = kAdamEps;
  for (size_t idx = 0; idx < n; ++idx) {
    const double gi = grad[idx];
    m[idx] = b1 * m[idx] + (1.0 - b1) * gi;
    v[idx] = b2 * v[idx] + (1.0 - b2) * gi * gi;
    const double mhat = m[idx] / bc1;
    const double vhat = v[idx] / bc2;
    value[idx] -= lr * (mhat / (std::sqrt(vhat) + eps) +
                        weight_decay * value[idx]);
  }
}

double ScheduledLearningRate(const TcssConfig& config, int epoch) {
  double lr = config.learning_rate;
  if (epoch > config.epochs * 17 / 20) {
    lr *= config.lr_step_factor * config.lr_step_factor;
  } else if (epoch > config.epochs * 3 / 5) {
    lr *= config.lr_step_factor;
  }
  return lr;
}

// Cyclic temporal smoothness: ts * sum_k ||U3_k - U3_{k+1 mod K}||^2.
// Gradient wrt U3_k: 2 ts (2 U3_k - U3_{k-1} - U3_{k+1}).
double AddTemporalSmoothnessGrad(const Matrix& u3, double weight,
                                 Matrix* u3_grad) {
  const size_t K = u3.rows();
  const size_t r = u3.cols();
  if (K < 2) return 0.0;
  double loss = 0.0;
  for (size_t k = 0; k < K; ++k) {
    const size_t next = (k + 1) % K;
    const size_t prev = (k + K - 1) % K;
    const double* cur_row = u3.row(k);
    const double* next_row = u3.row(next);
    const double* prev_row = u3.row(prev);
    double* g = u3_grad->row(k);
    for (size_t t = 0; t < r; ++t) {
      const double d = cur_row[t] - next_row[t];
      loss += weight * d * d;
      g[t] += 2.0 * weight *
              (2.0 * cur_row[t] - prev_row[t] - next_row[t]);
    }
  }
  return loss;
}

TcssTrainer::TcssTrainer(const Dataset& data, const SparseTensor& train,
                         const TcssConfig& config)
    : data_(&data), train_(&train), config_(config) {
  l2_ = WholeDataLoss::Create(config_);
  l2_->BindTensor(*train_);
  const bool wants_l1 = config_.lambda > 0.0 &&
                        (config_.hausdorff == HausdorffMode::kSocial ||
                         config_.hausdorff == HausdorffMode::kSelf);
  if (wants_l1) {
    hausdorff_ =
        std::make_unique<SocialHausdorffLoss>(data, train, config_);
  }
}

void TcssTrainer::AdamStep(FactorModel* model, const FactorGrads& grads,
                           AdamState* state, double lr) const {
  ++state->t;
  double bc1 = 0.0, bc2 = 0.0;
  AdamBiasCorrection(state->t, &bc1, &bc2);
  const double wd = config_.weight_decay;
  AdamUpdateBlock(model->u1.data(), grads.u1.data(), state->m.u1.data(),
                  state->v.u1.data(), model->u1.size(), lr, wd, bc1, bc2);
  AdamUpdateBlock(model->u2.data(), grads.u2.data(), state->m.u2.data(),
                  state->v.u2.data(), model->u2.size(), lr, wd, bc1, bc2);
  AdamUpdateBlock(model->u3.data(), grads.u3.data(), state->m.u3.data(),
                  state->v.u3.data(), model->u3.size(), lr, wd, bc1, bc2);
  AdamUpdateBlock(model->h.data(), grads.h.data(), state->m.h.data(),
                  state->v.h.data(), model->h.size(), lr, wd, bc1, bc2);
}

double TcssTrainer::AddTemporalSmoothness(const FactorModel& model,
                                          double weight,
                                          FactorGrads* grads) const {
  return AddTemporalSmoothnessGrad(model.u3, weight, &grads->u3);
}

double TcssTrainer::ScheduledLr(int epoch) const {
  return ScheduledLearningRate(config_, epoch);
}

Result<FactorModel> TcssTrainer::Train(const EpochCallback& callback) {
  return Train(TrainOptions{}, callback);
}

Result<FactorModel> TcssTrainer::Train(const TrainOptions& options,
                                       const EpochCallback& callback) {
  const std::string problem = config_.Validate();
  if (!problem.empty()) return Status::InvalidArgument(problem);
  if (!train_->finalized()) {
    return Status::InvalidArgument("TcssTrainer: train tensor not finalized");
  }
  if (options.resume && options.checkpoints == nullptr) {
    return Status::InvalidArgument("resume requested without checkpoints");
  }
  SetGlobalThreads(config_.num_threads);

  FactorModel model;
  int start_epoch = 0;        // epochs already completed
  double lr_scale = 1.0;      // divergence-backoff multiplier

  const TrainMetrics metrics = TrainMetrics::Resolve();
  std::unique_ptr<AdamState> adam;
  bool resumed = false;
  if (options.resume) {
    auto loaded = options.checkpoints->LoadLatest();
    if (loaded.ok()) {
      TrainerCheckpoint ckpt = loaded.MoveValue();
      if (ckpt.model.u1.rows() != train_->dim_i() ||
          ckpt.model.u2.rows() != train_->dim_j() ||
          ckpt.model.u3.rows() != train_->dim_k() ||
          ckpt.model.rank() != config_.rank) {
        return Status::InvalidArgument(
            "checkpoint shape does not match the training tensor/config");
      }
      model = std::move(ckpt.model);
      adam = std::make_unique<AdamState>(model);
      adam->m = std::move(ckpt.adam_m);
      adam->v = std::move(ckpt.adam_v);
      adam->t = ckpt.adam_t;
      start_epoch = ckpt.epoch;
      lr_scale = ckpt.lr_scale;
      if (hausdorff_ != nullptr) {
        hausdorff_->set_rotation(ckpt.hausdorff_rotation);
      }
      l2_->set_sampler_state(ckpt.sampler_state);
      resumed = true;
      TCSS_LOG(Info) << "resuming training from checkpoint at epoch "
                     << start_epoch;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    } else if (options.require_checkpoint) {
      return Status::FailedPrecondition(
          "resume requires a checkpoint but none could be loaded from '" +
          options.checkpoints->options().dir +
          "': " + loaded.status().message());
    }
  }
  if (!resumed) {
    if (options.warm_start != nullptr) {
      const FactorModel& warm = *options.warm_start;
      if (warm.u1.rows() != train_->dim_i() ||
          warm.u2.rows() != train_->dim_j() ||
          warm.u3.rows() != train_->dim_k() ||
          warm.rank() != config_.rank) {
        return Status::InvalidArgument(
            "warm-start model shape does not match the training "
            "tensor/config");
      }
      model = warm;
    } else {
      Stopwatch init_sw;
      SpectralInitStats init_stats;
      auto init = InitializeFactors(*train_, config_, &init_stats);
      if (!init.ok()) return init.status();
      model = init.MoveValue();
      metrics.init_ms->Record(init_sw.ElapsedSeconds() * 1e3);
      if (config_.init == InitMethod::kSpectral) {
        for (bool converged : init_stats.converged) {
          if (!converged) metrics.unconverged_modes->Add(1);
        }
      }
    }
    adam = std::make_unique<AdamState>(model);
  }

  FactorGrads grads(model);

  // Last state whose *forward* loss was verified finite. Rolling back here
  // and shrinking the LR changes the trajectory that diverged; rolling
  // back a single step would recompute the identical non-finite loss.
  TrainerCheckpoint last_good;
  auto record_last_good = [&](int completed_epochs) {
    last_good.model = model;
    last_good.adam_m = adam->m;
    last_good.adam_v = adam->v;
    last_good.adam_t = adam->t;
    last_good.epoch = completed_epochs;
    last_good.hausdorff_rotation =
        hausdorff_ != nullptr ? hausdorff_->rotation() : 0;
    last_good.sampler_state = l2_->sampler_state();
    last_good.lr_scale = lr_scale;
  };
  record_last_good(start_epoch);

  int rollbacks = 0;
  double best_monitored = std::numeric_limits<double>::infinity();
  int plateau_streak = 0;

  for (int epoch = start_epoch + 1; epoch <= config_.epochs; ++epoch) {
    Stopwatch sw;
    Stopwatch stage;
    grads.Zero();
    EpochStats stats;
    stats.epoch = epoch;
    const size_t rotation_before =
        hausdorff_ != nullptr ? hausdorff_->rotation() : 0;
    const uint64_t sampler_before = l2_->sampler_state();
    stats.loss_l2 = l2_->ComputeWithGrads(model, *train_, &grads);
    stats.seconds_loss = stage.ElapsedSeconds();
    metrics.loss_ms->Record(stats.seconds_loss * 1e3);
    if (hausdorff_ != nullptr) {
      // ComputeWithGrads bakes lambda into its gradient scale but returns
      // the raw (extrapolated) L1 value; multiply here so TotalLoss() —
      // which drives divergence detection and plateau monitoring — sees
      // lambda applied exactly once, matching the gradients.
      stage.Restart();
      stats.loss_l1 =
          config_.lambda *
          hausdorff_->ComputeWithGrads(model, config_.lambda, &grads);
      stats.seconds_hausdorff = stage.ElapsedSeconds();
      metrics.hausdorff_ms->Record(stats.seconds_hausdorff * 1e3);
    }
    if (config_.temporal_smoothness > 0.0) {
      stats.loss_ts =
          AddTemporalSmoothness(model, config_.temporal_smoothness, &grads);
    }
    stats.grad_norm = GradMaxAbs(grads);

    const bool diverged =
        !std::isfinite(stats.TotalLoss()) ||
        !std::isfinite(stats.grad_norm) ||
        (options.grad_norm_limit > 0.0 &&
         stats.grad_norm > options.grad_norm_limit);
    if (diverged) {
      if (rollbacks >= options.max_divergence_retries) {
        return Status::NotConverged(StrFormat(
            "divergence at epoch %d (loss=%g, grad_norm=%g): %d rollback "
            "retries with LR backoff %g exhausted; lower the learning rate",
            epoch, stats.TotalLoss(), stats.grad_norm, rollbacks,
            options.lr_backoff));
      }
      ++rollbacks;
      metrics.rollbacks->Add(1);
      lr_scale *= options.lr_backoff;  // compounds across retries
      TCSS_LOG(Warning) << "divergence at epoch " << epoch
                        << " (loss=" << stats.TotalLoss()
                        << ", grad_norm=" << stats.grad_norm
                        << "); rolling back to epoch " << last_good.epoch
                        << " with lr_scale " << lr_scale;
      model = last_good.model;
      adam->m = last_good.adam_m;
      adam->v = last_good.adam_v;
      adam->t = last_good.adam_t;
      if (hausdorff_ != nullptr) {
        hausdorff_->set_rotation(last_good.hausdorff_rotation);
      }
      l2_->set_sampler_state(last_good.sampler_state);
      epoch = last_good.epoch;  // loop increment restarts at epoch + 1
      continue;
    }

    // The forward pass from the pre-step state was finite, so that state
    // is a safe rollback target (capture it before the step mutates it).
    last_good.model = model;
    last_good.adam_m = adam->m;
    last_good.adam_v = adam->v;
    last_good.adam_t = adam->t;
    last_good.epoch = epoch - 1;
    last_good.hausdorff_rotation = rotation_before;
    last_good.sampler_state = sampler_before;
    last_good.lr_scale = lr_scale;

    stats.lr = ScheduledLr(epoch) * lr_scale;
    stats.rollbacks = rollbacks;
    stage.Restart();
    AdamStep(&model, grads, adam.get(), stats.lr);
    stats.seconds_apply = stage.ElapsedSeconds();
    metrics.apply_ms->Record(stats.seconds_apply * 1e3);

    auto save_checkpoint = [&]() -> Status {
      Stopwatch ckpt_sw;
      TrainerCheckpoint ckpt;
      ckpt.model = model;
      ckpt.adam_m = adam->m;
      ckpt.adam_v = adam->v;
      ckpt.adam_t = adam->t;
      ckpt.epoch = epoch;
      ckpt.hausdorff_rotation =
          hausdorff_ != nullptr ? hausdorff_->rotation() : 0;
      ckpt.sampler_state = l2_->sampler_state();
      ckpt.lr_scale = lr_scale;
      Status saved = options.checkpoints->Save(ckpt);
      stats.seconds_checkpoint = ckpt_sw.ElapsedSeconds();
      metrics.checkpoint_ms->Record(stats.seconds_checkpoint * 1e3);
      metrics.checkpoints->Add(1);
      return saved;
    };
    bool checkpointed = false;
    if (options.checkpoints != nullptr &&
        (options.checkpoints->ShouldSnapshot(epoch) ||
         epoch == config_.epochs)) {
      TCSS_RETURN_IF_ERROR(save_checkpoint());
      checkpointed = true;
    }

    stats.seconds = sw.ElapsedSeconds();
    metrics.epoch_ms->Record(stats.seconds * 1e3);
    metrics.epochs->Add(1);
    metrics.loss_total->Set(stats.TotalLoss());
    metrics.lr->Set(stats.lr);
    if (callback) callback(stats, model);

    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      TCSS_LOG(Info) << "stop requested; ending training after epoch "
                     << epoch;
      // Same reasoning as the plateau break below: the final-epoch
      // snapshot never runs on this path, so persist the stopping point
      // for --resume before leaving.
      if (options.checkpoints != nullptr && !checkpointed) {
        TCSS_RETURN_IF_ERROR(save_checkpoint());
      }
      break;
    }

    if (options.plateau_patience > 0) {
      const double monitored = options.validation_metric
                                   ? options.validation_metric(model)
                                   : stats.TotalLoss();
      if (monitored < best_monitored - options.plateau_min_delta) {
        best_monitored = monitored;
        plateau_streak = 0;
      } else if (++plateau_streak >= options.plateau_patience) {
        metrics.plateau_stops->Add(1);
        TCSS_LOG(Info) << "early stop at epoch " << epoch
                       << ": monitored value plateaued at "
                       << best_monitored;
        // The final-epoch snapshot below the loop never runs on this
        // path; save here so a post-plateau --resume restarts from the
        // stopping point instead of redoing epochs.
        if (options.checkpoints != nullptr && !checkpointed) {
          TCSS_RETURN_IF_ERROR(save_checkpoint());
        }
        break;
      }
    }
  }
  return model;
}

Result<double> TcssTrainer::TimeOneLossEpoch(LossMode mode) {
  TcssConfig cfg = config_;
  cfg.loss_mode = mode;
  SetGlobalThreads(cfg.num_threads);
  auto init = InitializeFactors(*train_, cfg);
  if (!init.ok()) return init.status();
  FactorModel model = init.MoveValue();
  FactorGrads grads(model);
  std::unique_ptr<WholeDataLoss> loss = WholeDataLoss::Create(cfg);
  loss->BindTensor(*train_);  // precompute CSF outside the timed region
  Stopwatch sw;
  (void)loss->ComputeWithGrads(model, *train_, &grads);
  return sw.ElapsedSeconds();
}

}  // namespace tcss
