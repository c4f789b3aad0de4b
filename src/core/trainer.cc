#include "core/trainer.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/spectral_init.h"
#include "linalg/vector_ops.h"
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

/// Rows of a factor per parallel AdamStep shard.
constexpr size_t kAdamRowGrain = 1024;

/// Weight decay of every AdamStep.
constexpr double kWeightDecay = 1e-5;

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

void AdamStep(const FactorGrads& grads, double lr, TrainerCheckpoint* state) {
  const int64_t t = ++state->adam_t;
  FactorModel& x = state->model;
  FactorGrads& m = state->adam_m;
  FactorGrads& v = state->adam_v;
  const size_t r = x.rank();
  // The update is elementwise, so row ranges run in parallel with the same
  // bytes at any thread count.
  auto update = [&](double* value, const double* grad, double* mom,
                    double* vel, size_t rows) {
    ParallelFor(rows, kAdamRowGrain, [&](size_t begin, size_t end, size_t) {
      const size_t at = begin * r;
      AdamUpdate(value + at, grad + at, mom + at, vel + at, (end - begin) * r,
                 t, lr, kWeightDecay);
    });
  };
  update(x.u1.data(), grads.u1.data(), m.u1.data(), v.u1.data(), x.u1.rows());
  update(x.u2.data(), grads.u2.data(), m.u2.data(), v.u2.data(), x.u2.rows());
  update(x.u3.data(), grads.u3.data(), m.u3.data(), v.u3.data(), x.u3.rows());
  update(x.h.data(), grads.h.data(), m.h.data(), v.h.data(), 1);
}

bool DivergenceGuard::Diverged(const EpochStats& stats) const {
  return !std::isfinite(stats.TotalLoss()) ||
         !std::isfinite(stats.grad_norm) ||
         (grad_norm_limit > 0.0 && stats.grad_norm > grad_norm_limit);
}

Status DivergenceGuard::Exhausted(const EpochStats& stats) const {
  return Status::NotConverged(StrFormat(
      "divergence at epoch %d (loss=%g, grad_norm=%g): %d rollback "
      "retries with LR backoff %g exhausted; lower the learning rate",
      stats.epoch, stats.TotalLoss(), stats.grad_norm, stats.rollbacks,
      lr_backoff));
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
    : train_(&train), config_(config) {
  l2_ = WholeDataLoss::Create(config_);
  const bool wants_l1 = config_.lambda > 0.0 &&
                        (config_.hausdorff == HausdorffMode::kSocial ||
                         config_.hausdorff == HausdorffMode::kSelf);
  // The head reads the finalized tensor's per-user POIs; Train refuses an
  // unfinalized one before it would run.
  if (wants_l1 && train.finalized()) {
    hausdorff_ =
        std::make_unique<SocialHausdorffLoss>(data, train, config_);
  }
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

  const TrainMetrics metrics = TrainMetrics::Resolve();
  // The live state of the run: a snapshot saves it, a rollback restores it.
  TrainerCheckpoint state;
  bool resumed = false;
  if (options.resume) {
    auto loaded = options.checkpoints->LoadLatest();
    if (loaded.ok()) {
      state = loaded.MoveValue();
      resumed = true;
      TCSS_LOG(Info) << "resuming training from checkpoint at epoch "
                     << state.epoch;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    } else if (options.require_checkpoint) {
      return Status::FailedPrecondition(
          "resume requires a checkpoint but none could be loaded from '" +
          options.checkpoints->options().dir +
          "': " + loaded.status().message());
    }
  }
  if (!resumed && options.warm_start != nullptr) {
    state = TrainerCheckpoint(*options.warm_start);
  } else if (!resumed) {
    Stopwatch init_sw;
    SpectralInitStats init_stats;
    auto init = InitializeFactors(*train_, config_, &init_stats);
    if (!init.ok()) return init.status();
    state = TrainerCheckpoint(init.MoveValue());
    metrics.init_ms->Record(init_sw.ElapsedSeconds() * 1e3);
    if (config_.init == InitMethod::kSpectral) {
      for (bool converged : init_stats.converged) {
        if (!converged) metrics.unconverged_modes->Add(1);
      }
    }
  }
  if (state.model.u1.rows() != train_->dim_i() ||
      state.model.u2.rows() != train_->dim_j() ||
      state.model.u3.rows() != train_->dim_k() ||
      state.model.rank() != config_.rank) {
    return Status::InvalidArgument(
        std::string(resumed ? "checkpoint" : "warm-start model") +
        " shape does not match the training tensor/config");
  }

  // The losses' cursors (Hausdorff minibatch rotation, negative-sampling
  // call counter) follow the state wherever it is loaded or rolled back.
  auto restore_cursors = [&] {
    if (hausdorff_ != nullptr) {
      hausdorff_->set_rotation(state.hausdorff_rotation);
    }
    l2_->set_sampler_state(state.sampler_state);
  };
  restore_cursors();

  FactorGrads grads(state.model);
  // Last state whose *forward* loss was verified finite. Rolling back here
  // and shrinking the LR changes the trajectory that diverged; rolling
  // back a single step would recompute the identical non-finite loss.
  TrainerCheckpoint last_good = state;
  const DivergenceGuard& guard = options.divergence;
  int rollbacks = 0;

  for (int epoch = state.epoch + 1; epoch <= config_.epochs; ++epoch) {
    Stopwatch sw;
    Stopwatch stage;
    grads.Zero();
    EpochStats stats;
    stats.epoch = epoch;
    stats.rollbacks = rollbacks;
    stats.loss_l2 = l2_->ComputeWithGrads(state.model, *train_, &grads);
    metrics.loss_ms->Record(stage.ElapsedMillis());
    if (hausdorff_ != nullptr) {
      // ComputeWithGrads bakes lambda into its gradient scale but returns
      // the raw (extrapolated) L1 value; multiply here so TotalLoss() —
      // which drives divergence detection — sees lambda applied exactly
      // once, matching the gradients.
      stage.Restart();
      stats.loss_l1 =
          config_.lambda *
          hausdorff_->ComputeWithGrads(state.model, config_.lambda, &grads);
      metrics.hausdorff_ms->Record(stage.ElapsedMillis());
    }
    if (config_.temporal_smoothness > 0.0) {
      stats.loss_ts = AddTemporalSmoothnessGrad(
          state.model.u3, config_.temporal_smoothness, &grads.u3);
    }
    stats.grad_norm = GradMaxAbs(grads);

    if (guard.Diverged(stats)) {
      if (rollbacks >= guard.max_retries) return guard.Exhausted(stats);
      ++rollbacks;
      metrics.rollbacks->Add(1);
      last_good.lr_scale *= guard.lr_backoff;  // compounds across retries
      TCSS_LOG(Warning) << "divergence at epoch " << epoch
                        << " (loss=" << stats.TotalLoss()
                        << ", grad_norm=" << stats.grad_norm
                        << "); rolling back to epoch " << last_good.epoch
                        << " with lr_scale " << last_good.lr_scale;
      state = last_good;
      restore_cursors();
      epoch = state.epoch;  // loop increment restarts at epoch + 1
      continue;
    }

    // The forward pass from the pre-step state was finite, so that state
    // is a safe rollback target. Its cursors are still the ones this
    // epoch's loss calls started from.
    last_good = state;

    stats.lr = ScheduledLearningRate(config_, epoch) * state.lr_scale;
    stage.Restart();
    AdamStep(grads, stats.lr, &state);
    state.epoch = epoch;
    state.hausdorff_rotation =
        hausdorff_ != nullptr ? hausdorff_->rotation() : 0;
    state.sampler_state = l2_->sampler_state();
    metrics.apply_ms->Record(stage.ElapsedMillis());

    auto save_checkpoint = [&]() -> Status {
      Stopwatch ckpt_sw;
      Status saved = options.checkpoints->Save(state);
      metrics.checkpoint_ms->Record(ckpt_sw.ElapsedMillis());
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
    if (callback) callback(stats, state.model);

    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      TCSS_LOG(Info) << "stop requested; ending training after epoch "
                     << epoch;
      // The final-epoch snapshot never runs on this path, so persist the
      // stopping point for --resume before leaving.
      if (options.checkpoints != nullptr && !checkpointed) {
        TCSS_RETURN_IF_ERROR(save_checkpoint());
      }
      break;
    }
  }
  return std::move(state.model);
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
  Stopwatch sw;
  (void)loss->ComputeWithGrads(model, *train_, &grads);
  return sw.ElapsedSeconds();
}

}  // namespace tcss
