#ifndef TCSS_CORE_TRAINER_H_
#define TCSS_CORE_TRAINER_H_

#include <atomic>
#include <functional>
#include <memory>

#include "common/status.h"
#include "core/checkpoint.h"
#include "core/factor_model.h"
#include "core/hausdorff_loss.h"
#include "core/tcss_config.h"
#include "core/whole_data_loss.h"
#include "data/dataset.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Per-epoch training diagnostics.
struct EpochStats {
  int epoch = 0;
  double loss_l2 = 0.0;       ///< least-squares head value
  double loss_l1 = 0.0;       ///< lambda * social Hausdorff value (extrapolated)
  double loss_ts = 0.0;       ///< temporal-smoothness penalty value
  double grad_norm = 0.0;     ///< max-abs entry over all gradients
  double lr = 0.0;            ///< effective learning rate of this epoch
  int rollbacks = 0;          ///< divergence rollbacks so far in the run
  double seconds = 0.0;       ///< wall time; stages: train.stage.*_ms

  double TotalLoss() const { return loss_l2 + loss_l1 + loss_ts; }
};

/// Called after every epoch with stats and the current factors (e.g. to
/// record convergence curves, Fig 9).
using EpochCallback =
    std::function<void(const EpochStats&, const FactorModel&)>;

// One training machine ---------------------------------------------------
//
// TcssTrainer and the sharded engine (src/dist) run the same epoch: a
// TrainerCheckpoint is the live state of every run (what a snapshot saves
// and a rollback restores), AdamStep advances it, DivergenceGuard judges
// each forward pass, and InitializeFactors / InitializeFactorRows start it.
// The engine adds only the worker's row-block gradient and the
// coordinator's fixed-order reduce, so a one-worker fleet trains the
// trainer's exact bytes.

/// Learning rate of `epoch` under the step schedule (before any divergence
/// backoff): lr * step^2 after 85% of the epochs, lr * step after 60%.
double ScheduledLearningRate(const TcssConfig& config, int epoch);

/// Adds the cyclic temporal-smoothness gradient
/// ts * sum_k ||U3_k - U3_{k+1 mod K}||^2 into `u3_grad` and returns the
/// penalty value. Touches only the (small, replicated) U3 factor, so the
/// distributed coordinator can evaluate it centrally.
double AddTemporalSmoothnessGrad(const Matrix& u3, double weight,
                                 Matrix* u3_grad);

/// Max-abs entry of a block; +inf if any entry is NaN/Inf, so a single
/// comparison catches both explosion and corruption.
double MaxAbsOrInf(const double* p, size_t n);

/// One Adam step, with weight decay 1e-5, of every factor of `state`
/// (model, moments, step counter) on `grads`. Elementwise: stepping
/// disjoint row blocks with their own gradient rows gives exactly the
/// bytes of one whole-matrix step — the property that makes user-mode
/// sharding exact.
void AdamStep(const FactorGrads& grads, double lr, TrainerCheckpoint* state);

/// Divergence guard of a training run. An epoch whose forward pass has a
/// non-finite loss or gradient (or a max-abs gradient entry above
/// `grad_norm_limit`) is not stepped on: the run rolls back to the last
/// verified-good state and multiplies its learning-rate scale by
/// `lr_backoff`. After `max_retries` rollbacks it aborts with Exhausted().
struct DivergenceGuard {
  int max_retries = 3;
  double lr_backoff = 0.5;
  /// Extra explosion guard on the max-abs gradient entry; 0 disables it
  /// (non-finite values are always caught).
  double grad_norm_limit = 0.0;

  /// True when `stats` (loss terms and grad_norm of a forward pass) must
  /// not be stepped on.
  bool Diverged(const EpochStats& stats) const;
  /// The NotConverged status of a run that diverged at `stats.epoch` with
  /// `stats.rollbacks` retries spent.
  Status Exhausted(const EpochStats& stats) const;
};

/// Resilience knobs of TcssTrainer::Train. Defaults preserve the classic
/// behavior (no checkpoints) except that non-finite losses/gradients now
/// trigger rollback + LR backoff instead of silently training on NaN — a
/// run that stays finite is bit-identical to before.
struct TrainOptions {
  /// Periodic crash-safe snapshots. Not owned; may be null (no
  /// checkpointing). Call CheckpointManager::Init() before training.
  CheckpointManager* checkpoints = nullptr;

  /// Restore model + optimizer state + epoch counter from the newest valid
  /// checkpoint and continue; a missing checkpoint falls back to a cold
  /// start. Requires `checkpoints`. A resumed run replays the exact
  /// floating-point trajectory of an uninterrupted one in every loss mode:
  /// kNegativeSampling's counter-based sampler state is checkpointed, so
  /// the resumed epochs draw the same negatives the uninterrupted run
  /// would have.
  bool resume = false;

  /// With `resume`: fail (FailedPrecondition) instead of cold-starting when
  /// no checkpoint can be loaded — the CLI sets this so `--resume` against
  /// a missing or fully-corrupt checkpoint directory exits with a clear
  /// diagnostic rather than silently retraining from scratch.
  bool require_checkpoint = false;

  /// Rollback + LR backoff on a diverged epoch; NotConverged once its
  /// retries are spent.
  DivergenceGuard divergence;

  /// Warm start: when set (and no checkpoint was resumed), training starts
  /// from a copy of this model instead of InitializeFactors — the seam the
  /// streaming refiner uses to continue from the currently served factors
  /// after a delta merge. Shape must match the training tensor and
  /// config.rank exactly. A resumed checkpoint always wins over the warm
  /// start (the checkpoint is the later state). Not owned; must outlive
  /// Train().
  const FactorModel* warm_start = nullptr;

  /// Cooperative cancellation, checked once per epoch after the step and
  /// callback. When it reads true the trainer writes a final checkpoint
  /// (through the existing atomic path, when `checkpoints` is set) and
  /// returns the model trained so far with Status::OK — a SIGINT'd run is
  /// indistinguishable from a shorter one and `--resume` continues from
  /// the interruption point. A signal handler may store to this flag
  /// (std::atomic<bool> stores are async-signal-safe).
  const std::atomic<bool>* stop = nullptr;
};

/// Joint trainer of L = lambda * L1 + L2 (Eq 20) with Adam, entirely on
/// hand-derived analytic gradients.
class TcssTrainer {
 public:
  /// `data` and `train` must outlive the trainer.
  TcssTrainer(const Dataset& data, const SparseTensor& train,
              const TcssConfig& config);

  /// Runs config.epochs epochs from the configured initialization with
  /// default TrainOptions.
  Result<FactorModel> Train(const EpochCallback& callback = nullptr);

  /// Full-control variant: checkpoint/resume, divergence guards with
  /// rollback + LR backoff, warm start and cooperative stop. Both variants
  /// return InvalidArgument for an unfinalized train tensor.
  Result<FactorModel> Train(const TrainOptions& options,
                            const EpochCallback& callback);

  /// Measures the wall time of a single gradient evaluation of the L2 head
  /// under the given mode, on a freshly initialized model (Table IV).
  Result<double> TimeOneLossEpoch(LossMode mode);

  const SocialHausdorffLoss* hausdorff() const { return hausdorff_.get(); }

 private:
  const SparseTensor* train_;
  TcssConfig config_;
  std::unique_ptr<WholeDataLoss> l2_;
  std::unique_ptr<SocialHausdorffLoss> hausdorff_;
};

}  // namespace tcss

#endif  // TCSS_CORE_TRAINER_H_
