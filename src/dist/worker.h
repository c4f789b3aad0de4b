#ifndef TCSS_DIST_WORKER_H_
#define TCSS_DIST_WORKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "common/env.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/factor_model.h"
#include "core/tcss_config.h"
#include "core/whole_data_loss.h"
#include "dist/partition.h"
#include "dist/wire.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Knobs of one distributed training worker (rank r of W).
struct DistWorkerOptions {
  int rank = 0;
  int num_workers = 1;
  /// Unix-domain socket of the coordinator.
  std::string socket_path;
  /// Transport and checkpoint I/O; null = Env::Default(). Tests inject
  /// FaultInjectionEnv here to break the wire on a deterministic schedule.
  Env* env = nullptr;

  /// Directory for this rank's TCKPv2 checkpoint shards
  /// (ckpt-<epoch>-s<rank>of<W>.tckp); "" disables durable shards, which
  /// degrades recovery to a cold restart from epoch 0.
  std::string checkpoint_dir;
  int checkpoint_retain = 3;

  /// Liveness beacon period. Sent from a dedicated thread so a long
  /// gradient computation never reads as death to the coordinator.
  int heartbeat_interval_ms = 100;

  /// Reconnect policy: bounded retries with exponential backoff
  /// (base * 2^attempt, capped) plus a deterministic jitter derived from
  /// (rank, attempt) — restarted fleets do not thunder in lockstep, yet
  /// runs stay reproducible. The attempt budget resets after every
  /// session that made protocol progress.
  int reconnect_attempts = 10;
  int reconnect_base_ms = 20;
  int reconnect_max_ms = 2000;

  // Test hooks -----------------------------------------------------------
  /// Simulated SIGKILL: when it reads true the worker stops computing,
  /// heartbeating and responding at the next check, abandoning its
  /// connection exactly as a killed process would. Run() then returns an
  /// IOError; restart semantics are exercised by constructing a fresh
  /// DistWorker over the same checkpoint_dir.
  const std::atomic<bool>* abrupt_stop = nullptr;
  /// Straggler injection: sleep `stall_ms` before computing the gradient
  /// of epoch `stall_before_epoch` (0 disables).
  int stall_before_epoch = 0;
  int stall_ms = 0;
};

/// Observable effects of one Run() for tests and the chaos harness.
struct DistWorkerStats {
  int epochs_computed = 0;  ///< gradient evaluations (incl. rollback redos)
  int steps_applied = 0;    ///< Adam steps taken
  int rollbacks = 0;        ///< divergence rollbacks obeyed
  int reconnects = 0;       ///< sessions after the first
  int checkpoints = 0;      ///< shard snapshots written
  int reloads = 0;          ///< warm restarts from a shard checkpoint
};

/// One worker of the coordinator/worker training engine: owns the
/// contiguous U1 row block of its rank plus the matching tensor slice,
/// replicates U2/U3/h, and advances them in lockstep with every other
/// worker by applying the coordinator's reduced gradients with the
/// trainer's own machinery (TrainerCheckpoint state, AdamStep). See
/// DESIGN.md §11.
class DistWorker {
 public:
  /// `local` is this rank's tensor slice — row-remapped, i.e. its dim_i
  /// equals RowPartition(dim_i, num_workers).Count(rank). Full tensor
  /// dims are passed separately; they shape the replicated factors.
  DistWorker(const TcssConfig& config, size_t dim_i, size_t dim_j,
             size_t dim_k, SparseTensor local, DistWorkerOptions opts);

  /// Blocks until the coordinator shuts the run down (OK), aborts it
  /// (the abort diagnostic), the reconnect budget is exhausted, or a
  /// protocol violation proves the peers incompatible.
  Status Run();

  const DistWorkerStats& stats() const { return stats_; }

 private:
  enum class SessionOutcome { kContinue, kShutdown, kLost, kDead };

  bool Dead() const {
    return opts_.abrupt_stop != nullptr &&
           opts_.abrupt_stop->load(std::memory_order_relaxed);
  }

  Result<std::unique_ptr<Conn>> ConnectWithRetry();
  Result<SessionOutcome> SessionLoop(Conn* conn);
  Status SendHello(Conn* conn);
  Status StartAt(int epoch);
  Result<SessionOutcome> ComputeAndSendGrad(Conn* conn);
  Status ApplyStep(const DistMsg& msg);
  Status SendFinal(Conn* conn);

  TcssConfig config_;
  size_t dim_i_, dim_j_, dim_k_;
  RowPartition part_;
  SparseTensor tensor_;
  DistWorkerOptions opts_;
  Env* env_ = nullptr;
  uint64_t fingerprint_ = 0;

  std::unique_ptr<WholeDataLoss> l2_;
  std::unique_ptr<CheckpointManager> ckpts_;

  /// The live state of this rank (U1 block, replicas, Adam moments,
  /// epoch, lr_scale): what a shard checkpoint saves. `last_good_` is the
  /// pre-step state of the last epoch whose forward loss the coordinator
  /// verified finite — the rollback target, as in TcssTrainer.
  TrainerCheckpoint state_;
  TrainerCheckpoint last_good_;
  FactorGrads grads_;
  std::atomic<uint32_t> gen_{0};

  /// Shard-checkpoint epochs that failed to load this run; excluded from
  /// kHello so repeated recovery converges instead of retrying a corrupt
  /// file forever.
  std::set<int> bad_epochs_;

  std::mutex write_mu_;  ///< serializes main-loop and heartbeat writes
  DistWorkerStats stats_;
};

}  // namespace tcss

#endif  // TCSS_DIST_WORKER_H_
