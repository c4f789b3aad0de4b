#ifndef TCSS_DIST_COORDINATOR_H_
#define TCSS_DIST_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "core/factor_model.h"
#include "core/tcss_config.h"
#include "core/trainer.h"
#include "dist/partition.h"
#include "dist/wire.h"

namespace tcss {

/// Per-epoch diagnostics of a distributed run. Same fields as the
/// single-process EpochStats where they apply; the coordinator never holds
/// the sharded U1, so the callback carries stats only.
using DistEpochCallback = std::function<void(const EpochStats&)>;

/// Knobs of the coordinator (the single control process of a run).
struct DistCoordinatorOptions {
  int num_workers = 2;
  /// Unix-domain socket to listen on (keep it short: sun_path caps at
  /// ~100 bytes).
  std::string socket_path;
  /// Transport; null = Env::Default(). Tests inject FaultInjectionEnv.
  Env* env = nullptr;

  /// The trainer's divergence guard (TrainOptions::divergence), judged on
  /// the reduced loss and gradients.
  DivergenceGuard divergence;

  /// Snapshot period for worker shard checkpoints, in epochs (<= 0
  /// disables periodic snapshots; the final epoch always snapshots when
  /// workers have a checkpoint dir).
  int checkpoint_every = 10;

  /// A worker whose connection stays silent (no heartbeat, no gradient)
  /// past this is declared dead and triggers recovery.
  int heartbeat_timeout_ms = 3'000;
  /// A live (heartbeating) worker whose gradient is this late is counted
  /// and logged as a straggler — visibility without a verdict.
  int straggler_warn_ms = 1'000;
  /// How long to wait for all ranks to check in (initially and after each
  /// recovery) before giving up on the run.
  int world_timeout_ms = 60'000;
  /// Worker deaths tolerated over the whole run before aborting.
  int max_recoveries = 16;

  /// Cooperative cancellation, checked once per epoch: the run ends early
  /// through the normal last-epoch path (final snapshot + model gather).
  const std::atomic<bool>* stop = nullptr;

  DistEpochCallback epoch_callback;
};

/// Observable effects of one coordinated run.
struct DistCoordinatorStats {
  int epochs = 0;       ///< steps broadcast (excl. rollbacks)
  int rollbacks = 0;    ///< divergence rollbacks
  int recoveries = 0;   ///< worker deaths recovered from
  int stragglers = 0;   ///< late-gradient warnings
  int ckpt_acks = 0;    ///< shard checkpoint acknowledgements seen
};

/// The control process of the sharded training engine: accepts worker
/// connections, assembles the world, drives the epoch state machine
/// (gather gradients -> deterministic ascending-rank reduce -> divergence
/// check -> broadcast step or rollback), detects dead workers by
/// heartbeat silence, and recovers by restarting every worker from the
/// newest shard-checkpoint epoch they all hold. See DESIGN.md §11.
class DistCoordinator {
 public:
  DistCoordinator(const TcssConfig& config, size_t dim_i, size_t dim_j,
                  size_t dim_k, DistCoordinatorOptions opts);
  ~DistCoordinator();

  /// Blocks until the run completes (the assembled full model), a worker
  /// is unrecoverable, or training diverges past the retry budget.
  Result<FactorModel> Run();

  const DistCoordinatorStats& stats() const { return stats_; }

 private:
  struct Session {
    uint64_t id = 0;
    std::unique_ptr<Conn> conn;
    std::thread reader;
    std::atomic<bool> stop{false};
    /// steady_clock ms of the last byte of protocol activity (heartbeats
    /// count); the liveness signal.
    std::atomic<int64_t> last_rx_ms{0};
    int rank = -1;  ///< set by the state machine on kHello
  };

  struct Event {
    enum class Kind { kMsg, kDown, kAcceptFailed };
    Kind kind = Kind::kMsg;
    uint64_t session_id = 0;
    DistMsg msg;
    Status error;  ///< kAcceptFailed diagnostic
  };

  void AcceptorLoop();
  void ReaderLoop(Session* session);
  void PushEvent(Event event);
  /// Waits up to `tick_ms` for an event; false on timeout.
  bool PopEvent(Event* event, int tick_ms);

  Session* FindSession(uint64_t id);
  /// Stops the reader, closes the conn and forgets the session.
  void RetireSession(uint64_t id);
  void RetireAllSessions();

  /// True while `id` still maps to a live session.
  bool SendTo(uint64_t session_id, const DistMsg& msg);

  /// Collects kHello from all ranks (fresh or re-sent after kReport) and
  /// picks the common restart epoch. Fills rank_sessions_/start_epoch_.
  Status WaitForWorld();
  /// One gather->reduce->broadcast cycle; see .cc for the full protocol.
  Status RunEpochs();
  Status GatherFinals(FactorModel* out);
  /// Declares `session_id` dead and rebuilds the world (generation bump +
  /// kReport broadcast). Returns non-OK when the recovery budget is spent.
  Status Recover(uint64_t session_id, const std::string& why);

  /// Best-effort terminal broadcast + full teardown; idempotent.
  void BroadcastAbort(const std::string& why);
  void Teardown(bool aborting, const std::string& why);

  int64_t NowMs() const;

  TcssConfig config_;
  size_t dim_i_, dim_j_, dim_k_;
  RowPartition part_;
  DistCoordinatorOptions opts_;
  Env* env_ = nullptr;
  uint64_t fingerprint_ = 0;

  std::unique_ptr<Listener> listener_;
  std::thread acceptor_;
  std::atomic<bool> acceptor_stop_{false};

  std::mutex mu_;  ///< guards sessions_, events_, next_session_id_
  std::condition_variable events_cv_;
  std::deque<Event> events_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  // State machine (Run thread only) --------------------------------------
  uint32_t gen_ = 0;
  std::vector<uint64_t> rank_sessions_;  ///< rank -> session id
  /// rank -> shard-checkpoint epochs from the newest kHello.
  std::vector<std::vector<int32_t>> rank_ckpts_;
  int start_epoch_ = 0;
  int last_good_epoch_ = 0;
  double lr_scale_ = 1.0;
  bool lr_scale_known_ = false;  ///< false until the first kGrad echo
  bool need_world_ = false;      ///< a recovery invalidated the world
  bool torn_down_ = false;
  DistCoordinatorStats stats_;
};

}  // namespace tcss

#endif  // TCSS_DIST_COORDINATOR_H_
