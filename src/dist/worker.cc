#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/spectral_init.h"
#include "core/trainer.h"
#include "obs/metrics.h"

namespace tcss {
namespace {

/// The budget of one message write to the coordinator, and the
/// coordinator silence tolerated before the worker reconnects.
constexpr int kWriteTimeoutMs = 10'000;
constexpr int kCoordinatorTimeoutMs = 60'000;

/// Deterministic reconnect jitter: a pure function of (rank, attempt), so
/// restarted fleets spread out without sacrificing reproducibility.
int JitterMs(int rank, int attempt, int cap) {
  if (cap <= 0) return 0;
  uint64_t z = 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(rank) + 1) +
               0xbf58476d1ce4e5b9ULL * (static_cast<uint64_t>(attempt) + 1);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  return static_cast<int>(z % static_cast<uint64_t>(cap));
}

/// Sleeps `total_ms` in small steps so an abrupt-stop (simulated SIGKILL)
/// cuts the wait short like a real signal would.
void InterruptibleSleep(int total_ms, const std::atomic<bool>* stop) {
  int slept = 0;
  while (slept < total_ms) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    const int step = std::min(20, total_ms - slept);
    std::this_thread::sleep_for(std::chrono::milliseconds(step));
    slept += step;
  }
}

std::vector<double> Flat(const Matrix& m) {
  return std::vector<double>(m.data(), m.data() + m.size());
}

}  // namespace

DistWorker::DistWorker(const TcssConfig& config, size_t dim_i, size_t dim_j,
                       size_t dim_k, SparseTensor local,
                       DistWorkerOptions opts)
    : config_(config),
      dim_i_(dim_i),
      dim_j_(dim_j),
      dim_k_(dim_k),
      part_(dim_i, opts.num_workers),
      tensor_(std::move(local)),
      opts_(std::move(opts)) {
  env_ = opts_.env != nullptr ? opts_.env : Env::Default();
}

Status DistWorker::Run() {
  std::string problem = config_.Validate();
  if (!problem.empty()) return Status::InvalidArgument(problem);
  if (!ValidateDistConfig(config_, opts_.num_workers, &problem)) {
    return Status::InvalidArgument(problem);
  }
  if (opts_.rank < 0 || opts_.rank >= opts_.num_workers) {
    return Status::InvalidArgument("worker rank outside [0, num_workers)");
  }
  if (tensor_.dim_i() != part_.Count(opts_.rank) ||
      tensor_.dim_j() != dim_j_ || tensor_.dim_k() != dim_k_) {
    return Status::InvalidArgument(
        "local tensor slice does not match this rank's row block");
  }
  SetGlobalThreads(config_.num_threads);
  l2_ = WholeDataLoss::Create(config_);
  if (!opts_.checkpoint_dir.empty()) {
    CheckpointOptions copts;
    copts.dir = opts_.checkpoint_dir;
    copts.retain = opts_.checkpoint_retain;
    copts.env = env_;
    copts.shard = opts_.rank;
    copts.num_shards = opts_.num_workers;
    ckpts_ = std::make_unique<CheckpointManager>(copts);
    TCSS_RETURN_IF_ERROR(ckpts_->Init());
  }
  fingerprint_ =
      DistFingerprint(config_, dim_i_, dim_j_, dim_k_, opts_.num_workers);

  obs::Counter* reconnects_counter =
      obs::MetricRegistry::Global()->GetCounter("dist.worker.reconnects");
  bool first_session = true;
  for (;;) {
    if (Dead()) return Status::IOError("abrupt stop injected");
    auto connected = ConnectWithRetry();
    if (!connected.ok()) return connected.status();
    std::unique_ptr<Conn> conn = connected.MoveValue();
    if (!first_session) {
      ++stats_.reconnects;
      reconnects_counter->Add(1);
    }
    first_session = false;

    // Liveness beacon. Runs while the main thread grinds through gradient
    // computations; shares the conn's write side under write_mu_.
    std::atomic<bool> hb_stop{false};
    std::thread heartbeat([this, &hb_stop, &conn] {
      for (;;) {
        InterruptibleSleep(opts_.heartbeat_interval_ms, &hb_stop);
        if (hb_stop.load(std::memory_order_relaxed) || Dead()) return;
        DistMsg hb;
        hb.type = DistMsgType::kHeartbeat;
        hb.gen = gen_.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(write_mu_);
        if (!SendDistMsg(conn.get(), hb, kWriteTimeoutMs).ok()) {
          return;  // main loop will discover the broken conn on its own
        }
      }
    });

    auto outcome = SessionLoop(conn.get());

    hb_stop.store(true, std::memory_order_relaxed);
    heartbeat.join();
    conn->Close();

    if (!outcome.ok()) return outcome.status();
    switch (outcome.value()) {
      case SessionOutcome::kShutdown:
        return Status::OK();
      case SessionOutcome::kDead:
        return Status::IOError("abrupt stop injected");
      case SessionOutcome::kLost:
      case SessionOutcome::kContinue:
        break;  // reconnect
    }
  }
}

Result<std::unique_ptr<Conn>> DistWorker::ConnectWithRetry() {
  const int attempts = std::max(1, opts_.reconnect_attempts);
  int delay = std::max(1, opts_.reconnect_base_ms);
  Status last = Status::OK();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (Dead()) return Status::IOError("abrupt stop injected");
    auto conn = env_->Connect(opts_.socket_path);
    if (conn.ok()) return conn;
    last = conn.status();
    if (attempt + 1 == attempts) break;
    InterruptibleSleep(delay + JitterMs(opts_.rank, attempt, delay),
                       opts_.abrupt_stop);
    delay = std::min(delay * 2, std::max(1, opts_.reconnect_max_ms));
  }
  return Status::IOError("worker " + std::to_string(opts_.rank) +
                         " exhausted reconnect attempts: " + last.message());
}

Status DistWorker::SendHello(Conn* conn) {
  DistMsg hello;
  hello.type = DistMsgType::kHello;
  hello.gen = gen_.load(std::memory_order_relaxed);
  hello.rank = static_cast<uint32_t>(opts_.rank);
  hello.num_workers = static_cast<uint32_t>(opts_.num_workers);
  hello.fingerprint = fingerprint_;
  if (ckpts_ != nullptr) {
    for (int e : ckpts_->ListEpochs()) {
      if (e > 0 && e <= config_.epochs && bad_epochs_.count(e) == 0) {
        hello.ckpt_epochs.push_back(e);
      }
    }
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  return SendDistMsg(conn, hello, kWriteTimeoutMs);
}

Status DistWorker::StartAt(int epoch) {
  if (epoch == 0) {
    // Cold start. A single-worker engine owns the whole tensor, so every
    // init method (including spectral) works and the model is the byte-
    // for-byte InitializeFactors output; a multi-worker rank initializes
    // its own row block.
    Result<FactorModel> init =
        opts_.num_workers == 1
            ? InitializeFactors(tensor_, config_)
            : InitializeFactorRows(config_, dim_i_, dim_j_, dim_k_,
                                   part_.Begin(opts_.rank),
                                   part_.End(opts_.rank));
    if (!init.ok()) return init.status();
    state_ = TrainerCheckpoint(init.MoveValue());
  } else {
    if (ckpts_ == nullptr) {
      return Status::FailedPrecondition(
          "coordinator requested a warm start but this worker has no "
          "checkpoint dir");
    }
    auto loaded = ckpts_->LoadEpoch(epoch);
    if (!loaded.ok()) return loaded.status();
    const FactorModel& m = loaded.value().model;
    if (m.u1.rows() != part_.Count(opts_.rank) || m.u2.rows() != dim_j_ ||
        m.u3.rows() != dim_k_ || m.rank() != config_.rank ||
        loaded.value().epoch != epoch) {
      return Status::IOError("shard checkpoint shape/epoch mismatch");
    }
    state_ = loaded.MoveValue();
    ++stats_.reloads;
  }
  grads_ = FactorGrads(state_.model);
  last_good_ = state_;
  return Status::OK();
}

Result<DistWorker::SessionOutcome> DistWorker::ComputeAndSendGrad(
    Conn* conn) {
  if (Dead()) return SessionOutcome::kDead;
  const int next_epoch = state_.epoch + 1;
  if (opts_.stall_ms > 0 && opts_.stall_before_epoch == next_epoch) {
    InterruptibleSleep(opts_.stall_ms, opts_.abrupt_stop);
  }
  grads_.Zero();
  const double loss = l2_->ComputeWithGrads(state_.model, tensor_, &grads_);
  ++stats_.epochs_computed;
  if (Dead()) return SessionOutcome::kDead;  // killed mid-epoch

  DistMsg g;
  g.type = DistMsgType::kGrad;
  g.gen = gen_.load(std::memory_order_relaxed);
  g.epoch = next_epoch;
  g.loss = loss;
  g.grad_maxabs = MaxAbsOrInf(grads_.u1.data(), grads_.u1.size());
  g.lr_scale = state_.lr_scale;
  g.u2 = Flat(grads_.u2);
  g.u3 = Flat(grads_.u3);
  g.h = grads_.h;
  g.u3_replica = Flat(state_.model.u3);
  Status sent;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    sent = SendDistMsg(conn, g, kWriteTimeoutMs);
  }
  if (!sent.ok()) return SessionOutcome::kLost;
  return SessionOutcome::kContinue;
}

Status DistWorker::ApplyStep(const DistMsg& msg) {
  if (msg.u2.size() != grads_.u2.size() ||
      msg.u3.size() != grads_.u3.size() || msg.h.size() != grads_.h.size()) {
    return Status::Internal("reduced gradient shape mismatch");
  }
  // The local U1 block steps on its local gradient (those rows *are* the
  // global rows); the replicated factors step on the coordinator's reduced
  // gradients, identical bytes on every worker — which keeps the replicas
  // in bitwise lockstep without ever re-broadcasting them.
  std::copy(msg.u2.begin(), msg.u2.end(), grads_.u2.data());
  std::copy(msg.u3.begin(), msg.u3.end(), grads_.u3.data());
  grads_.h = msg.h;
  AdamStep(grads_, msg.lr, &state_);
  state_.epoch = msg.epoch;
  ++stats_.steps_applied;
  return Status::OK();
}

Status DistWorker::SendFinal(Conn* conn) {
  DistMsg fin;
  fin.type = DistMsgType::kFinal;
  fin.gen = gen_.load(std::memory_order_relaxed);
  fin.epoch = state_.epoch;
  fin.u1 = Flat(state_.model.u1);
  fin.u2 = Flat(state_.model.u2);
  fin.u3 = Flat(state_.model.u3);
  fin.h = state_.model.h;
  std::lock_guard<std::mutex> lock(write_mu_);
  return SendDistMsg(conn, fin, kWriteTimeoutMs);
}

Result<DistWorker::SessionOutcome> DistWorker::SessionLoop(Conn* conn) {
  if (!SendHello(conn).ok()) return SessionOutcome::kLost;
  FrameReader reader(kMaxDistPayload);
  for (;;) {
    DistMsg msg;
    auto event = ReadDistMsg(&reader, conn, &msg,
                             kCoordinatorTimeoutMs, opts_.abrupt_stop);
    if (!event.ok()) {
      TCSS_LOG(Warning) << "worker " << opts_.rank
                        << ": connection error: " << event.status().message();
      return SessionOutcome::kLost;
    }
    switch (event.value()) {
      case FrameReader::Event::kStopped:
        return SessionOutcome::kDead;
      case FrameReader::Event::kEof:
        return SessionOutcome::kLost;
      case FrameReader::Event::kTimeout:
        TCSS_LOG(Warning) << "worker " << opts_.rank
                          << ": coordinator silent past timeout";
        return SessionOutcome::kLost;
      case FrameReader::Event::kFrame:
        break;
    }

    switch (msg.type) {
      case DistMsgType::kStart: {
        gen_.store(msg.gen, std::memory_order_relaxed);
        Status started = StartAt(msg.epoch);
        if (!started.ok()) {
          if (msg.epoch == 0) return started;  // cold init failing is fatal
          // A shard checkpoint the kHello advertised turned out to be
          // unloadable. Prune it and re-offer; the coordinator picks an
          // older common epoch (eventually 0), so recovery converges.
          TCSS_LOG(Warning)
              << "worker " << opts_.rank << ": shard checkpoint for epoch "
              << msg.epoch << " unusable (" << started.message()
              << "); re-offering without it";
          bad_epochs_.insert(msg.epoch);
          if (!SendHello(conn).ok()) return SessionOutcome::kLost;
          break;
        }
        if (state_.epoch >= config_.epochs) {
          // Resumed at (or past) the final epoch: nothing to compute.
          Status sent = SendFinal(conn);
          if (!sent.ok()) return SessionOutcome::kLost;
          break;
        }
        auto advanced = ComputeAndSendGrad(conn);
        if (!advanced.ok()) return advanced.status();
        if (advanced.value() != SessionOutcome::kContinue) {
          return advanced.value();
        }
        break;
      }
      case DistMsgType::kReduced: {
        if (msg.gen != gen_.load(std::memory_order_relaxed)) break;  // stale
        if (msg.action == kActionRollback) {
          // The coordinator owns the backoff; its lr_scale is the new one.
          last_good_.lr_scale = msg.lr_scale;
          state_ = last_good_;
          ++stats_.rollbacks;
        } else {
          if (msg.epoch != state_.epoch + 1) {
            return Status::Internal(
                "coordinator stepped epoch " + std::to_string(msg.epoch) +
                " but worker completed " + std::to_string(state_.epoch));
          }
          // The forward pass of this epoch was verified finite by the
          // coordinator; the pre-step state is the new rollback target
          // (TcssTrainer's capture point).
          last_good_ = state_;
          TCSS_RETURN_IF_ERROR(ApplyStep(msg));
          if ((msg.flags & kFlagCheckpoint) != 0 && ckpts_ != nullptr) {
            TCSS_RETURN_IF_ERROR(ckpts_->Save(state_));
            ++stats_.checkpoints;
            DistMsg ack;
            ack.type = DistMsgType::kCkptAck;
            ack.gen = gen_.load(std::memory_order_relaxed);
            ack.epoch = state_.epoch;
            std::lock_guard<std::mutex> lock(write_mu_);
            if (!SendDistMsg(conn, ack, kWriteTimeoutMs).ok()) {
              return SessionOutcome::kLost;
            }
          }
          if ((msg.flags & kFlagLastEpoch) != 0) {
            Status sent = SendFinal(conn);
            if (!sent.ok()) return SessionOutcome::kLost;
            break;  // await kShutdown (or recovery)
          }
        }
        auto advanced = ComputeAndSendGrad(conn);
        if (!advanced.ok()) return advanced.status();
        if (advanced.value() != SessionOutcome::kContinue) {
          return advanced.value();
        }
        break;
      }
      case DistMsgType::kReport:
        gen_.store(msg.gen, std::memory_order_relaxed);
        if (!SendHello(conn).ok()) return SessionOutcome::kLost;
        break;
      case DistMsgType::kShutdown:
        return SessionOutcome::kShutdown;
      case DistMsgType::kAbort:
        return Status::NotConverged("coordinator aborted: " + msg.text);
      default:
        return Status::Internal(std::string("unexpected message from "
                                            "coordinator: ") +
                                DistMsgTypeName(msg.type));
    }
  }
}

}  // namespace tcss
