#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"

namespace tcss {
namespace {

/// Budget of one message write to a worker.
constexpr int kWriteTimeoutMs = 10'000;

/// Bitwise equality of two double vectors (NaN-safe, -0.0 != +0.0): the
/// replica-lockstep check must detect *any* byte of drift, not values that
/// merely compare equal.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

DistCoordinator::DistCoordinator(const TcssConfig& config, size_t dim_i,
                                 size_t dim_j, size_t dim_k,
                                 DistCoordinatorOptions opts)
    : config_(config),
      dim_i_(dim_i),
      dim_j_(dim_j),
      dim_k_(dim_k),
      part_(dim_i, opts.num_workers),
      opts_(std::move(opts)) {
  env_ = opts_.env != nullptr ? opts_.env : Env::Default();
}

DistCoordinator::~DistCoordinator() { Teardown(false, ""); }

int64_t DistCoordinator::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void DistCoordinator::PushEvent(Event event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(event));
  }
  events_cv_.notify_one();
}

bool DistCoordinator::PopEvent(Event* event, int tick_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!events_cv_.wait_for(lock, std::chrono::milliseconds(tick_ms),
                           [this] { return !events_.empty(); })) {
    return false;
  }
  *event = std::move(events_.front());
  events_.pop_front();
  return true;
}

void DistCoordinator::AcceptorLoop() {
  while (!acceptor_stop_.load(std::memory_order_relaxed)) {
    auto accepted = listener_->Accept(50);
    if (!accepted.ok()) {
      if (!acceptor_stop_.load(std::memory_order_relaxed)) {
        Event ev;
        ev.kind = Event::Kind::kAcceptFailed;
        ev.error = accepted.status();
        PushEvent(std::move(ev));
      }
      return;
    }
    std::unique_ptr<Conn> conn = accepted.MoveValue();
    if (conn == nullptr) continue;  // idle tick or transient abort
    {
      // The reader thread must start under the same lock that publishes
      // the session: once it is in sessions_, the state machine may
      // RetireSession it, which touches session->reader.
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t id = next_session_id_++;
      auto owned = std::make_unique<Session>();
      owned->id = id;
      owned->conn = std::move(conn);
      owned->last_rx_ms.store(NowMs(), std::memory_order_relaxed);
      Session* session = owned.get();
      session->reader =
          std::thread([this, session] { ReaderLoop(session); });
      sessions_[id] = std::move(owned);
    }
  }
}

void DistCoordinator::ReaderLoop(Session* session) {
  FrameReader reader(kMaxDistPayload);
  for (;;) {
    DistMsg msg;
    auto event = ReadDistMsg(&reader, session->conn.get(), &msg,
                             /*deadline_ms=*/-1, &session->stop);
    if (!event.ok() || event.value() == FrameReader::Event::kEof) {
      if (!session->stop.load(std::memory_order_relaxed)) {
        Event down;
        down.kind = Event::Kind::kDown;
        down.session_id = session->id;
        if (!event.ok()) down.error = event.status();
        PushEvent(std::move(down));
      }
      return;
    }
    if (event.value() == FrameReader::Event::kStopped) return;
    if (event.value() != FrameReader::Event::kFrame) continue;
    session->last_rx_ms.store(NowMs(), std::memory_order_relaxed);
    if (msg.type == DistMsgType::kHeartbeat) continue;  // liveness only
    Event ev;
    ev.session_id = session->id;
    ev.msg = std::move(msg);
    PushEvent(std::move(ev));
  }
}

DistCoordinator::Session* DistCoordinator::FindSession(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void DistCoordinator::RetireSession(uint64_t id) {
  std::unique_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  session->stop.store(true, std::memory_order_relaxed);
  if (session->reader.joinable()) session->reader.join();
  session->conn->Close();
}

void DistCoordinator::RetireAllSessions() {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }
  for (uint64_t id : ids) RetireSession(id);
}

bool DistCoordinator::SendTo(uint64_t session_id, const DistMsg& msg) {
  Session* session = FindSession(session_id);
  if (session == nullptr) return false;
  // Sessions are only destroyed by the state-machine thread (this thread),
  // so the pointer stays valid across the unlocked Write.
  return SendDistMsg(session->conn.get(), msg, kWriteTimeoutMs).ok();
}

Status DistCoordinator::Recover(uint64_t session_id, const std::string& why) {
  TCSS_LOG(Warning) << "coordinator: worker lost (" << why
                    << "); starting recovery " << stats_.recoveries + 1;
  if (session_id != 0) RetireSession(session_id);
  if (++stats_.recoveries > opts_.max_recoveries) {
    return Status::IOError(StrFormat(
        "worker failures exceeded the recovery budget (%d): last failure: %s",
        opts_.max_recoveries, why.c_str()));
  }
  need_world_ = true;
  ++gen_;
  DistMsg report;
  report.type = DistMsgType::kReport;
  report.gen = gen_;
  // Every surviving session is asked to re-Hello under the new generation;
  // a session we cannot even reach is dead too — drop it, its worker will
  // reconnect through the retry path.
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }
  for (uint64_t id : ids) {
    if (!SendTo(id, report)) RetireSession(id);
  }
  return Status::OK();
}

Status DistCoordinator::WaitForWorld() {
  need_world_ = false;
  const int world = opts_.num_workers;
  rank_sessions_.assign(world, 0);
  rank_ckpts_.assign(world, {});
  int have = 0;
  const int64_t deadline = NowMs() + opts_.world_timeout_ms;
  while (have < world) {
    if (NowMs() >= deadline) {
      return Status::IOError(StrFormat(
          "timed out assembling the world: %d of %d workers checked in",
          have, world));
    }
    Event ev;
    if (!PopEvent(&ev, 50)) continue;
    switch (ev.kind) {
      case Event::Kind::kAcceptFailed:
        return ev.error;
      case Event::Kind::kDown: {
        Session* session = FindSession(ev.session_id);
        if (session != nullptr && session->rank >= 0 &&
            session->rank < world &&
            rank_sessions_[session->rank] == ev.session_id) {
          rank_sessions_[session->rank] = 0;
          rank_ckpts_[session->rank].clear();
          --have;
        }
        RetireSession(ev.session_id);
        break;
      }
      case Event::Kind::kMsg: {
        if (ev.msg.type != DistMsgType::kHello) break;  // stale traffic
        Session* session = FindSession(ev.session_id);
        if (session == nullptr) break;
        const uint32_t rank = ev.msg.rank;
        if (ev.msg.fingerprint != fingerprint_ ||
            ev.msg.num_workers != static_cast<uint32_t>(world) ||
            rank >= static_cast<uint32_t>(world)) {
          TCSS_LOG(Warning)
              << "coordinator: rejecting incompatible worker (rank "
              << rank << ", fingerprint mismatch or bad world size)";
          DistMsg abort;
          abort.type = DistMsgType::kAbort;
          abort.gen = gen_;
          abort.text =
              "config/fingerprint mismatch: this worker was launched "
              "against a different run";
          SendTo(ev.session_id, abort);
          RetireSession(ev.session_id);
          break;
        }
        session->rank = static_cast<int>(rank);
        if (rank_sessions_[rank] == 0) {
          ++have;
        } else if (rank_sessions_[rank] != ev.session_id) {
          // The rank reconnected before its old session died: the newest
          // connection wins, the zombie is retired.
          RetireSession(rank_sessions_[rank]);
        }
        rank_sessions_[rank] = ev.session_id;
        rank_ckpts_[rank] = ev.msg.ckpt_epochs;
        break;
      }
    }
  }

  // The restart epoch is the newest checkpoint *every* rank can load —
  // any rank missing it would fork the trajectory. No common epoch means
  // a cold start from 0.
  start_epoch_ = 0;
  std::vector<int32_t> candidates = rank_ckpts_[0];
  std::sort(candidates.rbegin(), candidates.rend());
  for (int32_t e : candidates) {
    if (e <= 0 || e > config_.epochs) continue;
    bool common = true;
    for (int r = 1; r < world && common; ++r) {
      common = std::find(rank_ckpts_[r].begin(), rank_ckpts_[r].end(), e) !=
               rank_ckpts_[r].end();
    }
    if (common) {
      start_epoch_ = e;
      break;
    }
  }
  last_good_epoch_ = start_epoch_;
  lr_scale_known_ = false;  // re-adopted from the workers' next kGrad echo
  TCSS_LOG(Info) << "coordinator: world of " << world
                 << " assembled, starting at epoch " << start_epoch_
                 << " (generation " << gen_ << ")";
  return Status::OK();
}

Status DistCoordinator::RunEpochs() {
  const int world = opts_.num_workers;
  const size_t r = config_.rank;
  if (start_epoch_ >= config_.epochs) {
    return Status::OK();  // resumed past the end: straight to the gather
  }

  std::vector<DistMsg> pending(world);
  std::vector<bool> have(world);
  int epoch = start_epoch_ + 1;
  for (;;) {
    const int64_t epoch_start = NowMs();
    std::fill(have.begin(), have.end(), false);
    std::vector<bool> straggler_flagged(world, false);
    int got = 0;

    while (got < world) {
      const int64_t now = NowMs();
      for (int w = 0; w < world; ++w) {
        Session* session = FindSession(rank_sessions_[w]);
        if (session == nullptr) continue;
        const int64_t silent =
            now - session->last_rx_ms.load(std::memory_order_relaxed);
        if (silent > opts_.heartbeat_timeout_ms) {
          return Recover(rank_sessions_[w],
                         StrFormat("rank %d silent for %d ms", w,
                                   static_cast<int>(silent)));
        }
        if (!have[w] && !straggler_flagged[w] &&
            now - epoch_start > opts_.straggler_warn_ms) {
          straggler_flagged[w] = true;
          ++stats_.stragglers;
          TCSS_LOG(Warning) << "coordinator: rank " << w
                            << " is straggling on epoch " << epoch
                            << " (alive but " << (now - epoch_start)
                            << " ms late)";
        }
      }
      if (need_world_) return Status::OK();

      Event ev;
      if (!PopEvent(&ev, 50)) continue;
      if (ev.kind == Event::Kind::kAcceptFailed) return ev.error;
      if (ev.kind == Event::Kind::kDown) {
        Session* session = FindSession(ev.session_id);
        const bool ranked =
            session != nullptr && session->rank >= 0 &&
            rank_sessions_[session->rank] == ev.session_id;
        if (!ranked) {
          RetireSession(ev.session_id);
          continue;
        }
        return Recover(ev.session_id,
                       StrFormat("rank %d connection dropped: %s",
                                 session->rank, ev.error.message().c_str()));
      }
      // kMsg ------------------------------------------------------------
      if (ev.msg.type == DistMsgType::kHello) {
        // A worker (re)introduced itself mid-run — some process restarted.
        // Rebuild the world; the Hello is re-sent under the new generation
        // in response to kReport.
        return Recover(0, "unexpected hello mid-run (worker restarted)");
      }
      if (ev.msg.gen != gen_) continue;  // pre-recovery traffic
      if (ev.msg.type == DistMsgType::kCkptAck) {
        ++stats_.ckpt_acks;
        continue;
      }
      if (ev.msg.type != DistMsgType::kGrad) {
        return Status::Internal(
            StrFormat("protocol violation: unexpected %s during epoch %d",
                      DistMsgTypeName(ev.msg.type), epoch));
      }
      Session* session = FindSession(ev.session_id);
      if (session == nullptr || session->rank < 0 ||
          rank_sessions_[session->rank] != ev.session_id) {
        continue;  // gradient from a retired session
      }
      const int w = session->rank;
      if (ev.msg.epoch != epoch) {
        return Status::Internal(
            StrFormat("rank %d sent a gradient for epoch %d while the run "
                      "is at epoch %d",
                      w, ev.msg.epoch, epoch));
      }
      if (ev.msg.u2.size() != dim_j_ * r || ev.msg.u3.size() != dim_k_ * r ||
          ev.msg.h.size() != r || ev.msg.u3_replica.size() != dim_k_ * r) {
        return Status::Internal(
            StrFormat("rank %d sent gradient arrays of the wrong shape", w));
      }
      if (!have[w]) ++got;
      have[w] = true;
      pending[w] = std::move(ev.msg);
    }

    // Deterministic all-reduce: rank 0's contribution is adopted verbatim
    // and ranks 1..W-1 are added in ascending order — the one fixed
    // summation order every run (and every resume) of the same world size
    // reproduces bit-for-bit. At W=1 this is the identity, which is what
    // makes the single-worker engine a bitwise oracle of TcssTrainer.
    EpochStats es;
    es.epoch = epoch;
    es.rollbacks = stats_.rollbacks;
    es.loss_l2 = pending[0].loss;
    std::vector<double> u2g = pending[0].u2;
    std::vector<double> hg = pending[0].h;
    Matrix u3g(dim_k_, r);
    std::copy(pending[0].u3.begin(), pending[0].u3.end(), u3g.data());
    for (int w = 1; w < world; ++w) {
      es.loss_l2 += pending[w].loss;
      for (size_t i = 0; i < u2g.size(); ++i) u2g[i] += pending[w].u2[i];
      for (size_t i = 0; i < u3g.size(); ++i) {
        u3g.data()[i] += pending[w].u3[i];
      }
      for (size_t i = 0; i < hg.size(); ++i) hg[i] += pending[w].h[i];
      if (!SameBits(pending[w].u3_replica, pending[0].u3_replica)) {
        BroadcastAbort("replica lockstep broken");
        return Status::Internal(StrFormat(
            "U3 replica of rank %d diverged bitwise from rank 0 at epoch "
            "%d — the lockstep invariant is broken",
            w, epoch));
      }
      if (!SameBits(pending[w].lr_scale, pending[0].lr_scale)) {
        BroadcastAbort("lr_scale lockstep broken");
        return Status::Internal(StrFormat(
            "lr_scale of rank %d diverged from rank 0 at epoch %d", w,
            epoch));
      }
    }
    // After a restart the backoff multiplier lives only in the shard
    // checkpoints; the workers' (verified-identical) echo restores it.
    if (!lr_scale_known_) {
      lr_scale_ = pending[0].lr_scale;
      lr_scale_known_ = true;
    } else if (!SameBits(lr_scale_, pending[0].lr_scale)) {
      BroadcastAbort("lr_scale desync");
      return Status::Internal(
          StrFormat("workers echo lr_scale %g but the coordinator tracks "
                    "%g at epoch %d",
                    pending[0].lr_scale, lr_scale_, epoch));
    }

    if (config_.temporal_smoothness > 0.0) {
      // U3 is replicated and verified identical, so the coupling term the
      // row-decomposition cannot shard is evaluated centrally on it.
      Matrix u3_rep(dim_k_, r);
      std::copy(pending[0].u3_replica.begin(), pending[0].u3_replica.end(),
                u3_rep.data());
      es.loss_ts =
          AddTemporalSmoothnessGrad(u3_rep, config_.temporal_smoothness, &u3g);
    }

    es.grad_norm = std::max({MaxAbsOrInf(u2g.data(), u2g.size()),
                             MaxAbsOrInf(u3g.data(), u3g.size()),
                             MaxAbsOrInf(hg.data(), hg.size())});
    for (const DistMsg& g : pending) {
      es.grad_norm = std::max(es.grad_norm, g.grad_maxabs);  // U1 blocks
    }

    const DivergenceGuard& guard = opts_.divergence;
    if (guard.Diverged(es)) {
      if (stats_.rollbacks >= guard.max_retries) {
        Status exhausted = guard.Exhausted(es);
        BroadcastAbort(exhausted.message());
        return exhausted;
      }
      ++stats_.rollbacks;
      lr_scale_ *= guard.lr_backoff;  // compounds across retries
      TCSS_LOG(Warning) << "coordinator: divergence at epoch " << epoch
                        << " (loss=" << es.TotalLoss()
                        << ", grad_norm=" << es.grad_norm
                        << "); rolling back to epoch " << last_good_epoch_
                        << " with lr_scale " << lr_scale_;
      DistMsg rollback;
      rollback.type = DistMsgType::kReduced;
      rollback.gen = gen_;
      rollback.epoch = epoch;
      rollback.action = kActionRollback;
      rollback.lr_scale = lr_scale_;
      for (int w = 0; w < world; ++w) {
        if (!SendTo(rank_sessions_[w], rollback)) {
          return Recover(rank_sessions_[w],
                         StrFormat("rank %d unreachable for rollback", w));
        }
      }
      epoch = last_good_epoch_ + 1;
      continue;
    }

    // Step. The pre-step state (what every worker snapshots before
    // applying this message) becomes the rollback target.
    last_good_epoch_ = epoch - 1;
    const double lr = ScheduledLearningRate(config_, epoch) * lr_scale_;
    const bool stop_requested =
        opts_.stop != nullptr && opts_.stop->load(std::memory_order_relaxed);
    const bool last = epoch == config_.epochs || stop_requested;
    const bool snapshot =
        last || (opts_.checkpoint_every > 0 &&
                 epoch % opts_.checkpoint_every == 0);
    DistMsg step;
    step.type = DistMsgType::kReduced;
    step.gen = gen_;
    step.epoch = epoch;
    step.action = kActionStep;
    step.flags = static_cast<uint8_t>((snapshot ? kFlagCheckpoint : 0) |
                                      (last ? kFlagLastEpoch : 0));
    step.lr = lr;
    step.lr_scale = lr_scale_;
    step.u2 = std::move(u2g);
    step.u3.assign(u3g.data(), u3g.data() + u3g.size());
    step.h = std::move(hg);
    for (int w = 0; w < world; ++w) {
      if (!SendTo(rank_sessions_[w], step)) {
        // A partial broadcast leaves workers at different epochs; the
        // recovery restart epoch is the newest *common* checkpoint, which
        // by construction predates the torn step on every rank.
        return Recover(rank_sessions_[w],
                       StrFormat("rank %d unreachable for the epoch %d step",
                                 w, epoch));
      }
    }
    ++stats_.epochs;
    if (opts_.epoch_callback) {
      es.lr = lr;
      es.seconds = static_cast<double>(NowMs() - epoch_start) * 1e-3;
      opts_.epoch_callback(es);
    }
    if (last) return Status::OK();
    ++epoch;
  }
}

Status DistCoordinator::GatherFinals(FactorModel* out) {
  const int world = opts_.num_workers;
  const size_t r = config_.rank;
  std::vector<DistMsg> finals(world);
  std::vector<bool> have(world);
  int got = 0;
  while (got < world) {
    const int64_t now = NowMs();
    for (int w = 0; w < world; ++w) {
      Session* session = FindSession(rank_sessions_[w]);
      if (session == nullptr) continue;
      const int64_t silent =
          now - session->last_rx_ms.load(std::memory_order_relaxed);
      if (silent > opts_.heartbeat_timeout_ms) {
        return Recover(rank_sessions_[w],
                       StrFormat("rank %d silent during the final gather", w));
      }
    }
    if (need_world_) return Status::OK();

    Event ev;
    if (!PopEvent(&ev, 50)) continue;
    if (ev.kind == Event::Kind::kAcceptFailed) return ev.error;
    if (ev.kind == Event::Kind::kDown) {
      Session* session = FindSession(ev.session_id);
      const bool ranked = session != nullptr && session->rank >= 0 &&
                          rank_sessions_[session->rank] == ev.session_id;
      if (!ranked) {
        RetireSession(ev.session_id);
        continue;
      }
      // The lost rank's kFinal may be gone with it, but its state is not:
      // the last epoch always snapshots, so recovery restarts the world at
      // config.epochs and every worker answers kStart with a fresh kFinal.
      return Recover(ev.session_id,
                     StrFormat("rank %d dropped before delivering its model",
                               session->rank));
    }
    if (ev.msg.type == DistMsgType::kHello) {
      return Recover(0, "unexpected hello during the final gather");
    }
    if (ev.msg.gen != gen_) continue;
    if (ev.msg.type == DistMsgType::kCkptAck) {
      ++stats_.ckpt_acks;
      continue;
    }
    if (ev.msg.type != DistMsgType::kFinal) continue;  // e.g. stale kGrad
    Session* session = FindSession(ev.session_id);
    if (session == nullptr || session->rank < 0 ||
        rank_sessions_[session->rank] != ev.session_id) {
      continue;
    }
    const int w = session->rank;
    if (ev.msg.u1.size() != part_.Count(w) * r ||
        ev.msg.u2.size() != dim_j_ * r || ev.msg.u3.size() != dim_k_ * r ||
        ev.msg.h.size() != r) {
      return Status::Internal(
          StrFormat("rank %d sent a final model of the wrong shape", w));
    }
    if (!have[w]) ++got;
    have[w] = true;
    finals[w] = std::move(ev.msg);
  }

  for (int w = 1; w < world; ++w) {
    if (!SameBits(finals[w].u2, finals[0].u2) ||
        !SameBits(finals[w].u3, finals[0].u3) ||
        !SameBits(finals[w].h, finals[0].h)) {
      BroadcastAbort("final replica mismatch");
      return Status::Internal(StrFormat(
          "final replicated factors of rank %d differ bitwise from rank 0",
          w));
    }
  }
  out->u1.Resize(dim_i_, r);
  for (int w = 0; w < world; ++w) {
    std::copy(finals[w].u1.begin(), finals[w].u1.end(),
              out->u1.row(part_.Begin(w)));
  }
  out->u2.Resize(dim_j_, r);
  std::copy(finals[0].u2.begin(), finals[0].u2.end(), out->u2.data());
  out->u3.Resize(dim_k_, r);
  std::copy(finals[0].u3.begin(), finals[0].u3.end(), out->u3.data());
  out->h = finals[0].h;
  return Status::OK();
}

void DistCoordinator::BroadcastAbort(const std::string& why) {
  DistMsg abort;
  abort.type = DistMsgType::kAbort;
  abort.gen = gen_;
  abort.text = why;
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }
  for (uint64_t id : ids) SendTo(id, abort);
}

void DistCoordinator::Teardown(bool aborting, const std::string& why) {
  if (torn_down_) return;
  torn_down_ = true;
  if (listener_ != nullptr) {
    if (aborting) {
      BroadcastAbort(why);
    } else {
      DistMsg bye;
      bye.type = DistMsgType::kShutdown;
      bye.gen = gen_;
      std::vector<uint64_t> ids;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [id, session] : sessions_) ids.push_back(id);
      }
      for (uint64_t id : ids) SendTo(id, bye);
    }
  }
  acceptor_stop_.store(true, std::memory_order_relaxed);
  if (acceptor_.joinable()) acceptor_.join();
  RetireAllSessions();
  if (listener_ != nullptr) listener_->Close();
}

Result<FactorModel> DistCoordinator::Run() {
  std::string problem = config_.Validate();
  if (!problem.empty()) return Status::InvalidArgument(problem);
  if (!ValidateDistConfig(config_, opts_.num_workers, &problem)) {
    return Status::InvalidArgument(problem);
  }
  fingerprint_ = DistFingerprint(config_, dim_i_, dim_j_, dim_k_,
                                 opts_.num_workers);
  auto listener = env_->NewListener(opts_.socket_path);
  if (!listener.ok()) return listener.status();
  listener_ = listener.MoveValue();
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  gen_ = 1;

  for (;;) {
    Status st = WaitForWorld();
    if (!st.ok()) {
      Teardown(true, st.message());
      return st;
    }
    DistMsg start;
    start.type = DistMsgType::kStart;
    start.gen = gen_;
    start.epoch = start_epoch_;
    bool lost = false;
    for (int w = 0; w < opts_.num_workers && !lost; ++w) {
      if (!SendTo(rank_sessions_[w], start)) {
        st = Recover(rank_sessions_[w],
                     StrFormat("rank %d unreachable at start", w));
        lost = true;
      }
    }
    if (lost) {
      if (!st.ok()) {
        Teardown(true, st.message());
        return st;
      }
      continue;
    }

    st = RunEpochs();
    if (!st.ok()) {
      Teardown(true, st.message());
      return st;
    }
    if (need_world_) continue;

    FactorModel model;
    st = GatherFinals(&model);
    if (!st.ok()) {
      Teardown(true, st.message());
      return st;
    }
    if (need_world_) continue;

    Teardown(false, "");
    return model;
  }
}

}  // namespace tcss
