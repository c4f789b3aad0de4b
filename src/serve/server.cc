#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace tcss {
namespace {

/// Write budget for the one shed frame sent to an over-limit connection.
/// That client is being dropped anyway, so the frame is best-effort: a
/// burst of rejected peers that never read must not stall the acceptor
/// for write_timeout_ms each, delaying accepts for legitimate clients.
constexpr int kRejectWriteTimeoutMs = 10;

}  // namespace

std::string ServerStats::ToString() const {
  std::string s = StrFormat(
      "conns=%llu rejected=%llu frames=%llu bad_frames=%llu ok=%llu "
      "ingested=%llu error=%llu shed=%llu batches=%llu write_failures=%llu",
      static_cast<unsigned long long>(connections_accepted),
      static_cast<unsigned long long>(connections_rejected),
      static_cast<unsigned long long>(frames_received),
      static_cast<unsigned long long>(bad_frames),
      static_cast<unsigned long long>(responses_ok),
      static_cast<unsigned long long>(responses_ingested),
      static_cast<unsigned long long>(responses_error),
      static_cast<unsigned long long>(shed_total()),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(write_failures));
  for (int r = 0; r < kNumShedReasons; ++r) {
    if (sheds[r] > 0) {
      s += StrFormat(" shed.%s=%llu", ShedReasonName(static_cast<ShedReason>(r)),
                     static_cast<unsigned long long>(sheds[r]));
    }
  }
  return s;
}

Server::Server(RecommendService* service, std::string listen_path,
               const ServerOptions& opts)
    : service_(service),
      listen_path_(std::move(listen_path)),
      opts_(opts),
      env_(opts.env != nullptr ? opts.env : Env::Default()),
      metrics_(opts.metrics != nullptr ? opts.metrics
                                       : obs::MetricRegistry::Global()) {
  for (int r = 0; r < kNumShedReasons; ++r) {
    shed_counters_[r] = metrics_->GetCounter(
        StrFormat("serve.shed.%s", ShedReasonName(static_cast<ShedReason>(r))));
  }
  connections_counter_ = metrics_->GetCounter("serve.connections");
  frames_counter_ = metrics_->GetCounter("serve.frames.received");
  bad_frames_counter_ = metrics_->GetCounter("serve.frames.bad");
  ok_counter_ = metrics_->GetCounter("serve.responses.ok");
  ingested_counter_ = metrics_->GetCounter("serve.responses.ingested");
  error_counter_ = metrics_->GetCounter("serve.responses.error");
  write_failures_counter_ = metrics_->GetCounter("serve.write_failures");
  queue_depth_gauge_ = metrics_->GetGauge("serve.queue_depth");
  batch_size_hist_ = metrics_->GetHistogram("serve.batch_size");
  batch_ms_hist_ = metrics_->GetHistogram("serve.batch_ms");
  queue_wait_ms_hist_ = metrics_->GetHistogram("serve.queue_wait_ms");
}

Server::~Server() {
  if (started_ && !joined_) Stop();
}

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  // A zero batch would dispatch empty batches forever (nothing answered,
  // Stop() never returns); a zero queue sheds every request and a zero
  // connection limit every connection; a non-positive tick or a negative
  // write timeout turns the bounded waits into spins or unbounded blocks.
  if (opts_.max_batch == 0 || opts_.queue_capacity == 0 ||
      opts_.max_connections == 0 || opts_.idle_tick_ms <= 0 ||
      opts_.write_timeout_ms < 0) {
    return Status::InvalidArgument(
        "server options need max_batch >= 1, queue_capacity >= 1, "
        "max_connections >= 1, idle_tick_ms >= 1 and write_timeout_ms >= 0");
  }
  if (opts_.num_workers > 0) SetGlobalThreads(opts_.num_workers);

  auto listener = env_->NewListener(listen_path_);
  if (!listener.ok()) return listener.status();
  listener_ = listener.MoveValue();

  started_ = true;
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  return Status::OK();
}

void Server::RequestStop() {
  stop_.store(true, std::memory_order_relaxed);
  queue_cv_.notify_all();
}

Status Server::Wait() {
  if (!started_) return Status::InvalidArgument("server not started");
  if (joined_) return Status::OK();
  // Drain choreography: stop the intake front to back. Once the acceptor
  // and every reader have exited, no new requests can appear, so the
  // dispatcher can finish the queue and exit; only then are connections
  // closed (the dispatcher writes its final responses through them).
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& s : sessions_) {
      if (s->reader.joinable()) s->reader.join();
    }
  }
  readers_done_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  ReapSessions(/*all=*/true);
  if (listener_ != nullptr) listener_->Close();
  joined_ = true;
  return Status::OK();
}

Status Server::Stop() {
  RequestStop();
  return Wait();
}

ServerStats Server::stats() const {
  ServerStats s;
  for (int r = 0; r < kNumShedReasons; ++r) {
    s.sheds[r] = shed_counters_[r]->Value();
  }
  // A rejected connection is counted as a connection before it is shed,
  // so reading the sheds first keeps the difference from underflowing.
  s.connections_rejected = s.sheds[static_cast<int>(ShedReason::kOverloaded)];
  s.connections_accepted =
      connections_counter_->Value() - s.connections_rejected;
  s.frames_received = frames_counter_->Value();
  s.bad_frames = bad_frames_counter_->Value();
  s.responses_ok = ok_counter_->Value();
  s.responses_ingested = ingested_counter_->Value();
  s.responses_error = error_counter_->Value();
  s.batches = batch_size_hist_->Snapshot().count;
  s.write_failures = write_failures_counter_->Value();
  return s;
}

void Server::AcceptorLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto accepted = listener_->Accept(opts_.idle_tick_ms);
    if (!accepted.ok()) break;  // listener gone; drain proceeds
    std::unique_ptr<Conn> conn = accepted.MoveValue();
    if (conn == nullptr) {
      ReapSessions(/*all=*/false);  // idle tick
      continue;
    }
    connections_counter_->Increment();
    size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      active = sessions_.size();
    }
    if (active >= opts_.max_connections) {
      // Over the connection limit: answer with one explicit shed frame so
      // the client knows it was load, not a crash, then close.
      shed_counters_[static_cast<int>(ShedReason::kOverloaded)]->Increment();
      WireResponse resp;
      resp.kind = WireResponse::Kind::kShed;
      resp.shed = ShedReason::kOverloaded;
      Status ignored =
          conn->Write(EncodeResponseFrame({0, EncodeResponsePayload(resp)}),
                      std::min(opts_.write_timeout_ms, kRejectWriteTimeoutMs));
      (void)ignored;
      conn->Close();
      continue;
    }
    auto session = std::make_shared<Session>();
    session->conn = std::move(conn);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(session);
    }
    session->reader = std::thread([this, session] { ReaderLoop(session); });
    ReapSessions(/*all=*/false);
  }
}

void Server::ReaderLoop(const std::shared_ptr<Session>& session) {
  FrameReader reader;
  for (;;) {
    Frame frame;
    auto ev = reader.Next(session->conn.get(), kRequestMagic, &frame, &stop_,
                          opts_.idle_tick_ms);
    if (!ev.ok()) {
      // Malformed frame or transport fault: the stream cannot be
      // resynchronized. Answer once so a live client learns why, close.
      bad_frames_counter_->Increment();
      WireResponse resp;
      resp.kind = WireResponse::Kind::kError;
      resp.message = ev.status().message();
      WriteResponse(session.get(), frame.id, resp);
      break;
    }
    if (ev.value() != FrameReader::Event::kFrame) break;  // EOF or stop
    frames_counter_->Increment();
    auto req = ParseRequestLine(frame.payload);
    if (!req.ok()) {
      WireResponse resp;
      resp.kind = WireResponse::Kind::kError;
      resp.message = req.status().message();
      WriteResponse(session.get(), frame.id, resp);
      error_counter_->Increment();
      continue;  // frame was well-formed; the stream is still in sync
    }
    Admit(session, frame.id, req.value());
  }
  session->done.store(true, std::memory_order_release);
}

bool Server::Admit(const std::shared_ptr<Session>& session, uint64_t frame_id,
                   const ServeRequest& req) {
  if (stop_.load(std::memory_order_relaxed)) {
    Shed(session.get(), frame_id, ShedReason::kDraining);
    return false;
  }
  ServeRequest admitted = req;
  if (admitted.verb == ServeVerb::kIngest) {
    // Ingests skip deadline admission: they cost microseconds (one
    // validated append + a rank-1 fold-in update), so the tier-latency
    // predictor has nothing meaningful to say about them. Backpressure
    // still applies below — a full queue sheds ingests like any request.
    admitted.deadline_ms = 0.0;
  } else if (admitted.deadline_ms <= 0.0) {
    admitted.deadline_ms = opts_.default_deadline_ms;
  }
  if (admitted.deadline_ms > 0.0) {
    // Predict completion time as queue wait (queued requests over the
    // recent batch fill, times the recent batch latency) plus the planned
    // tier's recent service time, 0 for a tier that has never answered as
    // in the service's own deadline budget. Predicted misses are shed now
    // — in microseconds — instead of timing out in the queue.
    const double batch_ms = batch_ms_ewma_.load(std::memory_order_relaxed);
    const double fill = std::max(
        1.0, batch_fill_ewma_.load(std::memory_order_relaxed));
    const double depth =
        static_cast<double>(queue_depth_.load(std::memory_order_relaxed));
    const ServeTier tier = service_->PlanTier(admitted);
    const double predicted =
        depth / fill * batch_ms + service_->TierLatencyEwmaMs(tier);
    if (predicted > admitted.deadline_ms) {
      Shed(session.get(), frame_id, ShedReason::kDeadline);
      return false;
    }
  }
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() < opts_.queue_capacity) {
      Pending p;
      p.session = session;
      p.frame_id = frame_id;
      p.req = std::move(admitted);
      p.deadline_ms = p.req.deadline_ms;
      session->inflight.fetch_add(1, std::memory_order_acq_rel);
      queue_.push_back(std::move(p));
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      enqueued = true;
    }
  }
  if (!enqueued) {
    // Queue full. The shed response is written outside queue_mu_: the
    // write can stall up to write_timeout_ms on a slow client, and
    // holding the lock that long would freeze the dispatcher and every
    // other reader — the exact overload this path exists to survive.
    Shed(session.get(), frame_id, ShedReason::kQueueFull);
    return false;
  }
  queue_cv_.notify_one();
  return true;
}

void Server::DispatcherLoop() {
  int batches_since_poll = 0;
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_for(
          lock, std::chrono::milliseconds(opts_.idle_tick_ms), [this] {
            return !queue_.empty() || stop_.load(std::memory_order_relaxed);
          });
      if (queue_.empty()) {
        if (stop_.load(std::memory_order_relaxed) &&
            readers_done_.load(std::memory_order_acquire)) {
          break;  // drained: nothing queued and nothing can arrive
        }
        continue;
      }
      const size_t take = std::min(opts_.max_batch, queue_.size());
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }

    if (opts_.poll_every_batches > 0 &&
        ++batches_since_poll >= opts_.poll_every_batches) {
      batches_since_poll = 0;
      service_->PollModel();
    }

    // Shed requests whose deadline elapsed while queued; survivors carry
    // their remaining budget so the service can still degrade them.
    std::vector<size_t> live;
    std::vector<ServeRequest> reqs;
    live.reserve(batch.size());
    reqs.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Pending& p = batch[i];
      if (p.req.verb == ServeVerb::kIngest) {
        // Ingest verbs run serially here, before this batch's scoring
        // pass — the dispatcher is the single mutator of serving state,
        // so the handler may update the incremental fold-in layer (and
        // trigger a rollover or refinement publish) without locks, and
        // queries batched behind an ingest already observe it.
        queue_wait_ms_hist_->Record(p.age.ElapsedMillis());
        WireResponse resp;
        if (opts_.ingest_handler != nullptr) {
          auto seq = opts_.ingest_handler(p.req);
          if (seq.ok()) {
            resp.kind = WireResponse::Kind::kIngested;
            resp.seq = seq.value();
            ingested_counter_->Increment();
          } else {
            resp.kind = WireResponse::Kind::kError;
            resp.message = seq.status().message();
            error_counter_->Increment();
          }
        } else {
          resp.kind = WireResponse::Kind::kError;
          resp.message = "ingest not enabled on this server";
          error_counter_->Increment();
        }
        WriteResponse(p.session.get(), p.frame_id, resp);
        p.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
        p.session.reset();
        continue;
      }
      if (p.deadline_ms > 0.0) {
        const double waited = p.age.ElapsedMillis();
        queue_wait_ms_hist_->Record(waited);
        const double remaining = p.deadline_ms - waited;
        if (remaining <= 0.0) {
          Shed(p.session.get(), p.frame_id, ShedReason::kExpired);
          p.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
          p.session.reset();
          continue;
        }
        p.req.deadline_ms = remaining;
      } else {
        queue_wait_ms_hist_->Record(p.age.ElapsedMillis());
      }
      live.push_back(i);
      reqs.push_back(p.req);
    }

    if (!reqs.empty()) {
      Stopwatch batch_clock;
      std::vector<RecommendService::Response> resps =
          service_->BatchTopK(reqs);
      const double batch_ms = batch_clock.ElapsedMillis();
      batch_size_hist_->Record(static_cast<double>(reqs.size()));
      batch_ms_hist_->Record(batch_ms);

      // Publish the admission predictors for the connection threads (the
      // service has already updated its per-tier latency EWMAs).
      const double a = kLatencyEwmaAlpha;
      const double old_ms = batch_ms_ewma_.load(std::memory_order_relaxed);
      batch_ms_ewma_.store(old_ms == 0.0 ? batch_ms
                                         : (1 - a) * old_ms + a * batch_ms,
                           std::memory_order_relaxed);
      const double old_fill =
          batch_fill_ewma_.load(std::memory_order_relaxed);
      batch_fill_ewma_.store(
          (1 - a) * old_fill + a * static_cast<double>(reqs.size()),
          std::memory_order_relaxed);

      for (size_t b = 0; b < live.size(); ++b) {
        Pending& p = batch[live[b]];
        WireResponse resp;
        resp.kind = WireResponse::Kind::kOk;
        resp.tier = resps[b].tier;
        resp.latency_ms = resps[b].latency_ms;
        resp.recs = std::move(resps[b].recs);
        WriteResponse(p.session.get(), p.frame_id, resp);
        ok_counter_->Increment();
        p.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
        p.session.reset();
      }
    }
  }
}

void Server::WriteResponse(Session* session, uint64_t frame_id,
                           const WireResponse& resp) {
  if (session->dead.load(std::memory_order_relaxed)) {
    write_failures_counter_->Increment();
    return;
  }
  const std::string frame =
      EncodeResponseFrame({frame_id, EncodeResponsePayload(resp)});
  std::lock_guard<std::mutex> lock(session->write_mu);
  Status st = session->conn->Write(frame, opts_.write_timeout_ms);
  if (!st.ok()) {
    // Slow or vanished client. Mark the session dead so the dispatcher
    // never stalls on it again; the reader will see EOF/error and exit.
    session->dead.store(true, std::memory_order_relaxed);
    write_failures_counter_->Increment();
  }
}

void Server::Shed(Session* session, uint64_t frame_id, ShedReason reason) {
  shed_counters_[static_cast<int>(reason)]->Increment();
  WireResponse resp;
  resp.kind = WireResponse::Kind::kShed;
  resp.shed = reason;
  WriteResponse(session, frame_id, resp);
}

void Server::ReapSessions(bool all) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session& s = **it;
    const bool reapable =
        all || (s.done.load(std::memory_order_acquire) &&
                s.inflight.load(std::memory_order_acquire) == 0);
    if (reapable) {
      if (s.reader.joinable()) s.reader.join();
      s.conn->Close();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace tcss
