#ifndef TCSS_SERVE_SERVER_H_
#define TCSS_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "serve/recommend_service.h"

namespace tcss {

/// Tuning knobs of the serving front-end. The defaults favor never
/// falling over: every queue is bounded, every wait has a timeout, and
/// overload turns into explicit SHED responses instead of latency.
struct ServerOptions {
  /// Worker threads for batch scoring (resizes the global deterministic
  /// ThreadPool); 0 keeps the pool as-is.
  int num_workers = 0;
  /// Bounded request queue between connection readers and the dispatcher.
  /// A full queue sheds (backpressure) — it never grows. At least 1.
  size_t queue_capacity = 256;
  /// Requests per BatchTopK pass (scored shard-parallel, one request per
  /// shard); at least 1.
  size_t max_batch = 32;
  /// Concurrent connections; over the limit, accepts are answered with a
  /// shed frame and closed. At least 1.
  size_t max_connections = 64;
  /// Granularity at which blocked reads/accepts re-check the stop flag;
  /// at least 1.
  int idle_tick_ms = 20;
  /// Slow-client guard: a response write that cannot progress within this
  /// budget drops the connection instead of stalling the dispatcher; at
  /// least 0.
  int write_timeout_ms = 2000;
  /// Deadline applied to requests that do not carry their own
  /// (deadline_ms=0 on the wire); 0 = no implicit deadline.
  double default_deadline_ms = 0.0;
  /// Hot-reload poll cadence: check the model file every N batches
  /// (0 = only the initial Init() poll).
  int poll_every_batches = 0;
  /// Streaming ingest handler for the `ingest` wire/text verb. Invoked on
  /// the dispatcher thread only — the same single-mutator discipline as
  /// BatchTopK, so the handler may touch serving state (the incremental
  /// fold-in layer) without locking. Returns the engine's monotone accept
  /// sequence number (echoed as `ingested seq=<n>`) or an error, sent
  /// back verbatim as an error frame. Null: every ingest request is
  /// answered with an error response.
  std::function<Result<uint64_t>(const ServeRequest&)> ingest_handler;
  /// Transport + filesystem source; null = Env::Default().
  /// FaultInjectionEnv here puts faults on the wire.
  Env* env = nullptr;
  /// Registry for every serve.* count, gauge and histogram of the
  /// server, and the source of stats(); null = the process-global
  /// registry.
  obs::MetricRegistry* metrics = nullptr;
};

/// The server's counts, read from its metric registry (field: metric).
/// The serving invariant in numbers: frames_received == responses_ok +
/// responses_ingested + responses_error + shed_total() once the server
/// has drained. On the process-global registry the counts sum over every
/// server in the process, and the obs kill switch freezes them.
struct ServerStats {
  /// serve.connections minus serve.shed.overloaded.
  uint64_t connections_accepted = 0;
  /// Over max_connections: serve.shed.overloaded.
  uint64_t connections_rejected = 0;
  uint64_t frames_received = 0;     ///< serve.frames.received (well-formed)
  uint64_t bad_frames = 0;          ///< serve.frames.bad (torn/garbage/CRC)
  uint64_t responses_ok = 0;        ///< serve.responses.ok (incl. degraded)
  uint64_t responses_ingested = 0;  ///< serve.responses.ingested
  uint64_t responses_error = 0;     ///< serve.responses.error
  uint64_t sheds[kNumShedReasons] = {0, 0, 0, 0, 0};  ///< serve.shed.<reason>
  uint64_t batches = 0;             ///< serve.batch_size sample count
  uint64_t write_failures = 0;      ///< serve.write_failures (dead clients)

  /// Sheds that answered a frame: every reason but kOverloaded, whose
  /// sheds answer connections at accept.
  uint64_t shed_total() const {
    uint64_t s = 0;
    for (int r = 0; r < kNumShedReasons; ++r) {
      if (r != static_cast<int>(ShedReason::kOverloaded)) s += sheds[r];
    }
    return s;
  }

  std::string ToString() const;
};

/// Concurrent, overload-safe front-end over one RecommendService.
///
/// Threads: an acceptor (owns the listener), one reader per connection
/// (frame decode, request parse, admission control), and a dispatcher
/// that drains the bounded queue in batches through
/// RecommendService::BatchTopK — the only thread that touches the
/// service's mutable state, so the service itself needs no locking.
///
/// Admission control: each request's effective deadline is compared
/// against predicted completion time
///
///     predicted = queue_depth / batch_fill * batch_ms   (queue wait)
///               + tier_ewma(planned tier)               (service time)
///
/// where batch_ms/batch_fill are EWMAs the dispatcher publishes after
/// every batch and tier_ewma is the service's own per-tier latency EWMA
/// (RecommendService::TierLatencyEwmaMs) of the tier PlanTier predicts —
/// deadline budget included, so a request the dispatcher would degrade is
/// predicted at the cheap tier's latency, and a tier that has never
/// answered predicts 0, as the budget reads it. A request predicted to
/// miss its deadline is shed immediately with an explicit response —
/// rejecting in microseconds what would otherwise time out in
/// milliseconds. Requests whose deadline expires while queued are shed at
/// dequeue; survivors carry their *remaining* budget into the service,
/// whose EWMA check can still degrade them to a cheaper tier mid-flight.
///
/// Graceful drain: RequestStop() (async-signal-safe to trigger via a
/// flag; see `tcss serve --listen`) stops the acceptor, lets readers
/// finish their current frame, then the dispatcher finishes or sheds
/// everything still queued — every accepted request gets exactly one
/// response before Wait() returns.
class Server {
 public:
  /// `service` must be Init()ed and outlive the server. The server is the
  /// sole caller of the service's mutating methods once started.
  Server(RecommendService* service, std::string listen_path,
         const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the acceptor + dispatcher.
  /// InvalidArgument for options outside their documented ranges.
  Status Start();

  /// Initiates drain; returns immediately. Safe from any thread.
  void RequestStop();

  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  /// Joins everything after a RequestStop(), completing the drain. Every
  /// accepted request has been answered (ok, error, or shed) when this
  /// returns.
  Status Wait();

  /// RequestStop() + Wait().
  Status Stop();

  ServerStats stats() const;

  const std::string& address() const { return listen_path_; }

 private:
  /// One accepted connection. Reader thread and dispatcher both write
  /// response frames, serialized by write_mu; inflight tracks queued
  /// requests so reaping never closes a connection the dispatcher still
  /// owes a response.
  struct Session {
    std::unique_ptr<Conn> conn;
    std::mutex write_mu;
    std::thread reader;
    std::atomic<bool> done{false};
    std::atomic<bool> dead{false};  ///< write failed; skip further writes
    std::atomic<int> inflight{0};
  };

  /// A queued, admitted request.
  struct Pending {
    std::shared_ptr<Session> session;
    uint64_t frame_id = 0;
    ServeRequest req;
    double deadline_ms = 0.0;  ///< effective; 0 = none
    Stopwatch age;             ///< started at admission
  };

  void AcceptorLoop();
  void ReaderLoop(const std::shared_ptr<Session>& session);
  void DispatcherLoop();

  /// Serialized, timeout-guarded response write; counts failures and
  /// marks the session dead so later writes are skipped cheaply.
  void WriteResponse(Session* session, uint64_t frame_id,
                     const WireResponse& resp);
  void Shed(Session* session, uint64_t frame_id, ShedReason reason);

  /// Admission decision for one parsed request; returns true when
  /// enqueued, false when shed (the shed response has been written).
  bool Admit(const std::shared_ptr<Session>& session, uint64_t frame_id,
             const ServeRequest& req);

  void ReapSessions(bool all);

  RecommendService* service_;
  const std::string listen_path_;
  const ServerOptions opts_;
  Env* env_;
  obs::MetricRegistry* metrics_;

  std::unique_ptr<Listener> listener_;
  std::thread acceptor_;
  std::thread dispatcher_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> readers_done_{false};
  bool started_ = false;
  bool joined_ = false;

  std::mutex sessions_mu_;
  std::list<std::shared_ptr<Session>> sessions_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;

  // Admission predictors, published by the dispatcher and read by every
  // connection thread.
  std::atomic<size_t> queue_depth_{0};
  std::atomic<double> batch_ms_ewma_{0.0};
  std::atomic<double> batch_fill_ewma_{1.0};

  // Telemetry handles (serve.* metrics), resolved once in the
  // constructor; stats() reads every count back from them.
  obs::Counter* shed_counters_[kNumShedReasons] = {};
  obs::Counter* connections_counter_ = nullptr;
  obs::Counter* frames_counter_ = nullptr;
  obs::Counter* bad_frames_counter_ = nullptr;
  obs::Counter* ok_counter_ = nullptr;
  obs::Counter* ingested_counter_ = nullptr;
  obs::Counter* error_counter_ = nullptr;
  obs::Counter* write_failures_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Histogram* batch_ms_hist_ = nullptr;
  obs::Histogram* queue_wait_ms_hist_ = nullptr;
};

}  // namespace tcss

#endif  // TCSS_SERVE_SERVER_H_
