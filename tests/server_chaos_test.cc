// Chaos harness for the serving front-end (src/serve/server.cc). The one
// invariant every scenario asserts: an accepted request (a well-formed
// request frame the server read) gets exactly one well-formed response —
// ok, degraded, error, or an explicit shed — and the server never
// crashes, leaks a connection, or deadlocks. Scenarios: overload storms
// against a tiny queue, torn/truncated/garbage frames, wire faults
// injected through FaultInjectionEnv, hot reloads mid-storm, graceful
// drain under load, a deadline property at 1/2/8 workers and deadline
// admission below a warm model tier's latency. The soak scenario scales
// with TCSS_SERVER_SOAK (tools/check.sh sets 10000 for the TSan stage).
// Each world counts into its own metric registry, which
// is the server's only ledger: after every drain each ServerStats field
// must equal the counter it names.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/fault_env.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/model_io.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"
#include "serve/server.h"

namespace tcss {
namespace {

// --- fixtures (the serve_test.cc tiny world) ---------------------------

// 4 users, 5 POIs, monthly bins; user 3 is unseen by a 3-row model and
// serves from fold-in.
Dataset TinyDataset() {
  std::vector<Poi> pois(5);
  for (int j = 0; j < 5; ++j) {
    pois[j] = {{30.0 + j, -80.0 + j}, PoiCategory::kFood};
  }
  SocialGraph social(4);
  EXPECT_TRUE(social.AddEdge(0, 1).ok());
  EXPECT_TRUE(social.Finalize().ok());
  Dataset data(4, std::move(pois), std::move(social));
  const int64_t jan = 1577836800;
  const int64_t feb = 1580515200;
  EXPECT_TRUE(data.AddCheckIn(0, 0, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(0, 1, feb).ok());
  EXPECT_TRUE(data.AddCheckIn(1, 2, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(2, 3, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(3, 1, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(3, 4, feb).ok());
  return data;
}

FactorModel ConstantModel(size_t I, size_t J, size_t K, double level) {
  FactorModel m;
  const size_t r = 2;
  m.u1 = Matrix(I, r);
  m.u2 = Matrix(J, r);
  m.u3 = Matrix(K, r);
  m.u1.Fill(1.0);
  m.u2.Fill(1.0);
  m.u3.Fill(1.0);
  m.h.assign(r, level / static_cast<double>(r));
  return m;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Everything a server scenario needs, torn down in order. The registry
// outlives the objects that count into it.
struct World {
  obs::MetricRegistry metrics;
  Dataset data;
  std::string model_path;
  std::string socket_path;
  std::unique_ptr<ModelWatcher> watcher;
  std::unique_ptr<RecommendService> service;
  std::unique_ptr<Server> server;

  Env* env() const { return server_env; }
  Env* server_env = nullptr;
};

// Builds a live world: saved constant model, watcher, Init()ed service,
// started server, all counting into the world's registry. `env` faults the
// wire when it is a FaultInjectionEnv.
std::unique_ptr<World> StartWorld(const std::string& tag,
                                  const ServerOptions& base_opts,
                                  Env* env = nullptr) {
  auto w = std::make_unique<World>();
  w->data = TinyDataset();
  w->model_path = TempPath(tag + ".model");
  w->socket_path = TempPath(tag + ".sock");
  w->server_env = env != nullptr ? env : Env::Default();
  EXPECT_TRUE(SaveFactorModel(ConstantModel(3, 5, 12, 1.0), w->model_path)
                  .ok());
  ModelWatcher::Options wopts;
  wopts.num_users = w->data.num_users();
  wopts.num_pois = w->data.num_pois();
  wopts.num_bins = 12;
  wopts.metrics = &w->metrics;
  w->watcher = std::make_unique<ModelWatcher>(w->model_path, wopts);
  RecommendService::Options svc_opts;
  svc_opts.metrics = &w->metrics;
  w->service = std::make_unique<RecommendService>(
      &w->data, TimeGranularity::kMonthOfYear, w->watcher.get(), svc_opts);
  EXPECT_TRUE(w->service->Init().ok());
  ServerOptions opts = base_opts;
  opts.env = w->server_env;
  opts.metrics = &w->metrics;
  w->server = std::make_unique<Server>(w->service.get(), w->socket_path,
                                       opts);
  EXPECT_TRUE(w->server->Start().ok());
  return w;
}

// --- a well-behaved pipelined client -----------------------------------

struct ClientOutcome {
  std::unordered_map<uint64_t, WireResponse> responses;
  size_t duplicates = 0;   ///< a second response for an already-seen id
  size_t malformed = 0;    ///< payload ParseResponsePayload rejected
  Status transport = Status::OK();  ///< first wire error, if any
};

// Sends `requests` pipelined (a writer loop) while a reader thread
// collects responses by id; stops once every id is answered, the server
// closes, or `deadline_s` passes (a watchdog thread trips the reader's
// stop flag — FrameReader::Next ticks forever on a silent connection
// otherwise). Requests and responses deliberately overlap in flight —
// that is the contract the id field exists for.
ClientOutcome RunClient(Env* env, const std::string& path,
                        const std::vector<Frame>& requests,
                        double deadline_s = 60.0, int write_gap_ms = 0) {
  ClientOutcome out;
  auto conn = env->Connect(path);
  if (!conn.ok()) {
    out.transport = conn.status();
    return out;
  }
  Conn* c = conn.value().get();
  std::atomic<bool> done_reading{false};
  std::atomic<bool> give_up{false};
  std::thread watchdog([&] {
    Stopwatch clock;
    while (!done_reading.load() && clock.ElapsedSeconds() < deadline_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    give_up.store(true);
  });
  std::thread reader([&] {
    FrameReader fr;
    while (out.responses.size() < requests.size()) {
      Frame f;
      auto ev = fr.Next(c, kResponseMagic, &f, &give_up, 50);
      if (!ev.ok()) {
        out.transport = ev.status();
        break;
      }
      if (ev.value() == FrameReader::Event::kStopped) {
        if (out.transport.ok()) {
          out.transport = Status::IOError("client read deadline exceeded");
        }
        break;
      }
      if (ev.value() != FrameReader::Event::kFrame) break;  // EOF
      auto parsed = ParseResponsePayload(f.payload);
      if (!parsed.ok()) {
        ++out.malformed;
        continue;
      }
      if (!out.responses.emplace(f.id, parsed.value()).second) {
        ++out.duplicates;
      }
    }
    done_reading.store(true);
  });
  Status write_err;  // merged after join: the reader owns out.* until then
  for (const Frame& f : requests) {
    if (done_reading.load()) break;  // connection already dead
    write_err = c->Write(EncodeRequestFrame(f), /*timeout_ms=*/5000);
    if (!write_err.ok()) break;
    if (write_gap_ms > 0) {
      // Throttled mode: each frame arrives as its own server read op (the
      // wire-fault sweep needs the op counter to advance per frame).
      std::this_thread::sleep_for(std::chrono::milliseconds(write_gap_ms));
    }
  }
  reader.join();
  watchdog.join();
  c->Close();
  if (!write_err.ok() && out.transport.ok()) out.transport = write_err;
  return out;
}

Frame TopkFrame(uint64_t id, uint32_t user, uint32_t time_bin, size_t k,
                double deadline_ms = 0.0) {
  std::string payload = StrFormat("topk %u %u k=%zu", user, time_bin, k);
  if (deadline_ms > 0.0) {
    payload += StrFormat(" deadline_ms=%.6f", deadline_ms);
  }
  return {id, payload};
}

// Asserts the serving invariant from a client's point of view: every
// request answered exactly once, every answer one of the three shapes.
void ExpectAllAnswered(const ClientOutcome& out,
                       const std::vector<Frame>& requests) {
  EXPECT_TRUE(out.transport.ok()) << out.transport.ToString();
  EXPECT_EQ(out.duplicates, 0u);
  EXPECT_EQ(out.malformed, 0u);
  ASSERT_EQ(out.responses.size(), requests.size());
  for (const Frame& f : requests) {
    ASSERT_TRUE(out.responses.count(f.id)) << "id " << f.id << " unanswered";
  }
}

// One ledger: every ServerStats field is the registry count it names.
void ExpectStatsReadTheRegistry(const ServerStats& s,
                                obs::MetricRegistry* m) {
  auto count = [m](const std::string& name) {
    return m->GetCounter(name)->Value();
  };
  const uint64_t overloaded = count("serve.shed.overloaded");
  EXPECT_EQ(s.connections_rejected, overloaded);
  EXPECT_EQ(s.sheds[static_cast<int>(ShedReason::kOverloaded)], overloaded);
  EXPECT_EQ(s.connections_accepted, count("serve.connections") - overloaded);
  EXPECT_EQ(s.frames_received, count("serve.frames.received"));
  EXPECT_EQ(s.bad_frames, count("serve.frames.bad"));
  EXPECT_EQ(s.responses_ok, count("serve.responses.ok"));
  EXPECT_EQ(s.responses_ingested, count("serve.responses.ingested"));
  EXPECT_EQ(s.responses_error, count("serve.responses.error"));
  for (int r = 0; r < kNumShedReasons; ++r) {
    EXPECT_EQ(s.sheds[r], count(std::string("serve.shed.") +
                                ShedReasonName(static_cast<ShedReason>(r))));
  }
  EXPECT_EQ(s.batches, m->GetHistogram("serve.batch_size")->Snapshot().count);
  EXPECT_EQ(s.write_failures, count("serve.write_failures"));
}

// Server-side ledger of a drained world: accepted == answered, exactly
// (overload sheds answer *connections*, not frames, so shed_total()
// leaves them out), read from the world's registry.
void ExpectServerLedgerBalanced(World* w) {
  const ServerStats s = w->server->stats();
  EXPECT_EQ(s.frames_received, s.responses_ok + s.responses_ingested +
                                   s.responses_error + s.shed_total())
      << s.ToString();
  ExpectStatsReadTheRegistry(s, &w->metrics);
}

// --- scenarios ---------------------------------------------------------

TEST(ServerChaosTest, RoundTripAcrossTiers) {
  auto w = StartWorld("rt", ServerOptions{});
  std::vector<Frame> reqs = {
      TopkFrame(1, 0, 0, 3),   // trained user: model tier
      TopkFrame(2, 3, 0, 3),   // unseen user: fold-in tier
      TopkFrame(3, 99, 0, 3),  // bad user: degrades to popularity
  };
  ClientOutcome out = RunClient(w->env(), w->socket_path, reqs);
  ExpectAllAnswered(out, reqs);
  EXPECT_EQ(out.responses.at(1).kind, WireResponse::Kind::kOk);
  EXPECT_EQ(out.responses.at(1).tier, ServeTier::kModel);
  EXPECT_EQ(out.responses.at(1).recs.size(), 3u);
  EXPECT_EQ(out.responses.at(2).tier, ServeTier::kFoldIn);
  EXPECT_EQ(out.responses.at(3).tier, ServeTier::kPopularity);
  EXPECT_TRUE(w->server->Stop().ok());
  ExpectServerLedgerBalanced(w.get());
}

TEST(ServerChaosTest, StartRejectsOptionsThatCannotServe) {
  // max_batch = 0 used to dispatch empty batches forever: no request was
  // ever answered and Stop() never returned. A non-positive idle tick or
  // a negative write timeout breaks the bounded waits the same way, and a
  // zero queue or connection limit sheds every request or connection.
  Dataset data = TinyDataset();
  const std::string model_path = TempPath("badopts.model");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(3, 5, 12, 1.0), model_path).ok());
  ModelWatcher::Options wopts;
  wopts.num_users = data.num_users();
  wopts.num_pois = data.num_pois();
  wopts.num_bins = 12;
  ModelWatcher watcher(model_path, wopts);
  RecommendService service(&data, TimeGranularity::kMonthOfYear, &watcher,
                           RecommendService::Options());
  ASSERT_TRUE(service.Init().ok());
  for (int bad = 0; bad < 5; ++bad) {
    ServerOptions opts;
    if (bad == 0) opts.max_batch = 0;
    if (bad == 1) opts.idle_tick_ms = 0;
    if (bad == 2) opts.write_timeout_ms = -1;
    if (bad == 3) opts.queue_capacity = 0;
    if (bad == 4) opts.max_connections = 0;
    Server server(&service, TempPath("badopts.sock"), opts);
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument)
        << "case " << bad;
  }
}

TEST(ServerChaosTest, UnparseablePayloadGetsErrorResponseStreamSurvives) {
  auto w = StartWorld("badpayload", ServerOptions{});
  std::vector<Frame> reqs = {
      TopkFrame(1, 0, 0, 2),
      {2, "topk not-a-number 0"},  // well-formed frame, bad payload
      TopkFrame(3, 1, 0, 2),
  };
  ClientOutcome out = RunClient(w->env(), w->socket_path, reqs);
  ExpectAllAnswered(out, reqs);
  EXPECT_EQ(out.responses.at(1).kind, WireResponse::Kind::kOk);
  EXPECT_EQ(out.responses.at(2).kind, WireResponse::Kind::kError);
  EXPECT_EQ(out.responses.at(3).kind, WireResponse::Kind::kOk);
  EXPECT_TRUE(w->server->Stop().ok());
  EXPECT_EQ(w->server->stats().responses_error, 1u);
  ExpectServerLedgerBalanced(w.get());
}

// Garbage, torn, truncated and bit-flipped frames: the server answers at
// most once (an error frame), closes that connection, and keeps serving
// fresh connections.
TEST(ServerChaosTest, MalformedFramesNeverKillTheServer) {
  auto w = StartWorld("malformed", ServerOptions{});
  const std::string good = EncodeRequestFrame(TopkFrame(7, 0, 0, 2));

  std::vector<std::string> attacks;
  attacks.push_back("GET / HTTP/1.1\r\n\r\n");        // wrong protocol
  attacks.push_back(std::string(64, '\0'));           // zero noise
  attacks.push_back(good.substr(0, good.size() / 2)); // torn frame
  for (size_t flip : {0uL, 5uL, 13uL, 20uL, good.size() - 1}) {
    std::string bad = good;
    bad[flip] = static_cast<char>(bad[flip] ^ 0x40);  // magic/id/len/crc
    attacks.push_back(bad);
  }
  {
    // Absurd length field: header claims 16 MiB.
    std::string bad = good;
    bad[12] = 0;
    bad[13] = 0;
    bad[14] = 0;
    bad[15] = 1;
    attacks.push_back(bad);
  }

  for (const std::string& attack : attacks) {
    auto conn = w->env()->Connect(w->socket_path);
    ASSERT_TRUE(conn.ok());
    // A torn write or an error-then-close from the server are both fine;
    // what is not fine is a crash or a hang. Attacks the decoder must
    // wait out (a torn frame looks like a slow client) end at the
    // watchdog, not at an unbounded read.
    Status ignored = conn.value()->Write(attack, 2000);
    (void)ignored;
    std::atomic<bool> give_up{false};
    std::atomic<bool> got_all{false};
    std::thread watchdog([&] {
      Stopwatch clock;
      while (!got_all.load() && clock.ElapsedSeconds() < 2.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      give_up.store(true);
    });
    FrameReader fr;
    for (;;) {
      Frame f;
      auto ev =
          fr.Next(conn.value().get(), kResponseMagic, &f, &give_up, 50);
      if (!ev.ok() || ev.value() != FrameReader::Event::kFrame) break;
      auto parsed = ParseResponsePayload(f.payload);
      EXPECT_TRUE(parsed.ok());  // even under attack: well-formed or closed
    }
    got_all.store(true);
    watchdog.join();
    conn.value()->Close();
  }

  // The server is still alive and correct for a well-behaved client.
  std::vector<Frame> reqs = {TopkFrame(1, 0, 0, 2)};
  ClientOutcome out = RunClient(w->env(), w->socket_path, reqs);
  ExpectAllAnswered(out, reqs);
  EXPECT_TRUE(w->server->Stop().ok());
  EXPECT_GE(w->server->stats().bad_frames, attacks.size() - 1);
  ExpectServerLedgerBalanced(w.get());
}

// A frame whose header is intact but whose CRC is corrupt gets an error
// response that echoes the header's id, so a pipelined client can tell
// which request poisoned the stream.
TEST(ServerChaosTest, MalformedFrameErrorEchoesHeaderId) {
  auto w = StartWorld("echoid", ServerOptions{});
  auto conn = w->env()->Connect(w->socket_path);
  ASSERT_TRUE(conn.ok());
  std::string bytes = EncodeRequestFrame(TopkFrame(0xdeadbeefULL, 0, 0, 2));
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);  // corrupt the CRC
  ASSERT_TRUE(conn.value()->Write(bytes, 2000).ok());
  std::atomic<bool> give_up{false};
  std::atomic<bool> got_it{false};
  std::thread watchdog([&] {
    Stopwatch clock;
    while (!got_it.load() && clock.ElapsedSeconds() < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    give_up.store(true);
  });
  FrameReader fr;
  Frame resp;
  auto ev = fr.Next(conn.value().get(), kResponseMagic, &resp, &give_up, 50);
  got_it.store(true);
  watchdog.join();
  ASSERT_TRUE(ev.ok()) << ev.status().ToString();
  ASSERT_EQ(ev.value(), FrameReader::Event::kFrame);
  EXPECT_EQ(resp.id, 0xdeadbeefULL);
  auto parsed = ParseResponsePayload(resp.payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().kind, WireResponse::Kind::kError);
  conn.value()->Close();
  EXPECT_TRUE(w->server->Stop().ok());
}

// Regression for the slow-client guard: a write to a peer that never
// reads must fail within the timeout, not block until the peer drains
// the socket buffer. (Connection fds are non-blocking, so the poll()
// budget bounds every progress step; a blocking send() of a payload
// larger than the free buffer space would otherwise sleep forever and
// wedge whichever server thread held the connection.)
TEST(ServerChaosTest, WriteToStalledPeerFailsWithinTimeout) {
  Env* env = Env::Default();
  const std::string path = TempPath("stalled.sock");
  auto listener = env->NewListener(path);
  ASSERT_TRUE(listener.ok());
  auto client = env->Connect(path);
  ASSERT_TRUE(client.ok());
  auto accepted = listener.value()->Accept(1000);
  ASSERT_TRUE(accepted.ok());
  ASSERT_TRUE(accepted.value() != nullptr);
  // 8 MiB into a peer that never reads — far beyond any socket buffer.
  const std::string big(8u << 20, 'x');
  Stopwatch clock;
  Status st = accepted.value()->Write(big, /*timeout_ms=*/100);
  EXPECT_FALSE(st.ok());
  EXPECT_LT(clock.ElapsedSeconds(), 30.0) << "write did not time out";
  accepted.value()->Close();
  client.value()->Close();
  listener.value()->Close();
}

// Overload storm against a deliberately tiny queue: many pipelined
// clients, queue capacity 4. Backpressure must answer every request —
// ok or an explicit queue_full shed — and the ledger must balance.
TEST(ServerChaosTest, OverloadStormShedsExplicitlyNeverSilently) {
  ServerOptions opts;
  opts.queue_capacity = 4;
  opts.max_batch = 2;
  auto w = StartWorld("storm", opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 100;
  std::vector<std::vector<Frame>> reqs(kClients);
  std::vector<ClientOutcome> outs(kClients);
  for (int cidx = 0; cidx < kClients; ++cidx) {
    for (int i = 0; i < kPerClient; ++i) {
      reqs[cidx].push_back(TopkFrame(static_cast<uint64_t>(i) + 1,
                                     static_cast<uint32_t>(i % 4),
                                     static_cast<uint32_t>(i % 12), 3));
    }
  }
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int cidx = 0; cidx < kClients; ++cidx) {
    clients.emplace_back([&, cidx] {
      outs[cidx] = RunClient(w->env(), w->socket_path, reqs[cidx]);
    });
  }
  for (auto& t : clients) t.join();

  size_t oks = 0;
  size_t sheds = 0;
  for (int cidx = 0; cidx < kClients; ++cidx) {
    ExpectAllAnswered(outs[cidx], reqs[cidx]);
    for (const auto& [id, resp] : outs[cidx].responses) {
      if (resp.kind == WireResponse::Kind::kOk) ++oks;
      if (resp.kind == WireResponse::Kind::kShed) ++sheds;
    }
  }
  EXPECT_EQ(oks + sheds, static_cast<size_t>(kClients) * kPerClient);
  EXPECT_GT(oks, 0u);  // the queue made progress under the storm
  EXPECT_TRUE(w->server->Stop().ok());
  const ServerStats s = w->server->stats();
  EXPECT_EQ(s.frames_received, static_cast<uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(s.responses_ok, oks);
  ExpectServerLedgerBalanced(w.get());
}

// Hot reload mid-storm: the model file is rewritten while clients hammer
// the server (dispatcher polls every batch). Every response stays
// well-formed, the new generation eventually serves, and the dispatcher
// rebuilds the scan panel at most once per generation, mid-traffic.
TEST(ServerChaosTest, HotReloadMidStorm) {
  ServerOptions opts;
  opts.poll_every_batches = 1;
  auto w = StartWorld("reload", opts);

  std::atomic<bool> storm_done{false};
  std::thread reloader([&] {
    double level = 2.0;
    while (!storm_done.load()) {
      ASSERT_TRUE(
          SaveFactorModel(ConstantModel(3, 5, 12, level), w->model_path)
              .ok());
      level += 1.0;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  constexpr int kRounds = 8;
  constexpr int kPerRound = 40;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Frame> reqs;
    for (int i = 0; i < kPerRound; ++i) {
      reqs.push_back(TopkFrame(static_cast<uint64_t>(i) + 1,
                               static_cast<uint32_t>(i % 4), 0, 3));
    }
    ClientOutcome out = RunClient(w->env(), w->socket_path, reqs);
    ExpectAllAnswered(out, reqs);
  }
  storm_done.store(true);
  reloader.join();
  EXPECT_TRUE(w->server->Stop().ok());
  ExpectServerLedgerBalanced(w.get());
  EXPECT_EQ(w->service->health(), ServeHealth::kHealthy);
  const uint64_t builds =
      w->metrics.GetHistogram("serve.scan.panel_build_ms")->Snapshot().count;
  EXPECT_GE(builds, 2u) << "no mid-traffic panel rebuild happened";
  EXPECT_LE(builds, w->service->Stats().reload_successes);
}

// Graceful drain under load: stop lands mid-storm. Clients still get one
// response per request (results or draining/queue_full sheds), the server
// joins cleanly, the ledger balances.
TEST(ServerChaosTest, GracefulDrainUnderLoad) {
  ServerOptions opts;
  opts.queue_capacity = 16;
  auto w = StartWorld("drain", opts);

  constexpr int kClients = 3;
  constexpr int kPerClient = 120;
  std::vector<std::vector<Frame>> reqs(kClients);
  std::vector<ClientOutcome> outs(kClients);
  for (int cidx = 0; cidx < kClients; ++cidx) {
    for (int i = 0; i < kPerClient; ++i) {
      reqs[cidx].push_back(
          TopkFrame(static_cast<uint64_t>(i) + 1,
                    static_cast<uint32_t>(i % 4), 0, 2));
    }
  }
  std::vector<std::thread> clients;
  for (int cidx = 0; cidx < kClients; ++cidx) {
    clients.emplace_back([&, cidx] {
      outs[cidx] = RunClient(w->env(), w->socket_path, reqs[cidx],
                             /*deadline_s=*/30.0);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w->server->RequestStop();
  EXPECT_TRUE(w->server->Wait().ok());
  for (auto& t : clients) t.join();

  // After the drain the client outcome is looser — requests written after
  // the readers exited were never *accepted* (no frame read), so they get
  // no response; requests the server read must all be answered. The
  // server-side ledger is the exact invariant.
  ExpectServerLedgerBalanced(w.get());
  const ServerStats s = w->server->stats();
  size_t answered = 0;
  for (int cidx = 0; cidx < kClients; ++cidx) {
    EXPECT_EQ(outs[cidx].duplicates, 0u);
    EXPECT_EQ(outs[cidx].malformed, 0u);
    answered += outs[cidx].responses.size();
  }
  EXPECT_EQ(answered, static_cast<size_t>(s.responses_ok) +
                          s.responses_error + s.shed_total());
}

// Deadline property at 1/2/8 workers: a request carrying budget B is
// answered or explicitly shed — never silently dropped — regardless of
// worker count, budget size, or queue pressure.
TEST(ServerChaosTest, DeadlinePropertyAcrossWorkerCounts) {
  for (int workers : {1, 2, 8}) {
    ServerOptions opts;
    opts.num_workers = workers;
    opts.queue_capacity = 8;
    opts.max_batch = 4;
    auto w = StartWorld(StrFormat("deadline%d", workers), opts);
    std::vector<Frame> reqs;
    for (int i = 0; i < 60; ++i) {
      // Budgets from hopeless (1 microsecond) to comfortable (1 s).
      const double budget_ms = (i % 3 == 0) ? 0.001 : (i % 3 == 1) ? 5.0
                                                                   : 1000.0;
      reqs.push_back(TopkFrame(static_cast<uint64_t>(i) + 1,
                               static_cast<uint32_t>(i % 4), 0, 3,
                               budget_ms));
    }
    ClientOutcome out = RunClient(w->env(), w->socket_path, reqs);
    ExpectAllAnswered(out, reqs);
    for (const auto& [id, resp] : out.responses) {
      EXPECT_TRUE(resp.kind == WireResponse::Kind::kOk ||
                  resp.kind == WireResponse::Kind::kShed);
    }
    EXPECT_TRUE(w->server->Stop().ok());
    ExpectServerLedgerBalanced(w.get());
  }
}

// Admission plans with the service's deadline budget. With the model tier
// warm and popularity never sampled, a request due before the model tier
// answers plans as popularity, which predicts 0 service time as the
// budget reads a tier that has never answered, so the request is
// admitted: the dispatcher sees it and the model tier decays. Predicting
// it at the model tier's latency instead shed every such request before
// the dispatcher, and the model tier was never measured again. A budget
// this tight may still expire in the queue, or be shed once popularity
// has a latency of its own that misses it.
TEST(ServerChaosTest, DeadlineBelowTheModelEwmaIsNotShedAtItsLatency) {
  auto w = StartWorld("lockin", ServerOptions{});
  std::vector<Frame> warm;
  for (int i = 0; i < 5; ++i) {
    warm.push_back(TopkFrame(static_cast<uint64_t>(i) + 1, 0, 0, 3));
  }
  ExpectAllAnswered(RunClient(w->env(), w->socket_path, warm), warm);
  const double model_ms = w->service->TierLatencyEwmaMs(ServeTier::kModel);
  ASSERT_GT(model_ms, 0.0);
  ASSERT_EQ(w->service->TierLatencyEwmaMs(ServeTier::kPopularity), 0.0);
  int deadline_sheds = 0;
  for (uint64_t id = 100; id < 110; ++id) {
    const bool popularity_cold =
        w->service->TierLatencyEwmaMs(ServeTier::kPopularity) == 0.0;
    const std::vector<Frame> one = {TopkFrame(id, 0, 0, 3, model_ms / 2)};
    const ClientOutcome out = RunClient(w->env(), w->socket_path, one);
    ExpectAllAnswered(out, one);
    const WireResponse& resp = out.responses.at(id);
    if (resp.kind == WireResponse::Kind::kShed &&
        resp.shed == ShedReason::kDeadline) {
      ++deadline_sheds;
      EXPECT_FALSE(popularity_cold) << "id " << id;
    } else {
      EXPECT_TRUE(resp.kind == WireResponse::Kind::kOk ||
                  resp.kind == WireResponse::Kind::kShed)
          << "id " << id;
    }
  }
  EXPECT_LT(deadline_sheds, 10);
  EXPECT_TRUE(w->server->Stop().ok());
  ExpectServerLedgerBalanced(w.get());
}

// Wire faults through FaultInjectionEnv: reads and writes fail (or tear)
// after k operations, swept over k. Whatever the wire does, the server
// neither crashes nor hangs, later connections work, and the ledger
// balances (torn responses count as write failures, not lost requests).
TEST(ServerChaosTest, WireFaultScheduleSweep) {
  struct Schedule {
    int fail_reads_after;
    int fail_writes_after;
    bool truncate_writes;
  };
  const Schedule schedules[] = {
      {0, -1, false},  // every server read fails immediately
      {2, -1, false},  // reads die mid-stream
      {7, -1, false},  // reads die late
      {-1, 0, false},  // every response write fails
      {-1, 2, false},  // writes die mid-stream
      {-1, 2, true},   // torn response: first half delivered, then fault
      {-1, 0, true},   // torn from the first write
      {3, 3, true},    // both directions flaky
  };
  int idx = 0;
  for (const Schedule& sched : schedules) {
    FaultInjectionEnv fenv(Env::Default());
    auto w = StartWorld(StrFormat("wire%d", idx++), ServerOptions{}, &fenv);
    fenv.set_truncate_conn_writes(sched.truncate_writes);
    fenv.set_fail_conn_reads_after(sched.fail_reads_after);
    fenv.set_fail_conn_writes_after(sched.fail_writes_after);

    std::vector<Frame> reqs;
    for (int i = 0; i < 10; ++i) {
      reqs.push_back(TopkFrame(static_cast<uint64_t>(i) + 1,
                               static_cast<uint32_t>(i % 4), 0, 2));
    }
    // The fault schedule hits the *server's* conns (its env); the client
    // may see garbage, truncation or a reset — all acceptable, and the
    // short deadline keeps a silent wire from stalling the sweep.
    ClientOutcome out = RunClient(Env::Default(), w->socket_path, reqs, 3.0,
                                  /*write_gap_ms=*/25);
    EXPECT_EQ(out.duplicates, 0u);
    EXPECT_GT(fenv.conn_faults_injected(), 0)
        << StrFormat("r=%d w=%d t=%d", sched.fail_reads_after,
                     sched.fail_writes_after, sched.truncate_writes);

    // Lift the faults: the server must still serve a fresh client.
    fenv.set_fail_conn_reads_after(-1);
    fenv.set_fail_conn_writes_after(-1);
    fenv.set_truncate_conn_writes(false);
    std::vector<Frame> again = {TopkFrame(1, 0, 0, 2)};
    ClientOutcome ok = RunClient(Env::Default(), w->socket_path, again);
    ExpectAllAnswered(ok, again);

    EXPECT_TRUE(w->server->Stop().ok());
    ExpectServerLedgerBalanced(w.get());
  }
}

// Accept-gate faults and kernel-dribble reads (the FaultInjectionEnv
// knobs added for the distributed engine, aimed back at the serving
// front-end): a dropped accept is exactly a real ECONNABORTED — the
// client vanished between connect and accept — and must not wedge the
// accept loop; 2-byte chunked reads force every request through the
// frame reassembly path.
TEST(ServerChaosTest, DroppedAcceptsAndSplitReadsAreSurvived) {
  FaultInjectionEnv fenv(Env::Default());
  auto w = StartWorld("acceptsplit", ServerOptions{}, &fenv);

  // Every delivered connection dies at the accept gate: clients connect
  // (the kernel backlog accepts the handshake) but are never served.
  fenv.set_fail_accepts_after(0);
  for (int i = 0; i < 2; ++i) {
    std::vector<Frame> reqs = {TopkFrame(1, 0, 0, 2)};
    ClientOutcome out = RunClient(Env::Default(), w->socket_path, reqs, 2.0);
    EXPECT_TRUE(out.responses.empty())
        << "a connection dropped at accept was answered";
  }
  EXPECT_GE(fenv.accepts_delivered(), 2);

  // Lift the fault; the accept loop must still be alive. Now dribble all
  // server-side reads 2 bytes at a time and demand full service.
  fenv.set_fail_accepts_after(-1);
  fenv.set_conn_read_chunk(2);
  std::vector<Frame> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(TopkFrame(static_cast<uint64_t>(i) + 1,
                             static_cast<uint32_t>(i % 4), 0, 2));
  }
  ClientOutcome ok = RunClient(Env::Default(), w->socket_path, reqs);
  ExpectAllAnswered(ok, reqs);
  // Far more read ops than frames: the chunk cap really was in force.
  EXPECT_GT(fenv.conn_reads_attempted(), static_cast<int>(reqs.size()) * 4);

  EXPECT_TRUE(w->server->Stop().ok());
  ExpectServerLedgerBalanced(w.get());
}

// Connection-limit overload: with max_connections=1 a second concurrent
// connection is answered with one explicit overloaded-shed frame, counted
// once, as serve.shed.overloaded — which is also connections_rejected.
TEST(ServerChaosTest, ConnectionLimitShedsExplicitly) {
  ServerOptions opts;
  opts.max_connections = 1;
  auto w = StartWorld("connlimit", opts);

  auto first = w->env()->Connect(w->socket_path);
  ASSERT_TRUE(first.ok());
  // Park a request on the first connection so its session stays alive.
  ASSERT_TRUE(first.value()
                  ->Write(EncodeRequestFrame(TopkFrame(1, 0, 0, 2)), 2000)
                  .ok());
  FrameReader fr1;
  Frame f1;
  ASSERT_TRUE(
      fr1.Next(first.value().get(), kResponseMagic, &f1, nullptr, 100).ok());

  // Second connection: must receive a shed frame (reason=overloaded) or a
  // clean close — never a hang.
  bool saw_overload_shed = false;
  for (int attempt = 0; attempt < 50 && !saw_overload_shed; ++attempt) {
    auto second = w->env()->Connect(w->socket_path);
    ASSERT_TRUE(second.ok());
    FrameReader fr2;
    Frame f2;
    auto ev = fr2.Next(second.value().get(), kResponseMagic, &f2, nullptr,
                       100);
    if (ev.ok() && ev.value() == FrameReader::Event::kFrame) {
      auto parsed = ParseResponsePayload(f2.payload);
      ASSERT_TRUE(parsed.ok());
      if (parsed.value().kind == WireResponse::Kind::kShed) {
        EXPECT_EQ(parsed.value().shed, ShedReason::kOverloaded);
        saw_overload_shed = true;
      }
    }
    second.value()->Close();
  }
  EXPECT_TRUE(saw_overload_shed);
  first.value()->Close();
  EXPECT_TRUE(w->server->Stop().ok());
  EXPECT_GE(w->server->stats().connections_rejected, 1u);
  ExpectServerLedgerBalanced(w.get());
}

// Soak: sustained mixed traffic (deadlines, fold-in users, bad users)
// until TCSS_SERVER_SOAK requests have been pushed through. Gates the
// TSan stage in tools/check.sh with 10k requests.
TEST(ServerChaosTest, SoakMixedTraffic) {
  size_t soak = 2000;
  if (const char* env_soak = std::getenv("TCSS_SERVER_SOAK")) {
    soak = static_cast<size_t>(std::atol(env_soak));
  }
  ServerOptions opts;
  opts.queue_capacity = 64;
  opts.max_batch = 16;
  opts.poll_every_batches = 32;
  auto w = StartWorld("soak", opts);

  constexpr int kClients = 4;
  const size_t per_client = (soak + kClients - 1) / kClients;
  std::vector<std::vector<Frame>> reqs(kClients);
  std::vector<ClientOutcome> outs(kClients);
  for (int cidx = 0; cidx < kClients; ++cidx) {
    for (size_t i = 0; i < per_client; ++i) {
      const uint32_t user = static_cast<uint32_t>((i + cidx) % 5);  // 4=bad
      const double budget_ms = (i % 7 == 0) ? 2.0 : 0.0;
      reqs[cidx].push_back(TopkFrame(i + 1, user,
                                     static_cast<uint32_t>(i % 12), 3,
                                     budget_ms));
    }
  }
  std::vector<std::thread> clients;
  for (int cidx = 0; cidx < kClients; ++cidx) {
    clients.emplace_back([&, cidx] {
      outs[cidx] = RunClient(w->env(), w->socket_path, reqs[cidx],
                             /*deadline_s=*/300.0);
    });
  }
  for (auto& t : clients) t.join();
  for (int cidx = 0; cidx < kClients; ++cidx) {
    ExpectAllAnswered(outs[cidx], reqs[cidx]);
  }
  EXPECT_TRUE(w->server->Stop().ok());
  const ServerStats s = w->server->stats();
  EXPECT_EQ(s.frames_received,
            static_cast<uint64_t>(per_client) * kClients);
  EXPECT_EQ(s.connections_accepted, static_cast<uint64_t>(kClients));
  ExpectServerLedgerBalanced(w.get());
}

}  // namespace
}  // namespace tcss
