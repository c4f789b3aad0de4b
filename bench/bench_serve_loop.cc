// Closed-loop serving benchmark for src/serve/server.cc. Phase 1
// calibrates saturation throughput C with unthrottled pipelined clients;
// phase 2 replays paced load at 0.5x / 1.0x / 2.0x C with a per-request
// deadline and reports achieved QPS, p50/p95/p99 latency of answered
// requests, and the shed rate. The property the overload design promises:
// at 2x saturation the admission controller sheds explicitly *before*
// the p99 of answered requests exceeds the deadline — the queue is
// bounded and expired work is shed at dequeue, so answered latency stays
// inside the budget while the excess is refused, not silently delayed.
//
// Human-readable table on stdout; TCSS_BENCH_JSON appends machine rows
// (bench "serve_loop"). TCSS_BENCH_SCALE (default 1.0) scales the
// request counts for quick smoke runs.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/model_io.h"
#include "data/dataset.h"
#include "serve/frontend.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"
#include "serve/server.h"

namespace tcss {
namespace {

constexpr size_t kUsers = 64;
constexpr size_t kModelUsers = 48;  // users >= 48 exercise the fold-in tier
constexpr size_t kPois = 128;
constexpr size_t kBins = 12;
constexpr double kDeadlineMs = 10.0;
constexpr size_t kClients = 4;

Dataset BenchDataset() {
  std::vector<Poi> pois(kPois);
  for (size_t j = 0; j < kPois; ++j) {
    pois[j] = {{30.0 + 0.01 * static_cast<double>(j),
                -80.0 + 0.01 * static_cast<double>(j)},
               static_cast<PoiCategory>(j % 4)};
  }
  SocialGraph social(kUsers);
  for (size_t u = 0; u + 1 < kUsers; u += 2) {
    Status s = social.AddEdge(static_cast<uint32_t>(u),
                              static_cast<uint32_t>(u + 1));
    (void)s;
  }
  Status fin = social.Finalize();
  (void)fin;
  Dataset data(kUsers, std::move(pois), std::move(social));
  // One check-in per (user, month) pair spread over the POI set so every
  // tier (model, fold-in, popularity) has signal.
  const int64_t base = 1577836800;  // 2020-01-01
  Rng rng(99);
  for (size_t u = 0; u < kUsers; ++u) {
    for (size_t m = 0; m < kBins; m += 2) {
      const uint32_t j = static_cast<uint32_t>(rng.UniformInt(kPois));
      const int64_t ts = base + static_cast<int64_t>(m) * 2629800;
      Status s = data.AddCheckIn(static_cast<uint32_t>(u), j, ts);
      (void)s;
    }
  }
  return data;
}

FactorModel BenchModel() {
  FactorModel m;
  const size_t r = 16;
  Rng rng(5);
  m.u1 = Matrix::GaussianRandom(kModelUsers, r, &rng);
  m.u2 = Matrix::GaussianRandom(kPois, r, &rng);
  m.u3 = Matrix::GaussianRandom(kBins, r, &rng);
  m.h.assign(r, 1.0 / static_cast<double>(r));
  return m;
}

// One load level's merged client-side outcome.
struct LoadResult {
  size_t sent = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t error = 0;
  size_t lost = 0;  ///< transport failures / unanswered (should stay 0)
  std::vector<double> ok_latency_ms;
  double elapsed_s = 0.0;

  double qps() const {
    return elapsed_s > 0.0 ? static_cast<double>(ok + shed + error) /
                                 elapsed_s
                           : 0.0;
  }
  double shed_rate() const {
    const size_t answered = ok + shed + error;
    return answered > 0
               ? static_cast<double>(shed) / static_cast<double>(answered)
               : 0.0;
  }
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// Drives `total` requests through `kClients` connections. offered_qps
// > 0 paces the writers (open-loop within each connection, so overload
// actually builds up); 0 runs a strict closed loop — one outstanding
// request per connection — which measures service capacity without
// tripping admission control. Every request carries deadline_ms when it
// is > 0.
LoadResult RunLoad(Env* env, const std::string& path, size_t total,
                   double offered_qps, double deadline_ms) {
  LoadResult merged;
  std::mutex mu;
  std::vector<std::thread> clients;
  Stopwatch wall;
  for (size_t cidx = 0; cidx < kClients; ++cidx) {
    clients.emplace_back([&, cidx] {
      const size_t n = total / kClients + (cidx < total % kClients ? 1 : 0);
      if (n == 0) return;
      LoadResult local;
      local.sent = n;
      auto conn = env->Connect(path);
      if (!conn.ok()) {
        local.lost = n;
        std::lock_guard<std::mutex> lk(mu);
        merged.sent += local.sent;
        merged.lost += local.lost;
        return;
      }
      Conn* c = conn.value().get();
      // Send timestamps indexed by frame id; atomics because the reader
      // thread loads them while the writer is still publishing later ids.
      std::unique_ptr<std::atomic<double>[]> sent_at(
          new std::atomic<double>[n]);
      for (size_t i = 0; i < n; ++i) sent_at[i].store(0.0);
      std::atomic<size_t> answered{0};
      std::atomic<bool> writes_done{false};
      std::atomic<bool> give_up{false};
      Stopwatch clock;
      std::thread watchdog([&] {
        // Generous bound: pacing time plus 15 s of drain.
        const double pace_s =
            offered_qps > 0.0
                ? static_cast<double>(total) / offered_qps
                : 0.0;
        while (answered.load() < n &&
               clock.ElapsedSeconds() < pace_s + 15.0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        give_up.store(true);
      });
      std::thread reader([&] {
        FrameReader fr;
        while (answered.load() < n) {
          Frame f;
          auto ev = fr.Next(c, kResponseMagic, &f, &give_up, 50);
          if (!ev.ok() || ev.value() != FrameReader::Event::kFrame) break;
          const double now = clock.ElapsedSeconds();
          auto parsed = ParseResponsePayload(f.payload);
          answered.fetch_add(1);
          if (!parsed.ok() || f.id >= n) {
            ++local.error;
            continue;
          }
          switch (parsed.value().kind) {
            case WireResponse::Kind::kOk:
              ++local.ok;
              local.ok_latency_ms.push_back(
                  (now - sent_at[f.id].load(std::memory_order_acquire)) *
                  1e3);
              break;
            case WireResponse::Kind::kShed:
              ++local.shed;
              break;
            case WireResponse::Kind::kError:
            case WireResponse::Kind::kIngested:
              ++local.error;
              break;
          }
        }
      });
      const double interval_s =
          offered_qps > 0.0 ? static_cast<double>(kClients) / offered_qps
                            : 0.0;
      Status write_err;
      for (size_t i = 0; i < n; ++i) {
        if (give_up.load()) break;
        if (interval_s > 0.0) {
          const double due = static_cast<double>(i) * interval_s;
          while (clock.ElapsedSeconds() < due && !give_up.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        } else {
          // Closed loop: wait for the previous response before sending.
          while (answered.load() < i && !give_up.load()) {
            std::this_thread::yield();
          }
        }
        // Mostly model-tier users; every 16th request hits fold-in so the
        // per-request tier predictor sees both lanes.
        const size_t user =
            (i % 16 == 9)
                ? kModelUsers + (i + cidx) % (kUsers - kModelUsers)
                : (i * 7 + cidx) % kModelUsers;
        std::string payload =
            StrFormat("topk %zu %zu k=10", user, i % kBins);
        if (deadline_ms > 0.0) {
          payload += StrFormat(" deadline_ms=%.3f", deadline_ms);
        }
        sent_at[i].store(clock.ElapsedSeconds(),
                         std::memory_order_release);
        write_err = c->Write(
            EncodeRequestFrame({static_cast<uint64_t>(i), payload}),
            /*timeout_ms=*/5000);
        if (!write_err.ok()) break;
      }
      writes_done.store(true);
      reader.join();
      watchdog.join();
      c->Close();
      local.lost = local.sent - (local.ok + local.shed + local.error);
      std::lock_guard<std::mutex> lk(mu);
      merged.sent += local.sent;
      merged.ok += local.ok;
      merged.shed += local.shed;
      merged.error += local.error;
      merged.lost += local.lost;
      merged.ok_latency_ms.insert(merged.ok_latency_ms.end(),
                                  local.ok_latency_ms.begin(),
                                  local.ok_latency_ms.end());
    });
  }
  for (auto& t : clients) t.join();
  merged.elapsed_s = wall.ElapsedSeconds();
  return merged;
}

}  // namespace
}  // namespace tcss

int main() {
  using namespace tcss;
  const double scale = bench::BenchScale();
  Env* env = Env::Default();

  Dataset data = BenchDataset();
  const std::string model_path =
      "/tmp/tcss_bench_serve_" + std::to_string(getpid()) + ".model";
  const std::string socket_path =
      "/tmp/tcss_bench_serve_" + std::to_string(getpid()) + ".sock";
  Status saved = SaveFactorModel(BenchModel(), model_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save model: %s\n", saved.ToString().c_str());
    return 1;
  }
  ModelWatcher::Options wopts;
  wopts.num_users = data.num_users();
  wopts.num_pois = data.num_pois();
  wopts.num_bins = kBins;
  ModelWatcher watcher(model_path, wopts);
  RecommendService service(&data, TimeGranularity::kMonthOfYear, &watcher);
  Status init = service.Init();
  if (!init.ok()) {
    std::fprintf(stderr, "service init: %s\n", init.ToString().c_str());
    return 1;
  }
  ServerOptions opts;
  opts.queue_capacity = 64;
  opts.max_batch = 16;
  Server server(&service, socket_path, opts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    return 1;
  }

  // Phase 1: saturation throughput with unthrottled pipelined clients.
  const size_t calib_total =
      static_cast<size_t>(4000.0 * scale) / kClients * kClients;
  LoadResult calib = RunLoad(env, socket_path, calib_total,
                             /*offered_qps=*/0.0, /*deadline_ms=*/0.0);
  const double capacity = calib.qps();
  std::printf("saturation: %zu requests, %.0f qps, p50 %.3f ms, lost %zu\n",
              calib.sent, capacity, Percentile(calib.ok_latency_ms, 50.0),
              calib.lost);
  bench::AppendBenchJson("serve_loop", "synthetic64x128",
                         "saturation_qps", capacity);

  // Phase 2: paced load sweep with a deadline.
  std::printf(
      "%-8s %10s %10s %10s %10s %10s %10s %8s\n", "load", "offered",
      "achieved", "p50_ms", "p95_ms", "p99_ms", "shed_rate", "lost");
  bool shed_before_breach = true;
  for (const double factor : {0.5, 1.0, 2.0}) {
    const double offered = factor * capacity;
    const double window_s = 1.5;
    size_t total = static_cast<size_t>(offered * window_s);
    total = std::min<size_t>(std::max<size_t>(total, 800), 24000);
    LoadResult r =
        RunLoad(env, socket_path, total, offered, kDeadlineMs);
    const double p50 = Percentile(r.ok_latency_ms, 50.0);
    const double p95 = Percentile(r.ok_latency_ms, 95.0);
    const double p99 = Percentile(r.ok_latency_ms, 99.0);
    std::printf("%-8.1f %10.0f %10.0f %10.3f %10.3f %10.3f %10.4f %8zu\n",
                factor, offered, r.qps(), p50, p95, p99, r.shed_rate(),
                r.lost);
    const std::string tag = StrFormat("load%.1f_", factor);
    bench::AppendBenchJson("serve_loop", "synthetic64x128",
                           tag + "offered_qps", offered);
    bench::AppendBenchJson("serve_loop", "synthetic64x128",
                           tag + "achieved_qps", r.qps());
    bench::AppendBenchJson("serve_loop", "synthetic64x128", tag + "p50_ms",
                           p50);
    bench::AppendBenchJson("serve_loop", "synthetic64x128", tag + "p95_ms",
                           p95);
    bench::AppendBenchJson("serve_loop", "synthetic64x128", tag + "p99_ms",
                           p99);
    bench::AppendBenchJson("serve_loop", "synthetic64x128",
                           tag + "shed_rate", r.shed_rate());
    // The overload property: when answered-latency p99 is at or past the
    // deadline, shedding must already be engaged. (At mild load neither
    // side trips; at 2x saturation sheds must appear while p99 holds.)
    if (factor >= 2.0) {
      const bool sheds_engaged = r.shed > 0;
      const bool p99_within = p99 <= kDeadlineMs * 1.5;
      shed_before_breach = sheds_engaged && p99_within;
      bench::AppendBenchJson("serve_loop", "synthetic64x128",
                             "load2.0_shed_before_p99_breach",
                             shed_before_breach ? 1.0 : 0.0);
    }
    if (r.lost != 0) {
      std::fprintf(stderr, "WARNING: %zu requests lost at load %.1f\n",
                   r.lost, factor);
    }
  }
  std::printf("overload property (sheds engage while p99 holds at 2x): %s\n",
              shed_before_breach ? "PASS" : "FAIL");

  Status stopped = server.Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "server stop: %s\n", stopped.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", server.stats().ToString().c_str());
  std::remove(model_path.c_str());
  return shed_before_breach ? 0 : 2;
}
