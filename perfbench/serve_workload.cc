// Serving half of a pipeline workload: the trained model behind the
// in-tree Server + RecommendService + StreamingEngine on a Unix socket,
// driven open-loop by a seeded mix of topk and ingest requests.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "common/env.h"
#include "common/strings.h"
#include "core/model_io.h"
#include "core/recommend.h"
#include "data/tensor_builder.h"
#include "data/time_binning.h"
#include "geo/haversine.h"
#include "proptest/oracles.h"
#include "serve/frontend.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"
#include "serve/server.h"
#include "stream/slice_roller.h"
#include "stream/streaming_engine.h"

namespace perfbench {
namespace {

using tcss::FactorModel;
using tcss::Recommendation;
using tcss::ServeRequest;
using tcss::ServeTier;
using tcss::WireResponse;

constexpr tcss::TimeGranularity kGranularity =
    tcss::TimeGranularity::kMonthOfYear;
constexpr double kDeadlineMs = 10.0;  ///< carried by every topk request
constexpr double kSloP99Ms = 10.0;    ///< topk p99 limit of slo_qps
constexpr double kSloFailedShare = 0.01;
/// The generator kept to its schedule: median send lateness. (Its p99 is
/// set by host timer jitter, which reaches milliseconds even when idle.)
constexpr double kSloLateP50Ms = 1.0;
constexpr size_t kTopK = 10;
constexpr int kConnections = 2;
constexpr double kFenceKm = 8.0;
constexpr int kLadderRungs = 9;  ///< up to 1.25^9 = 7.5x the nominal rate
constexpr int kSlices = 5;       ///< time slices of the nominal window
constexpr size_t kSaturationDepth = 16;  ///< in flight per connection
const char* const kSocketPath = "serve.sock";
const char* const kModelPath = "serve.model";

/// Deterministic generator for the request mix (SplitMix64).
class Rand {
 public:
  explicit Rand(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Uniform() * n); }

 private:
  uint64_t s_;
};

/// Zipf(1) choice over a seeded permutation of `items`.
class ZipfPicker {
 public:
  ZipfPicker(std::vector<uint32_t> items, Rand* rng) : items_(std::move(items)) {
    for (size_t i = items_.size(); i > 1; --i) {
      std::swap(items_[i - 1], items_[rng->Below(i)]);
    }
    double acc = 0.0;
    for (size_t i = 0; i < items_.size(); ++i) {
      acc += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(acc);
    }
  }
  bool empty() const { return items_.empty(); }
  uint32_t Pick(Rand* rng) const {
    const double x = rng->Uniform() * cdf_.back();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), x) - cdf_.begin());
    return items_[std::min(i, items_.size() - 1)];
  }

 private:
  std::vector<uint32_t> items_;
  std::vector<double> cdf_;
};

/// f64 scorer over one model generation, for the oracle.
class FactorScorer : public tcss::Recommender {
 public:
  explicit FactorScorer(const FactorModel* m) : m_(m) {}
  std::string name() const override { return "perfbench-oracle"; }
  tcss::Status Fit(const tcss::TrainContext&) override {
    return tcss::Status::OK();
  }
  double Score(uint32_t i, uint32_t j, uint32_t k) const override {
    return m_->Predict(i, j, k);
  }

 private:
  const FactorModel* m_;
};

/// One scheduled request of a load window.
struct Planned {
  double due_s = 0.0;  ///< send time, from the window start
  std::string frame;   ///< encoded request frame
  ServeRequest req;    ///< the request as the server parses it
  ServeTier expect = ServeTier::kPopularity;
};

/// What came back for one request.
struct Outcome {
  double sent_s = -1.0;
  double recv_s = -1.0;
  int responses = 0;
  bool parsed = false;
  WireResponse resp;
};

struct Window {
  double rate = 0.0;
  double seconds = 0.0;
  /// Closed loop: requests each connection keeps in flight, sending the
  /// next on every answer; 0 = open loop on the schedule.
  size_t depth = 0;
  uint64_t first_id = 0;
  std::vector<Planned> plan;
  std::vector<Outcome> out;

  // Ledger, filled by Tally().
  uint64_t topk = 0, ingest = 0, ok = 0, ingested = 0, shed = 0, error = 0,
           unanswered = 0;
  std::vector<double> topk_ms, ingest_ms, late_ms;
  std::vector<double> latency_ms;  ///< per request, index-aligned with plan
};

/// The request mix: which users each tier serves, and their POIs.
struct Mix {
  size_t num_users = 0, num_pois = 0, model_users = 0;
  std::unique_ptr<ZipfPicker> model_tier, fold_in_tier, unknown_tier;
  std::vector<std::vector<uint32_t>> user_pois;
  std::vector<tcss::GeoPoint> poi_locations;
  int year = 2011;
};

Mix MakeMix(const tcss::Dataset& data, size_t model_users, Rand* rng) {
  Mix mix;
  mix.num_users = data.num_users();
  mix.num_pois = data.num_pois();
  mix.model_users = model_users;
  mix.user_pois = data.UserPoiSets();
  mix.poi_locations = data.PoiLocations();
  if (!data.checkins().empty()) {
    mix.year = tcss::ToCivil(data.checkins().front().timestamp).year;
  }
  std::vector<uint32_t> model, fold_in, unknown;
  for (uint32_t u = 0; u < mix.num_users; ++u) {
    if (u < model_users) {
      model.push_back(u);
    } else if (!mix.user_pois[u].empty()) {
      fold_in.push_back(u);
    }
  }
  // Users the service has never seen: ids past the dataset.
  for (uint32_t u = 0; u < std::max<size_t>(8, mix.num_users / 100); ++u) {
    unknown.push_back(static_cast<uint32_t>(mix.num_users) + u);
  }
  mix.model_tier = std::make_unique<ZipfPicker>(model, rng);
  mix.fold_in_tier = std::make_unique<ZipfPicker>(fold_in, rng);
  mix.unknown_tier = std::make_unique<ZipfPicker>(unknown, rng);
  return mix;
}

/// Shares of the mix (of all requests, of topk requests): ingest 10%,
/// topk tiers 70/22/8 (model/fold-in/never seen), `new` 30%, geo fence
/// 10%. Ingests go mostly to fold-in users.
Planned NextRequest(const Mix& mix, bool deadline, Rand* rng) {
  Planned p;
  std::string line;
  if (rng->Uniform() < 0.10) {
    const bool fold_in = !mix.fold_in_tier->empty() && rng->Uniform() < 0.8;
    const uint32_t user =
        fold_in ? mix.fold_in_tier->Pick(rng) : mix.model_tier->Pick(rng);
    const auto& pois = mix.user_pois[user];
    const uint32_t poi =
        (!pois.empty() && rng->Uniform() < 0.7)
            ? pois[rng->Below(pois.size())]
            : static_cast<uint32_t>(rng->Below(mix.num_pois));
    const int64_t ts = tcss::FromCivil(
        mix.year, 1 + static_cast<int>(rng->Below(12)),
        1 + static_cast<int>(rng->Below(28)),
        static_cast<int>(rng->Below(24)));
    line = tcss::StrFormat("ingest %u %u %lld", user, poi,
                           static_cast<long long>(ts));
  } else {
    const double t = rng->Uniform();
    uint32_t user;
    if (t < 0.70 || mix.fold_in_tier->empty()) {
      user = mix.model_tier->Pick(rng);
      p.expect = ServeTier::kModel;
    } else if (t < 0.92) {
      user = mix.fold_in_tier->Pick(rng);
      p.expect = ServeTier::kFoldIn;
    } else {
      user = mix.unknown_tier->Pick(rng);
      p.expect = ServeTier::kPopularity;
    }
    line = tcss::StrFormat("topk %u %zu k=%zu", user, rng->Below(12), kTopK);
    if (deadline) line += tcss::StrFormat(" deadline_ms=%g", kDeadlineMs);
    if (rng->Uniform() < 0.30) line += " new";
    if (rng->Uniform() < 0.10) {
      const auto* pois =
          user < mix.user_pois.size() ? &mix.user_pois[user] : nullptr;
      const uint32_t anchor =
          pois != nullptr && !pois->empty()
              ? (*pois)[rng->Below(pois->size())]
              : static_cast<uint32_t>(rng->Below(mix.num_pois));
      const tcss::GeoPoint& c = mix.poi_locations[anchor];
      line += tcss::StrFormat(" within_km=%g,%.6f,%.6f", kFenceKm, c.lat,
                              c.lon);
    }
  }
  auto parsed = tcss::ParseRequestLine(line);
  p.req = parsed.ok() ? parsed.value() : ServeRequest{};
  p.frame = line;  // encoded once the frame id is known
  return p;
}

/// `rate` * `seconds` requests on a uniform schedule (open loop), or with
/// `depth` > 0 the same count sent closed-loop. With `deadline` every topk
/// request carries deadline_ms=10.
Window PlanWindow(const Mix& mix, double rate, double seconds, size_t depth,
                  bool deadline, uint64_t first_id, Rand* rng) {
  Window w;
  w.rate = rate;
  w.seconds = seconds;
  w.depth = depth;
  w.first_id = first_id;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  w.plan.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Planned p = NextRequest(mix, deadline, rng);
    // Uniform arrivals; request i goes out on connection i % kConnections.
    p.due_s = static_cast<double>(i) / rate;
    p.frame = tcss::EncodeRequestFrame({first_id + i, p.frame});
    w.plan.push_back(std::move(p));
  }
  w.out.resize(n);
  return w;
}

/// Per connection one writer (sends each request at its scheduled time,
/// or closed-loop whenever fewer than `depth` are in flight) and one reader
/// (collects responses by frame id).
void RunWindow(tcss::Env* env, Window* w) {
  std::vector<std::unique_ptr<tcss::Conn>> conns;
  for (int c = 0; c < kConnections; ++c) {
    auto conn = env->Connect(kSocketPath);
    if (!conn.ok()) {
      std::fprintf(stderr, "connect: %s\n", conn.status().ToString().c_str());
      return;  // every request stays unanswered
    }
    conns.push_back(conn.MoveValue());
  }
  const Clock::time_point t0 =
      Clock::now() + std::chrono::milliseconds(20);
  std::atomic<bool> give_up{false};
  std::vector<std::thread> threads;
  std::vector<std::atomic<size_t>> received(kConnections);
  // Closed loop: answers bump `received` under `mu`, so a writer waiting
  // for a free slot cannot miss the wakeup.
  std::mutex mu;
  std::condition_variable answered;
  for (int c = 0; c < kConnections; ++c) {
    received[c] = 0;
    threads.emplace_back([&, c] {
      size_t sent = 0;
      for (size_t i = static_cast<size_t>(c); i < w->plan.size();
           i += kConnections, ++sent) {
        if (w->depth > 0) {
          std::unique_lock<std::mutex> lock(mu);
          answered.wait(lock, [&] {
            return give_up.load() || sent - received[c].load() < w->depth;
          });
        } else {
          std::this_thread::sleep_until(
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(w->plan[i].due_s)));
        }
        if (give_up.load()) return;
        w->out[i].sent_s = SecondsSince(t0);
        if (!conns[c]->Write(w->plan[i].frame, 5000).ok()) return;
      }
    });
    threads.emplace_back([&, c] {
      const size_t expected =
          (w->plan.size() + kConnections - 1 - static_cast<size_t>(c)) /
          kConnections;
      tcss::FrameReader reader;
      while (received[c].load() < expected) {
        tcss::Frame f;
        auto ev = reader.Next(conns[c].get(), tcss::kResponseMagic, &f,
                              &give_up, 20);
        if (!ev.ok() || ev.value() != tcss::FrameReader::Event::kFrame) break;
        const double now = SecondsSince(t0);
        if (f.id < w->first_id || f.id - w->first_id >= w->plan.size()) {
          continue;  // stray id: leaves its request unanswered
        }
        Outcome& o = w->out[f.id - w->first_id];
        ++o.responses;
        o.recv_s = now;
        auto parsed = tcss::ParseResponsePayload(f.payload);
        o.parsed = parsed.ok();
        if (parsed.ok()) o.resp = parsed.MoveValue();
        {
          std::lock_guard<std::mutex> lock(mu);
          received[c].fetch_add(1);
        }
        answered.notify_all();
      }
    });
  }
  // Generous drain: the window plus five seconds; a closed loop runs until
  // its requests are answered, within a minute.
  const double budget_s = w->depth > 0 ? 60.0 : w->seconds + 5.0;
  while (SecondsSince(t0) < budget_s) {
    size_t done = 0;
    for (int c = 0; c < kConnections; ++c) done += received[c].load();
    if (done >= w->plan.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    give_up.store(true);
  }
  answered.notify_all();
  for (auto& t : threads) t.join();
  for (auto& c : conns) c->Close();
}

/// Answers per second of a closed-loop window, first send to last answer.
double Throughput(const Window& w) {
  double first = std::numeric_limits<double>::infinity(), last = 0.0;
  size_t answered = 0;
  for (const Outcome& o : w.out) {
    if (o.sent_s >= 0) first = std::min(first, o.sent_s);
    if (o.responses > 0) {
      last = std::max(last, o.recv_s);
      ++answered;
    }
  }
  return last > first ? static_cast<double>(answered) / (last - first) : 0.0;
}

/// Fills the window's ledger and latency samples. A shed, failed or
/// unanswered request counts as +inf: over any latency limit.
void Tally(Window* w) {
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < w->plan.size(); ++i) {
    const Planned& p = w->plan[i];
    const Outcome& o = w->out[i];
    const bool ingest = p.req.verb == tcss::ServeVerb::kIngest;
    (ingest ? w->ingest : w->topk) += 1;
    if (o.sent_s >= 0) w->late_ms.push_back((o.sent_s - p.due_s) * 1e3);
    double ms = inf;
    if (o.responses == 0 || !o.parsed) {
      ++w->unanswered;
    } else {
      switch (o.resp.kind) {
        case WireResponse::Kind::kOk:
          ++w->ok;
          if (!ingest) ms = (o.recv_s - p.due_s) * 1e3;
          break;
        case WireResponse::Kind::kIngested:
          ++w->ingested;
          if (ingest) ms = (o.recv_s - p.due_s) * 1e3;
          break;
        case WireResponse::Kind::kShed:
          ++w->shed;
          break;
        case WireResponse::Kind::kError:
          ++w->error;
          break;
      }
    }
    (ingest ? w->ingest_ms : w->topk_ms).push_back(ms);
    w->latency_ms.push_back(ms);
  }
}

/// Median over `slices` equal time slices of the window of the q-quantile
/// of one request kind's latency: a stall of the shared host spoils one
/// slice's tail, not the reported value.
double SliceMedian(const Window& w, tcss::ServeVerb verb, double q,
                   int slices) {
  std::vector<std::vector<double>> parts(static_cast<size_t>(slices));
  for (size_t i = 0; i < w.plan.size(); ++i) {
    if (w.plan[i].req.verb != verb) continue;
    const int s = std::min(
        slices - 1, static_cast<int>(w.plan[i].due_s / w.seconds * slices));
    parts[static_cast<size_t>(s)].push_back(w.latency_ms[i]);
  }
  std::vector<double> quantiles;
  for (const auto& part : parts) {
    if (!part.empty()) quantiles.push_back(Quantile(part, q));
  }
  return Median(quantiles);
}

double FailedShare(const Window& w) {
  const double sent = static_cast<double>(w.plan.size());
  return sent > 0 ? static_cast<double>(w.shed + w.error + w.unanswered) / sent
                  : 1.0;
}

bool MeetsSlo(const Window& w) {
  return Quantile(w.topk_ms, 0.99) <= kSloP99Ms &&
         FailedShare(w) <= kSloFailedShare &&
         Quantile(w.late_ms, 0.50) <= kSloLateP50Ms;
}

/// Where between a passing rung and the next, failing one the limits
/// were crossed, taking p99 as linear in the rate and the failed share as
/// the offered load above capacity. The generator falling behind gives no
/// estimate: the passing rate stands.
double SloCrossing(const Window& pass, const Window& fail) {
  double est = fail.rate;
  const double p99_pass = Quantile(pass.topk_ms, 0.99);
  const double p99_fail = Quantile(fail.topk_ms, 0.99);
  if (std::isfinite(p99_fail) && p99_fail > kSloP99Ms &&
      p99_fail > p99_pass) {
    est = std::min(est, pass.rate + (fail.rate - pass.rate) *
                                        (kSloP99Ms - p99_pass) /
                                        (p99_fail - p99_pass));
  }
  const double failed = FailedShare(fail);
  if (failed > kSloFailedShare) {
    est = std::min(est, fail.rate * (1.0 - failed) / (1.0 - kSloFailedShare));
  }
  if (Quantile(fail.late_ms, 0.50) > kSloLateP50Ms) est = pass.rate;
  return std::clamp(est, pass.rate, fail.rate);
}

/// One serving instance: watcher -> streaming engine -> service -> server.
struct Stack {
  tcss::obs::MetricRegistry registry;
  std::unique_ptr<tcss::ModelWatcher> watcher;
  std::unique_ptr<tcss::StreamingEngine> engine;
  std::unique_ptr<tcss::RecommendService> service;
  std::unique_ptr<tcss::Server> server;
};

tcss::ModelWatcher::Options WatcherOptions(const tcss::Dataset& data,
                                           tcss::obs::MetricRegistry* reg) {
  tcss::ModelWatcher::Options o;
  o.num_users = data.num_users();
  o.num_pois = data.num_pois();
  o.num_bins = tcss::NumBins(kGranularity);
  o.metrics = reg;
  return o;
}

tcss::StreamingEngine::Options EngineOptions(const WorkloadSpec& spec,
                                             tcss::obs::MetricRegistry* reg) {
  tcss::StreamingEngine::Options o;
  o.granularity = kGranularity;
  o.rollover_every = spec.rollover_every;
  o.model_path = kModelPath;
  o.metrics = reg;
  return o;
}

/// Builds and starts one stack (the timed serving set-up); null on error.
std::unique_ptr<Stack> StartStack(const WorkloadSpec& spec,
                                  const tcss::Dataset& data, Tracer* tracer,
                                  Report* report) {
  Tracer::Span span(tracer, "setup.serve", 0);
  auto s = std::make_unique<Stack>();
  s->watcher = std::make_unique<tcss::ModelWatcher>(
      kModelPath, WatcherOptions(data, &s->registry));
  s->engine = std::make_unique<tcss::StreamingEngine>(
      data, s->watcher.get(), EngineOptions(spec, &s->registry));
  tcss::RecommendService::Options so;
  so.incremental = s->engine->fold_in();
  so.metrics = &s->registry;
  s->service = std::make_unique<tcss::RecommendService>(
      &data, kGranularity, s->watcher.get(), so);
  tcss::Status st = s->service->Init();
  if (!st.ok() || s->watcher->current() == nullptr) {
    report->Fail("service init: " + st.ToString() + " / " +
                 s->watcher->last_error().ToString());
    return nullptr;
  }
  tcss::ServerOptions sv;
  sv.num_workers = kThreads;
  tcss::StreamingEngine* engine = s->engine.get();
  sv.ingest_handler = [engine](const ServeRequest& req) {
    return engine->Ingest(req);
  };
  sv.metrics = &s->registry;
  s->server = std::make_unique<tcss::Server>(s->service.get(), kSocketPath, sv);
  st = s->server->Start();
  if (!st.ok()) {
    report->Fail("server start: " + st.ToString());
    return nullptr;
  }
  return s;
}

// --- output checks ---------------------------------------------------------

/// Visited POIs per user in the full-data tensor the service excludes.
std::vector<std::vector<uint32_t>> VisitedSets(const tcss::SparseTensor& t) {
  std::vector<std::vector<uint32_t>> v(t.dim_i());
  for (const auto& e : t.entries()) v[e.i].push_back(e.j);
  for (auto& s : v) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  return v;
}

struct CheckContext {
  const Mix* mix;
  const std::vector<std::vector<uint32_t>>* visited;
  const tcss::SparseTensor* tensor;
  std::vector<FactorModel> generations;  ///< served model, then each rollover
};

std::vector<uint32_t> FenceSet(const CheckContext& cx, const ServeRequest& r) {
  std::vector<uint32_t> fence;
  for (uint32_t j = 0; j < cx.mix->num_pois; ++j) {
    if (tcss::HaversineKm(r.center, cx.mix->poi_locations[j]) <=
        r.within_km) {
      fence.push_back(j);
    }
  }
  return fence;
}

bool Visited(const CheckContext& cx, uint32_t user, uint32_t poi) {
  if (user >= cx.visited->size()) return false;
  const auto& v = (*cx.visited)[user];
  return std::binary_search(v.begin(), v.end(), poi);
}

/// k, `new` and the geo fence; returns an empty string when they hold.
std::string CheckShape(const CheckContext& cx, const ServeRequest& r,
                       const std::vector<Recommendation>& recs) {
  if (recs.size() > r.k) return "more than k recommendations";
  std::set<uint32_t> seen;
  for (const Recommendation& rec : recs) {
    if (rec.poi >= cx.mix->num_pois) return "POI id out of range";
    if (!seen.insert(rec.poi).second) return "duplicate POI";
    if (r.exclude_visited && Visited(cx, r.user, rec.poi)) {
      return "visited POI under `new`";
    }
    if (r.within_km > 0 &&
        tcss::HaversineKm(r.center, cx.mix->poi_locations[rec.poi]) >
            r.within_km * (1 + 1e-9)) {
      return "POI outside the geo fence";
    }
  }
  if (recs.size() < r.k) {
    // Fewer than k only when fewer POIs are eligible.
    size_t eligible = 0;
    const std::vector<uint32_t> fence =
        r.within_km > 0 ? FenceSet(cx, r) : std::vector<uint32_t>{};
    for (uint32_t j = 0; j < cx.mix->num_pois; ++j) {
      if (r.within_km > 0 &&
          !std::binary_search(fence.begin(), fence.end(), j)) {
        continue;
      }
      if (r.exclude_visited && Visited(cx, r.user, j)) continue;
      ++eligible;
    }
    if (recs.size() != std::min(eligible, r.k)) return "fewer than k answers";
  }
  return "";
}

/// A model-tier answer must equal the f64 oracle's top-k (canonical
/// ties) for one of the model generations that were live. Positions may
/// differ only between POIs whose exact scores tie within 1e-12.
bool MatchesOracle(const FactorModel& g, const CheckContext& cx,
                   const ServeRequest& r,
                   const std::vector<Recommendation>& recs) {
  FactorScorer scorer(&g);
  tcss::TopKOptions o;
  o.k = r.k;
  o.exclude_visited = r.exclude_visited;
  if (r.within_km > 0) {
    o.candidates = FenceSet(cx, r);
    if (o.candidates.empty()) return recs.empty();
  }
  const std::vector<Recommendation> want = tcss::proptest::OracleTopK(
      scorer, r.user, r.time_bin, cx.mix->num_pois, o, cx.tensor);
  if (want.size() != recs.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    const double exact = g.Predict(r.user, recs[i].poi, r.time_bin);
    if (tcss::proptest::RelDiff(exact, want[i].score) > 1e-12 ||
        tcss::proptest::RelDiff(exact, recs[i].score) > 1e-12) {
      return false;
    }
  }
  return true;
}

/// Checks every answer of a window. Model-tier answers are compared with
/// the oracle when `oracle` is set (the nominal window).
void CheckWindow(const Window& w, const CheckContext& cx, bool oracle,
                 uint64_t degrades, Report* report) {
  std::vector<size_t> model_answers;
  for (size_t i = 0; i < w.plan.size(); ++i) {
    const Planned& p = w.plan[i];
    const Outcome& o = w.out[i];
    if (o.responses > 1) {
      report->Fail(tcss::StrFormat("request %zu answered %d times", i,
                                   o.responses));
      return;
    }
    if (o.responses == 1 && !o.parsed) {
      report->Fail(tcss::StrFormat("request %zu: unparseable response", i));
      return;
    }
    if (o.responses == 0) continue;
    const bool ingest = p.req.verb == tcss::ServeVerb::kIngest;
    if ((o.resp.kind == WireResponse::Kind::kOk && ingest) ||
        (o.resp.kind == WireResponse::Kind::kIngested && !ingest)) {
      report->Fail(tcss::StrFormat("request %zu: answer of the wrong verb", i));
      return;
    }
    if (o.resp.kind != WireResponse::Kind::kOk) continue;
    const ServeTier tier = o.resp.tier;
    if (tier != p.expect &&
        !(tier == ServeTier::kPopularity && degrades > 0)) {
      report->Fail(tcss::StrFormat("request %zu served by tier %s, not %s", i,
                                   tcss::ServeTierName(tier),
                                   tcss::ServeTierName(p.expect)));
      return;
    }
    const std::string bad = CheckShape(cx, p.req, o.resp.recs);
    if (!bad.empty()) {
      report->Fail(tcss::StrFormat("request %zu: %s", i, bad.c_str()));
      return;
    }
    if (oracle && tier == ServeTier::kModel) model_answers.push_back(i);
  }
  // Oracle comparison, spread over a few threads.
  std::atomic<size_t> next{0}, mismatch{SIZE_MAX};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      for (size_t n; (n = next.fetch_add(1)) < model_answers.size();) {
        const size_t i = model_answers[n];
        bool ok = false;
        for (const FactorModel& g : cx.generations) {
          if (MatchesOracle(g, cx, w.plan[i].req, w.out[i].resp.recs)) {
            ok = true;
            break;
          }
        }
        if (!ok) {
          size_t cur = mismatch.load();
          while (i < cur && !mismatch.compare_exchange_weak(cur, i)) {
          }
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (mismatch.load() != SIZE_MAX) {
    report->Fail(tcss::StrFormat(
        "request %zu: model-tier answer differs from the f64 oracle",
        mismatch.load()));
  }
}


// --- traced replay ---------------------------------------------------------

/// Reads one column of the J x B score matrix a batch gemm produced.
class ColumnScores : public tcss::Recommender {
 public:
  ColumnScores(const tcss::Matrix* scores, size_t col)
      : scores_(scores), col_(col) {}
  std::string name() const override { return "perfbench-column"; }
  tcss::Status Fit(const tcss::TrainContext&) override {
    return tcss::Status::OK();
  }
  double Score(uint32_t, uint32_t j, uint32_t) const override {
    return (*scores_)(j, col_);
  }

 private:
  const tcss::Matrix* scores_;
  size_t col_;
};

double PerCallUs(const Tracer& tracer, const char* name) {
  const size_t n = tracer.Count(name);
  return n > 0 ? tracer.SelfMs(name) * 1e3 / static_cast<double>(n) : 0.0;
}

/// Replays the nominal window's schedule in-process through the public
/// calls, one span around each: DecodeFrame + ParseRequestLine, PlanTier,
/// BatchTopK in the batch size the server formed, EncodeResponsePayload +
/// EncodeFrame, Ingest and Rollover at the server's cadence, then Poll on
/// a changed model file. The batch's gemm and its per-request selection
/// (with and without `new`) are timed again on their own.
void TraceReplay(const WorkloadSpec& spec, const tcss::Dataset& data,
                 const FactorModel& served, const tcss::SparseTensor& full,
                 const Mix& mix, const Window& w, double batch_size,
                 Tracer* tracer, Report* report) {
  (void)tcss::SaveFactorModel(served, kModelPath);
  tcss::obs::MetricRegistry registry;
  tcss::ModelWatcher watcher(kModelPath, WatcherOptions(data, &registry));
  WorkloadSpec manual = spec;
  manual.rollover_every = 0;  // rollovers are called (and traced) below
  tcss::StreamingEngine engine(data, &watcher,
                               EngineOptions(manual, &registry));
  tcss::RecommendService::Options so;
  so.incremental = engine.fold_in();
  so.metrics = &registry;
  tcss::RecommendService service(&data, kGranularity, &watcher, so);
  if (!service.Init().ok()) {
    report->Fail("replay: service init");
    return;
  }

  // Cold fold-in solves for a spread of fold-in-tier users.
  engine.fold_in()->BindModel(watcher.current(), watcher.generation());
  for (uint32_t u = static_cast<uint32_t>(mix.model_users), n = 0;
       u < mix.num_users && n < 64; u += 7, ++n) {
    Tracer::Span span(tracer, "fold_in.solve", u);
    (void)engine.fold_in()->Embedding(u);
  }

  const size_t batch = std::max<long>(1, std::lround(batch_size));
  const size_t num_pois = data.num_pois();
  std::vector<ServeRequest> pending;
  std::vector<uint64_t> ids;
  uint64_t accepted = 0;
  auto flush = [&] {
    if (pending.empty()) return;
    std::vector<tcss::RecommendService::Response> resp;
    {
      Tracer::Span span(tracer, "service.batch_topk", ids.front());
      resp = service.BatchTopK(pending);
    }
    for (size_t b = 0; b < resp.size(); ++b) {
      Tracer::Span span(tracer, "frontend.encode", ids[b]);
      WireResponse wr;
      wr.kind = WireResponse::Kind::kOk;
      wr.tier = resp[b].tier;
      wr.latency_ms = resp[b].latency_ms;
      wr.recs = std::move(resp[b].recs);
      (void)tcss::EncodeResponseFrame(
          {ids[b], tcss::EncodeResponsePayload(wr)});
    }
    // Score / select split: one gemm over the model-tier query rows, then
    // each request's selection without and with the visited filter.
    std::shared_ptr<const FactorModel> model = watcher.current();
    std::vector<size_t> rows;
    for (size_t b = 0; b < pending.size(); ++b) {
      if (pending[b].user < model->u1.rows()) rows.push_back(b);
    }
    if (!rows.empty()) {
      const size_t r = model->rank();
      tcss::Matrix q(rows.size(), r);
      for (size_t n = 0; n < rows.size(); ++n) {
        const ServeRequest& req = pending[rows[n]];
        for (size_t t = 0; t < r; ++t) {
          q(n, t) = model->h[t] * model->u1(req.user, t) *
                    model->u3(req.time_bin, t);
        }
      }
      tcss::Matrix scores;
      {
        Tracer::Span span(tracer, "service.score", ids[rows[0]]);
        scores = tcss::MatMulT(model->u2, q);
      }
      for (size_t n = 0; n < rows.size(); ++n) {
        const ServeRequest& req = pending[rows[n]];
        const ColumnScores column(&scores, n);
        tcss::TopKOptions o;
        o.k = req.k;
        {
          Tracer::Span span(tracer, "service.select", ids[rows[n]]);
          (void)tcss::TopKRecommendations(column, req.user, req.time_bin,
                                          num_pois, o, &full);
        }
        o.exclude_visited = true;
        {
          Tracer::Span span(tracer, "service.select_excl", ids[rows[n]]);
          (void)tcss::TopKRecommendations(column, req.user, req.time_bin,
                                          num_pois, o, &full);
        }
      }
    }
    pending.clear();
    ids.clear();
  };

  for (size_t i = 0; i < w.plan.size(); ++i) {
    const uint64_t id = w.first_id + i;
    ServeRequest req;
    {
      Tracer::Span span(tracer, "frontend.decode", id);
      tcss::Frame f;
      size_t consumed = 0;
      auto frame = tcss::DecodeFrame(tcss::kRequestMagic, w.plan[i].frame,
                                     &f, &consumed);
      auto parsed = tcss::ParseRequestLine(f.payload);
      if (!frame.ok() || !frame.value() || !parsed.ok()) {
        report->Fail("replay: request does not decode");
        return;
      }
      req = parsed.MoveValue();
    }
    if (req.verb == tcss::ServeVerb::kIngest) {
      {
        Tracer::Span span(tracer, "stream.ingest", id);
        if (engine.Ingest(req).ok()) ++accepted;
      }
      if (spec.rollover_every > 0 && accepted > 0 &&
          accepted % spec.rollover_every == 0) {
        Tracer::Span span(tracer, "stream.rollover", id);
        (void)engine.Rollover();
      }
      continue;
    }
    {
      Tracer::Span span(tracer, "service.plan_tier", id);
      (void)service.PlanTier(req);
    }
    pending.push_back(req);
    ids.push_back(id);
    if (pending.size() >= batch) flush();
  }
  flush();
  if (tracer->Count("stream.rollover") == 0) {
    Tracer::Span span(tracer, "stream.rollover", 0);
    (void)engine.Rollover();
  }

  // Hot reload of a changed file, alternating two generations.
  tcss::SliceRoller roller(tcss::NumBins(kGranularity));
  const FactorModel other = roller.Roll(served).model;
  std::vector<double> reload_ms;
  for (int n = 0; n < 3; ++n) {
    (void)tcss::SaveFactorModel(n % 2 == 0 ? served : other, kModelPath);
    const Clock::time_point t0 = Clock::now();
    tcss::ModelWatcher::PollResult res;
    {
      Tracer::Span span(tracer, "reload.poll", 0);
      res = watcher.Poll();
    }
    if (res == tcss::ModelWatcher::PollResult::kReloaded) {
      reload_ms.push_back(SecondsSince(t0) * 1e3);
    }
  }

  const double topk = static_cast<double>(tracer->Count("service.plan_tier"));
  report->Metric("frontend.decode_us", PerCallUs(*tracer, "frontend.decode"),
                 "us");
  report->Metric("frontend.encode_us", PerCallUs(*tracer, "frontend.encode"),
                 "us");
  report->Metric("service.plan_us_per_req",
                 PerCallUs(*tracer, "service.plan_tier"), "us");
  report->Metric("service.batch_us_per_req",
                 topk > 0 ? tracer->SelfMs("service.batch_topk") * 1e3 / topk
                          : 0.0,
                 "us");
  const double scored =
      static_cast<double>(tracer->Count("service.select"));
  report->Metric("service.score_us_per_req",
                 scored > 0 ? tracer->SelfMs("service.score") * 1e3 / scored
                            : 0.0,
                 "us");
  report->Metric("service.select_us_per_req",
                 PerCallUs(*tracer, "service.select"), "us");
  report->Metric("service.select_excl_us_per_req",
                 PerCallUs(*tracer, "service.select_excl"), "us");
  report->Metric("service.visited_scan_entries",
                 static_cast<double>(full.nnz()), "count");
  report->Metric("fold_in.solve_us", PerCallUs(*tracer, "fold_in.solve"),
                 "us");
  report->Metric("stream.ingest_us", PerCallUs(*tracer, "stream.ingest"),
                 "us");
  report->Metric("stream.rollover_ms",
                 PerCallUs(*tracer, "stream.rollover") / 1e3, "ms");
  report->Metric("reload.ms", Median(reload_ms), "ms");
}

/// Registry quantile of a histogram over one window, in its own unit.
double WindowQuantile(const tcss::obs::MetricsSnapshot& before,
                      const tcss::obs::MetricsSnapshot& after,
                      const char* name, double q) {
  return HistDelta(before, after, name).Quantile(q);
}

}  // namespace

void RunServing(const WorkloadSpec& spec, const RunArgs& args,
                const tcss::Dataset& data, const FactorModel& trained,
                Report* report, Tracer* tracer) {
  // The served model covers the first 90% of users; the rest are served
  // by fold-in from their check-in history.
  const size_t model_users = data.num_users() * 9 / 10;
  FactorModel served = trained;
  served.u1 = tcss::Matrix(model_users, trained.rank());
  std::copy(trained.u1.data(),
            trained.u1.data() + model_users * trained.rank(),
            served.u1.data());
  Rand rng(args.seed * 0x2545f4914f6cdd1dULL + 0x51ed27);
  const Mix mix = MakeMix(data, model_users, &rng);
  auto full = tcss::BuildCheckinTensor(data, kGranularity);
  if (!full.ok()) {
    report->Fail("full tensor: " + full.status().ToString());
    return;
  }

  // Set-up (first model load + service Init + engine + server start),
  // timed several times; the last stack serves the load.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (stack != nullptr) {
      (void)stack->server->Stop();
      stack.reset();
    }
    (void)tcss::SaveFactorModel(served, kModelPath);
    const Clock::time_point t0 = Clock::now();
    stack = StartStack(spec, data, tracer, report);
    if (stack == nullptr) return;
    setup_s.push_back(SecondsSince(t0));
  }
  report->Metric("setup_serve_s", Median(setup_s), "s");

  tcss::Env* env = tcss::Env::Default();
  uint64_t next_id = 1;
  // The nominal window carries no deadlines: one host stall of ~50 ms lifts
  // a tier's latency EWMA past a 10 ms deadline, after which admission
  // control sheds every request of that tier and no completion ever lowers
  // the EWMA again. Deadlines are exercised by the ladder below.
  Window nominal = PlanWindow(mix, spec.nominal_rate, args.seconds, 0,
                              /*deadline=*/false, next_id, &rng);
  next_id += nominal.plan.size();
  const tcss::obs::MetricsSnapshot reg_before = stack->registry.Snapshot();
  {
    Tracer::Span span(tracer, "load.nominal", 0);
    RunWindow(env, &nominal);
  }
  const tcss::obs::MetricsSnapshot reg_after = stack->registry.Snapshot();
  if (args.inject == "drop_response" && !nominal.out.empty()) {
    nominal.out[nominal.out.size() / 2] = Outcome{};
  }
  Tally(&nominal);
  // Peak memory of the measured phases, read before the heavier load
  // generation below adds the generator's own buffers to the process.
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");

  // Capacity probes, reported by the traced run only (their figures vary
  // too much run to run on a shared host to carry a bound):
  //  * saturation: the same mix without deadlines, closed-loop with
  //    kSaturationDepth requests in flight per connection;
  //  * slo_qps: climb a fixed ladder (x1.25 per rung) above the nominal
  //    rate until a rung misses the limits twice in a row, then estimate
  //    where between the last two rungs the limits were crossed.
  Window saturation;
  std::vector<Window> ladder;
  ladder.reserve(2 * kLadderRungs);  // `pass` points into it
  double slo_qps = 0.0;
  if (tracer->enabled()) {
    saturation = PlanWindow(mix, spec.saturation_requests, 1.0,
                            kSaturationDepth, /*deadline=*/false, next_id,
                            &rng);
    next_id += saturation.plan.size();
    {
      Tracer::Span span(tracer, "load.saturation", 0);
      RunWindow(env, &saturation);
    }
    Tally(&saturation);
    report->Metric("saturation_qps", Throughput(saturation), "req/s");

    const Window* pass = &nominal;
    const double step_s = std::clamp(args.seconds * 0.15, 0.3, 1.0);
    double rate = spec.nominal_rate;
    for (int rung = 0; rung < kLadderRungs; ++rung) {
      rate *= 1.25;
      const Window* best = nullptr;
      for (int attempt = 0; attempt < 2; ++attempt) {
        ladder.push_back(PlanWindow(mix, rate, step_s, 0, /*deadline=*/true,
                                    next_id, &rng));
        Window& w = ladder.back();
        next_id += w.plan.size();
        {
          Tracer::Span span(tracer, "load.ladder", 0);
          RunWindow(env, &w);
        }
        Tally(&w);
        if (best == nullptr || FailedShare(w) < FailedShare(*best)) best = &w;
        if (MeetsSlo(w)) break;
      }
      if (MeetsSlo(*best)) {
        slo_qps = best->rate;
        pass = best;
        continue;
      }
      slo_qps = SloCrossing(*pass, *best);
      break;
    }
    report->Metric("slo_qps", slo_qps, "req/s");
  }

  tcss::Status stopped = stack->server->Stop();
  if (!stopped.ok()) report->Fail("server stop: " + stopped.ToString());
  const tcss::ServerStats server = stack->server->stats();
  const tcss::StreamingEngine::Stats stream = stack->engine->stats();
  const tcss::ServiceStats service = stack->service->Stats();

  // --- checks ---
  if (server.frames_received != server.responses_ok +
                                    server.responses_ingested +
                                    server.responses_error +
                                    server.shed_total()) {
    report->Fail("server ledger: " + server.ToString());
  }
  uint64_t acks = 0;
  std::vector<Window*> windows = {&nominal, &saturation};
  for (Window& w : ladder) windows.push_back(&w);
  for (const Window* w : windows) {
    acks += w->ingested;
    if (w->unanswered != 0) {
      report->Fail(tcss::StrFormat(
          "%llu of %zu requests unanswered at %.0f req/s",
          static_cast<unsigned long long>(w->unanswered), w->plan.size(),
          w->rate));
    }
  }
  if (acks != stream.accepted) {
    report->Fail(tcss::StrFormat(
        "%llu ingest acks but the engine accepted %llu",
        static_cast<unsigned long long>(acks),
        static_cast<unsigned long long>(stream.accepted)));
  }
  CheckContext cx;
  cx.mix = &mix;
  const std::vector<std::vector<uint32_t>> visited = VisitedSets(full.value());
  cx.visited = &visited;
  cx.tensor = &full.value();
  cx.generations.push_back(served);
  tcss::SliceRoller roller(tcss::NumBins(kGranularity));
  for (uint64_t n = 0; n < stream.rollovers; ++n) {
    cx.generations.push_back(roller.Roll(cx.generations.back()).model);
  }
  if (args.inject == "swap_topk") {
    for (Outcome& o : nominal.out) {
      if (o.parsed && o.resp.kind == WireResponse::Kind::kOk &&
          o.resp.tier == ServeTier::kModel && o.resp.recs.size() >= 2 &&
          o.resp.recs[0].score != o.resp.recs[1].score) {
        std::swap(o.resp.recs[0], o.resp.recs[1]);
        break;
      }
    }
  }
  CheckWindow(nominal, cx, /*oracle=*/true, service.deadline_degrades,
              report);
  CheckWindow(saturation, cx, /*oracle=*/false, service.deadline_degrades,
              report);
  for (const Window& w : ladder) {
    CheckWindow(w, cx, /*oracle=*/false, service.deadline_degrades, report);
  }

  // --- end-to-end metrics (nominal rate) ---
  report->Attempted(nominal.plan.size(),
                    nominal.shed + nominal.error + nominal.unanswered);
  auto finite = [](double v) { return std::isfinite(v) ? v : 1e6; };
  const tcss::ServeVerb topk_verb = tcss::ServeVerb::kTopK;
  const tcss::ServeVerb ingest_verb = tcss::ServeVerb::kIngest;
  report->Metric("topk_p50_ms",
                 finite(SliceMedian(nominal, topk_verb, 0.50, kSlices)), "ms");
  report->Metric("topk_p99_ms",
                 finite(SliceMedian(nominal, topk_verb, 0.99, kSlices)), "ms");
  report->Metric("ingest_p50_ms",
                 finite(SliceMedian(nominal, ingest_verb, 0.50, kSlices)),
                 "ms");
  report->Metric("ingest_p99_ms",
                 finite(SliceMedian(nominal, ingest_verb, 0.99, kSlices)),
                 "ms");
  report->Metric(
      "served_share",
      static_cast<double>(nominal.ok + nominal.ingested) /
          static_cast<double>(std::max<size_t>(1, nominal.plan.size())),
      "ratio");

  // --- per-layer metrics read from the serve.* / stream.* registry ---
  report->Metric("server.queue_wait_ms_p50",
                 WindowQuantile(reg_before, reg_after, "serve.queue_wait_ms",
                                0.50),
                 "ms");
  report->Metric("server.queue_wait_ms_p99",
                 WindowQuantile(reg_before, reg_after, "serve.queue_wait_ms",
                                0.99),
                 "ms");
  report->Metric("server.batch_ms_p50",
                 WindowQuantile(reg_before, reg_after, "serve.batch_ms", 0.50),
                 "ms");
  report->Metric("server.batch_ms_p99",
                 WindowQuantile(reg_before, reg_after, "serve.batch_ms", 0.99),
                 "ms");
  const tcss::obs::HistogramSnapshot batches =
      HistDelta(reg_before, reg_after, "serve.batch_size");
  const double batch_mean =
      batches.count > 0 ? batches.sum / static_cast<double>(batches.count)
                        : 1.0;
  report->Metric("server.batch_size_mean", batch_mean, "count");
  for (int r = 0; r < tcss::kNumShedReasons; ++r) {
    const char* reason = tcss::ShedReasonName(static_cast<tcss::ShedReason>(r));
    report->Metric(
        std::string("server.shed.") + reason,
        static_cast<double>(CounterDelta(
            reg_before, reg_after, std::string("serve.shed.") + reason)),
        "count");
  }
  const double queries = static_cast<double>(
      std::max<uint64_t>(1, service.total_queries));
  for (int t = 0; t < tcss::kNumServeTiers; ++t) {
    report->Metric(
        std::string("service.tier_share.") +
            tcss::ServeTierName(static_cast<ServeTier>(t)),
        static_cast<double>(service.queries_by_tier[t]) / queries, "ratio");
  }
  report->Metric("service.deadline_degrades",
                 static_cast<double>(service.deadline_degrades), "count");
  const double lookups = static_cast<double>(service.fold_in_cache_hits +
                                             service.fold_in_cache_misses);
  report->Metric("fold_in.hit_ratio",
                 lookups > 0 ? service.fold_in_cache_hits / lookups : 0.0,
                 "ratio");
  report->Metric("fold_in.lookups", lookups, "count");
  report->Metric("reload.count",
                 static_cast<double>(service.reload_successes), "count");
  report->Metric("stream.accepted", static_cast<double>(stream.accepted),
                 "count");
  report->Metric("stream.rejected", static_cast<double>(stream.rejected),
                 "count");
  report->Metric("stream.rollovers", static_cast<double>(stream.rollovers),
                 "count");
  report->Metric("loadgen.late_ms_p99", Quantile(nominal.late_ms, 0.99),
                 "ms");
  report->Metric("loadgen.late_ms_max", Quantile(nominal.late_ms, 1.0), "ms");

  // --- property shares of the offered mix, each with its base ---
  double fenced = 0, fresh = 0, tier[tcss::kNumServeTiers] = {0, 0, 0};
  for (const Planned& p : nominal.plan) {
    if (p.req.verb != tcss::ServeVerb::kTopK) continue;
    fenced += p.req.within_km > 0 ? 1 : 0;
    fresh += p.req.exclude_visited ? 1 : 0;
    tier[static_cast<int>(p.expect)] += 1;
  }
  const double sent = static_cast<double>(nominal.plan.size());
  const double topk = static_cast<double>(nominal.topk);
  report->Share("ingest", static_cast<double>(nominal.ingest), sent);
  report->Share("topk.new", fresh, topk);
  report->Share("topk.geo_fenced", fenced, topk);
  for (int t = 0; t < tcss::kNumServeTiers; ++t) {
    report->Share(std::string("topk.tier.") +
                      tcss::ServeTierName(static_cast<ServeTier>(t)),
                  tier[t], topk);
  }
  report->Share("fold_in.cache_hit", static_cast<double>(
                    service.fold_in_cache_hits), lookups);
  report->Context("offered_rate", tcss::StrFormat("%g", spec.nominal_rate));
  report->Context("serve_workers", std::to_string(kThreads));
  report->Context("connections", std::to_string(kConnections));
  report->Context("rollover_every", std::to_string(spec.rollover_every));
  std::vector<const Window*> rung_windows = {&nominal};
  for (const Window& w : ladder) rung_windows.push_back(&w);
  std::string rungs = "[";
  for (const Window* w : rung_windows) {
    rungs += tcss::StrFormat(
        "%s{\"rate\": %g, \"p99_ms\": %.4g, \"failed_share\": %.4g, "
        "\"late_p50_ms\": %.4g}",
        w == rung_windows.front() ? "" : ", ", w->rate,
        finite(Quantile(w->topk_ms, 0.99)), FailedShare(*w),
        Quantile(w->late_ms, 0.50));
  }
  report->Context("ladder", rungs + "]");

  if (tracer->enabled()) {
    TraceReplay(spec, data, served, full.value(), mix, nominal, batch_mean,
                tracer, report);
  }
}

}  // namespace perfbench
