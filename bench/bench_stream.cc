// Streaming-ingestion benchmark for src/stream/ (DESIGN.md §14). Three
// phases:
//
//   1. Ingest throughput: a drifting check-in stream is pushed through
//      StreamingEngine::Ingest (delta-buffer validation + incremental
//      rank-1 fold-in update per event) and we report accepted events
//      per second, plus the solve latency of a cold embedding query
//      after the flood.
//   2. Rollover latency: one full cycle of time-slice retirements
//      (publish a cyclic-neighbour-warm-started model through the
//      SaveFactorModel + ModelWatcher hot-swap path, then drop the
//      retired bin from the delta and fold-in state); mean and worst
//      milliseconds per rollover.
//   3. Chronological evaluation: the prequential protocol from
//      tests/stream_test.cc at bench scale — train a static model
//      before the 70% time cutoff, then score every post-cutoff event
//      with (a) the frozen trained factors, (b) frozen fold-in, and
//      (c) streaming fold-in that ingests each event after predicting
//      it. Reports hit@10 and MRR for all three so the freshness win
//      on drifting traffic is a tracked number, not just a test gate.
//
// Human-readable table on stdout; TCSS_BENCH_JSON appends machine rows
// (bench "stream"). TCSS_BENCH_SCALE (default 1.0) scales event counts
// for quick smoke runs; the ctest `bench_stream` (label `bench`) runs it
// at 0.1. Exits non-zero when a phase fails.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/fold_in.h"
#include "core/incremental_fold_in.h"
#include "core/model_io.h"
#include "core/tcss_model.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "data/time_binning.h"
#include "eval/chronological.h"
#include "serve/model_watcher.h"
#include "serve/request.h"
#include "stream/streaming_engine.h"

namespace tcss {
namespace {

std::string ScratchModelPath() {
  const auto dir = std::filesystem::temp_directory_path() / "tcss_bench_stream";
  std::filesystem::create_directories(dir);
  return (dir / "live.model").string();
}

FactorModel RandomModel(size_t users, size_t pois, size_t bins, size_t rank,
                        uint64_t seed) {
  Rng rng(seed);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(users, rank, &rng);
  m.u2 = Matrix::GaussianRandom(pois, rank, &rng);
  m.u3 = Matrix::GaussianRandom(bins, rank, &rng);
  m.h.assign(rank, 1.0 / static_cast<double>(rank));
  return m;
}

// --- Phase 1 + 2: ingest throughput and rollover latency -----------------

bool BenchIngestAndRollover() {
  const double scale = bench::BenchScale();
  DriftStreamConfig cfg;
  cfg.num_users = 400;
  cfg.num_pois = 300;
  cfg.num_events = static_cast<size_t>(20000 * scale);
  auto gen = GenerateDriftStream(cfg);
  if (!gen.ok()) {
    std::fprintf(stderr, "drift stream: %s\n", gen.status().ToString().c_str());
    return false;
  }
  const Dataset& data = gen.value();
  const std::string dataset =
      "drift" + std::to_string(cfg.num_users) + "x" +
      std::to_string(cfg.num_pois);

  const std::string path = ScratchModelPath();
  const FactorModel seed_model =
      RandomModel(cfg.num_users, cfg.num_pois,
                  NumBins(TimeGranularity::kMonthOfYear), 16, 77);
  Status saved = SaveFactorModel(seed_model, path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return false;
  }

  ModelWatcher::Options wopts;
  wopts.num_users = cfg.num_users;
  wopts.num_pois = cfg.num_pois;
  wopts.num_bins = NumBins(TimeGranularity::kMonthOfYear);
  ModelWatcher watcher(path, wopts);
  (void)watcher.Poll();

  StreamingEngine::Options eopts;
  eopts.granularity = TimeGranularity::kMonthOfYear;
  eopts.model_path = path;
  StreamingEngine engine(data, &watcher, eopts);
  // In the serving path RecommendService binds the incremental solver to
  // the watcher's model; the bench drives the engine directly, so bind
  // here or Embedding() has no factors to solve against.
  engine.fold_in()->BindModel(watcher.current(), watcher.generation());

  // Flood: every event of the drifting year, in stream order, repeated
  // until the timed region is long enough to measure (the first pass
  // pays the per-cell fold-in rank-1 updates; later passes are pure
  // validated appends, like a real log with revisits).
  const size_t passes = std::max<size_t>(1, 100000 / data.checkins().size());
  Stopwatch flood;
  for (size_t p = 0; p < passes; ++p) {
    for (const CheckInEvent& e : data.checkins()) {
      ServeRequest req;
      req.verb = ServeVerb::kIngest;
      req.user = e.user;
      req.poi = e.poi;
      req.timestamp = e.timestamp;
      (void)engine.Ingest(req);
    }
  }
  const double flood_s = flood.ElapsedSeconds();
  const StreamingEngine::Stats after_flood = engine.stats();
  const double events_per_sec =
      flood_s > 0.0 ? static_cast<double>(after_flood.accepted) / flood_s
                    : 0.0;

  // Cold-solve latency: first Embedding() after the flood pays the ridge
  // solve; amortized over the busiest users it is the per-query cost a
  // fold-in-tier request sees right after its owner checked in.
  Stopwatch solves;
  size_t solved = 0;
  for (uint32_t u = 0; u < cfg.num_users && solved < 100; ++u) {
    if (engine.fold_in()->Embedding(u) != nullptr) ++solved;
  }
  const double solve_us =
      solved > 0 ? solves.ElapsedMillis() * 1000.0 /
                       static_cast<double>(solved)
                 : 0.0;

  // One full cycle of rollovers (12 monthly slices).
  std::vector<double> roll_ms;
  for (int r = 0; r < 12; ++r) {
    Stopwatch one;
    Status st = engine.Rollover();
    if (!st.ok()) {
      std::fprintf(stderr, "rollover: %s\n", st.ToString().c_str());
      return false;
    }
    roll_ms.push_back(one.ElapsedMillis());
  }
  double mean_ms = 0.0, max_ms = 0.0;
  for (double ms : roll_ms) {
    mean_ms += ms;
    max_ms = std::max(max_ms, ms);
  }
  mean_ms /= static_cast<double>(roll_ms.size());

  // Drift gauge on a delta that actually drifted: a fresh engine whose
  // delta holds only the final quarter of the year, against the same
  // full-year base. (Replaying the whole base into the delta measures
  // zero by construction — identical histograms.)
  StreamingEngine tail_engine(data, &watcher, eopts);
  const size_t tail_start = data.checkins().size() * 3 / 4;
  for (size_t i = tail_start; i < data.checkins().size(); ++i) {
    const CheckInEvent& e = data.checkins()[i];
    ServeRequest req;
    req.verb = ServeVerb::kIngest;
    req.user = e.user;
    req.poi = e.poi;
    req.timestamp = e.timestamp;
    (void)tail_engine.Ingest(req);
  }
  const double tail_drift = tail_engine.DriftScore();

  std::printf("=== streaming ingest (%s, %zu events) ===\n", dataset.c_str(),
              data.checkins().size());
  std::printf("  ingest throughput : %10.0f events/s (accepted %llu)\n",
              events_per_sec,
              static_cast<unsigned long long>(after_flood.accepted));
  std::printf("  cold solve        : %10.1f us/user (n=%zu)\n", solve_us,
              solved);
  std::printf("  rollover latency  : %10.2f ms mean, %.2f ms max (12 rolls)\n",
              mean_ms, max_ms);
  std::printf("  tail drift score  : %10.3f (last quarter vs full year)\n",
              tail_drift);

  bench::AppendBenchJson("stream", dataset, "ingest_events_per_sec",
                         events_per_sec);
  bench::AppendBenchJson("stream", dataset, "cold_solve_us_per_user",
                         solve_us);
  bench::AppendBenchJson("stream", dataset, "rollover_ms_mean", mean_ms);
  bench::AppendBenchJson("stream", dataset, "rollover_ms_max", max_ms);
  bench::AppendBenchJson("stream", dataset, "tail_drift_score", tail_drift);
  return true;
}

// --- Phase 3: chronological static-vs-streaming --------------------------

struct RankSums {
  double hits = 0.0;
  double mrr = 0.0;
  size_t n = 0;
  double HitAt10() const {
    return n > 0 ? hits / static_cast<double>(n) : 0.0;
  }
  double Mrr() const { return n > 0 ? mrr / static_cast<double>(n) : 0.0; }
};

void RecordRank(const FactorModel& model, const std::vector<double>& emb,
                uint32_t poi, uint32_t bin, size_t num_pois, RankSums* sums) {
  const double target = FoldInScore(model, emb, poi, bin);
  size_t above = 0;
  for (uint32_t j = 0; j < num_pois; ++j) {
    if (j != poi && FoldInScore(model, emb, j, bin) > target) ++above;
  }
  const double rank = static_cast<double>(above + 1);
  if (rank <= 10.0) sums->hits += 1.0;
  sums->mrr += 1.0 / rank;
  ++sums->n;
}

bool BenchChronological() {
  const double scale = bench::BenchScale();
  DriftStreamConfig cfg;
  cfg.num_users = 200;
  cfg.num_pois = 160;
  cfg.num_events = static_cast<size_t>(12000 * scale);
  auto gen = GenerateDriftStream(cfg);
  if (!gen.ok()) {
    std::fprintf(stderr, "drift stream: %s\n", gen.status().ToString().c_str());
    return false;
  }
  const Dataset& data = gen.value();
  const std::string dataset =
      "drift" + std::to_string(cfg.num_users) + "x" +
      std::to_string(cfg.num_pois);

  // Hour-of-day bins: every bin has pre-cutoff coverage, so the drift the
  // protocol measures lives in the POI dimension — where streaming
  // fold-in can actually track it (see tests/stream_test.cc).
  const TimeGranularity gran = TimeGranularity::kHourOfDay;
  ChronoSplit split = ChronologicalSplit(data.checkins(), 0.7);
  auto built = BuildCheckinTensor(data, split.before, gran);
  if (!built.ok()) {
    std::fprintf(stderr, "tensor: %s\n", built.status().ToString().c_str());
    return false;
  }
  const auto before_tensor =
      std::make_shared<const SparseTensor>(built.MoveValue());
  TcssConfig tcfg;
  tcfg.rank = 8;
  tcfg.epochs = 80;
  Stopwatch fit;
  TcssTrainer trainer(data, *before_tensor, tcfg);
  auto trained = trainer.Train();
  if (!trained.ok()) {
    std::fprintf(stderr, "train: %s\n", trained.status().ToString().c_str());
    return false;
  }
  const double fit_s = fit.ElapsedSeconds();
  auto model = std::make_shared<const FactorModel>(trained.MoveValue());

  // Both fold-in scorers start from the pre-cutoff training tensor.
  IncrementalFoldIn frozen, streaming;
  frozen.BindModel(model, 1);
  streaming.BindModel(model, 1);
  frozen.BindCheckins(before_tensor);
  streaming.BindCheckins(before_tensor);

  RankSums static_model, static_fold, stream_fold;
  Stopwatch prequential;
  for (const CheckInEvent& e : split.after) {
    const uint32_t bin = TimeBin(e.timestamp, gran);
    if (e.user < model->u1.rows()) {
      std::vector<double> row(model->u1.row(e.user),
                              model->u1.row(e.user) + model->rank());
      RecordRank(*model, row, e.poi, bin, data.num_pois(), &static_model);
    }
    const std::vector<double>* femb = frozen.Embedding(e.user);
    const std::vector<double>* semb = streaming.Embedding(e.user);
    if (femb != nullptr && semb != nullptr) {
      RecordRank(*model, *femb, e.poi, bin, data.num_pois(), &static_fold);
      RecordRank(*model, *semb, e.poi, bin, data.num_pois(), &stream_fold);
    }
    streaming.Append(e.user, e.poi, bin);
  }
  const double preq_s = prequential.ElapsedSeconds();

  std::printf("\n=== chronological eval (%s, cutoff 0.7, %zu post-cutoff) ===\n",
              dataset.c_str(), split.after.size());
  std::printf("  %-18s %8s %8s\n", "scorer", "hit@10", "MRR");
  std::printf("  %-18s %8.4f %8.4f\n", "static model", static_model.HitAt10(),
              static_model.Mrr());
  std::printf("  %-18s %8.4f %8.4f\n", "static fold-in", static_fold.HitAt10(),
              static_fold.Mrr());
  std::printf("  %-18s %8.4f %8.4f\n", "streaming fold-in",
              stream_fold.HitAt10(), stream_fold.Mrr());
  std::printf("  fit %.1fs, prequential replay %.1fs\n", fit_s, preq_s);

  bench::AppendBenchJson("stream", dataset, "static_model_hit_at_10",
                         static_model.HitAt10());
  bench::AppendBenchJson("stream", dataset, "static_model_mrr",
                         static_model.Mrr());
  bench::AppendBenchJson("stream", dataset, "static_fold_hit_at_10",
                         static_fold.HitAt10());
  bench::AppendBenchJson("stream", dataset, "static_fold_mrr",
                         static_fold.Mrr());
  bench::AppendBenchJson("stream", dataset, "stream_fold_hit_at_10",
                         stream_fold.HitAt10());
  bench::AppendBenchJson("stream", dataset, "stream_fold_mrr",
                         stream_fold.Mrr());
  return true;
}

}  // namespace
}  // namespace tcss

int main() {
  const bool ingest_ok = tcss::BenchIngestAndRollover();
  const bool chrono_ok = tcss::BenchChronological();
  return ingest_ok && chrono_ok ? 0 : 1;
}
