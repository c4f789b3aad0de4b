// Top-k serving benchmark (DESIGN.md §13), timed through the path serving
// runs: RecommendService::BatchTopK on one top-10 request — the exact f32
// panel scan plus the f64 re-rank of its short list — across a catalogue
// sweep from 2k to 1M POIs. For each catalogue size the bench reports the
// per-request latency, the mean short-list length and the one-off panel
// build time (both read from the service's serve.scan.* histograms).
// BENCH_ann.json keeps the rows that retired the LSH tier beside these.
//
// Human-readable table on stdout; TCSS_BENCH_JSON appends machine rows
// (bench "exact_scan"). TCSS_BENCH_SCALE (default 1.0) scales the
// catalogue sizes and query counts for quick smoke runs.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/factor_model.h"
#include "core/model_io.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"

namespace tcss {
namespace {

constexpr size_t kRank = 32;
constexpr size_t kUsers = 8;
constexpr size_t kBins = 12;
constexpr size_t kTopK = 10;

// Cluster-structured factors: users and POIs co-embed around shared
// centers, the shape trained factorizations actually take (people and
// the places they visit pull toward common taste directions). Many POIs
// then score close to the best, which is what lengthens a short list.
constexpr size_t kClusters = 64;

FactorModel BenchModel(uint64_t seed, size_t num_pois) {
  Rng rng(seed);
  FactorModel m;
  const Matrix centers = Matrix::GaussianRandom(kClusters, kRank, &rng, 1.0);
  const auto around = [&](size_t rows, size_t cols, double spread) {
    Matrix out = Matrix::GaussianRandom(rows, cols, &rng, spread);
    for (size_t i = 0; i < rows; ++i) {
      const double* c = centers.row(i % kClusters);
      double* row = out.row(i);
      for (size_t t = 0; t < cols; ++t) row[t] += c[t];
    }
    return out;
  };
  m.u1 = around(kUsers, kRank, 0.1);
  m.u2 = around(num_pois, kRank, 0.3);
  m.u3 = Matrix::GaussianRandom(kBins, kRank, &rng, 0.05);
  for (size_t i = 0; i < kBins * kRank; ++i) m.u3.data()[i] += 1.0;
  m.h.assign(kRank, 1.0);
  return m;
}

// The serving dataset: the model's users, one check-in each, and POIs
// scattered over the globe (the geo grid needs locations; no request
// here is fenced).
Dataset BenchDataset(uint64_t seed, size_t num_pois) {
  Rng rng(seed);
  std::vector<Poi> pois(num_pois);
  for (Poi& p : pois) {
    p.location = {rng.Uniform(-60.0, 60.0), rng.Uniform(-180.0, 180.0)};
  }
  SocialGraph social(kUsers);
  Status st = social.Finalize();
  Dataset data(kUsers, std::move(pois), std::move(social));
  for (uint32_t u = 0; u < kUsers && st.ok(); ++u) {
    st = data.AddCheckIn(u, u, 1577836800);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "bench dataset: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return data;
}

double HistogramMean(obs::MetricRegistry* metrics, const char* name) {
  const obs::HistogramSnapshot h = metrics->GetHistogram(name)->Snapshot();
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

void RunCatalog(size_t num_pois, size_t num_queries) {
  const std::string dataset = StrFormat("catalog%zu_r%zu", num_pois, kRank);
  const Dataset data = BenchDataset(99 + num_pois, num_pois);
  const std::string model_path = StrFormat(
      "/tmp/tcss_bench_ann_%d.model", static_cast<int>(getpid()));
  if (!SaveFactorModel(BenchModel(1234 + num_pois, num_pois), model_path)
           .ok()) {
    std::fprintf(stderr, "cannot save the bench model to %s\n",
                 model_path.c_str());
    std::exit(1);
  }
  ModelWatcher::Options wopts;
  wopts.num_users = kUsers;
  wopts.num_pois = num_pois;
  wopts.num_bins = kBins;
  ModelWatcher watcher(model_path, wopts);
  obs::MetricRegistry metrics;
  RecommendService::Options opts;
  opts.metrics = &metrics;
  RecommendService service(&data, TimeGranularity::kMonthOfYear, &watcher,
                           opts);
  if (!service.Init().ok() || watcher.current() == nullptr) {
    std::fprintf(stderr, "service init failed for %s\n", dataset.c_str());
    std::exit(1);
  }
  std::remove(model_path.c_str());

  // Fixed query mix over (user, bin), every request its own one-request
  // BatchTopK. One untimed pass warms the factors and builds the panel.
  std::vector<ServeRequest> reqs(num_queries);
  Rng rng(42);
  for (ServeRequest& req : reqs) {
    req.user = static_cast<uint32_t>(rng.UniformInt(kUsers));
    req.time_bin = static_cast<uint32_t>(rng.UniformInt(kBins));
    req.k = kTopK;
  }
  for (int pass = 0; pass < 2; ++pass) {
    Stopwatch sw;
    for (const ServeRequest& req : reqs) {
      if (service.BatchTopK({req}).front().tier != ServeTier::kModel) {
        std::fprintf(stderr, "a request left the model tier\n");
        std::exit(1);
      }
    }
    if (pass == 0) continue;
    const double us =
        sw.ElapsedMillis() * 1000.0 / static_cast<double>(reqs.size());
    const double short_mean =
        HistogramMean(&metrics, "serve.scan.short_list");
    const double build_ms =
        HistogramMean(&metrics, "serve.scan.panel_build_ms");
    std::printf("%-19s %9.2f us   short list %6.1f   build %8.2f ms\n",
                dataset.c_str(), us, short_mean, build_ms);
    bench::AppendBenchJson("exact_scan", dataset, "topk_us", us);
    bench::AppendBenchJson("exact_scan", dataset, "short_list_mean",
                           short_mean);
    bench::AppendBenchJson("exact_scan", dataset, "panel_build_ms",
                           build_ms);
  }
}

}  // namespace
}  // namespace tcss

int main() {
  const double scale = tcss::bench::BenchScale();
  const size_t queries =
      std::max<size_t>(20, static_cast<size_t>(400 * scale));
  std::printf("RecommendService::BatchTopK, exact scan (rank %zu, "
              "%zu one-request batches per catalogue)\n",
              tcss::kRank, queries);
  for (size_t pois : {2000, 10000, 50000, 200000, 1000000}) {
    const size_t scaled =
        std::max<size_t>(500, static_cast<size_t>(pois * scale));
    tcss::RunCatalog(scaled, queries);
  }
  return 0;
}
