// Candidate-generation benchmark for src/ann (DESIGN.md §13), timed
// through the path serving runs: RecommendService::BatchTopK on one
// top-10 request, once with the ANN tier off (the exact scan, one gemm
// column over the whole catalogue) and once with it on (LSH candidates +
// exact re-rank, recall audits included) at the serve defaults, across a
// catalogue sweep. For each catalogue size the bench reports the
// per-request latency of both services, the speedup, the recall@10 of
// the ANN answers against the ANN-off answers, the mean union size and
// the one-off index build time (both read from the ANN service's own
// ann.* histograms). The committed BENCH_ann.json shows where, if
// anywhere, the ANN tier beats the exact path at high recall.
//
// Human-readable table on stdout; TCSS_BENCH_JSON appends machine rows
// (bench "ann_lsh"). TCSS_BENCH_ANN_SCALE (default 1.0) scales the
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

double AnnScale() {
  const char* env = std::getenv("TCSS_BENCH_ANN_SCALE");
  if (env != nullptr) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 1.0;
}

// Cluster-structured factors: users and POIs co-embed around shared
// centers, the shape trained factorizations actually take (people and
// the places they visit pull toward common taste directions). This is
// the regime LSH is built for. I.i.d. Gaussian factors are the known
// degenerate case — the best item's angle to the query barely beats a
// random item's, no hashing scheme separates them, and a bench on such
// data measures nothing a trained model would ever serve.
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

double Recall(const std::vector<Recommendation>& approx,
              const std::vector<Recommendation>& exact) {
  if (exact.empty()) return 1.0;
  std::vector<uint32_t> ids;
  for (const auto& r : approx) ids.push_back(r.poi);
  std::sort(ids.begin(), ids.end());
  size_t hit = 0;
  for (const auto& r : exact) {
    if (std::binary_search(ids.begin(), ids.end(), r.poi)) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

double HistogramMean(obs::MetricRegistry* metrics, const char* name) {
  const obs::HistogramSnapshot h = metrics->GetHistogram(name)->Snapshot();
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

// One timed pass: every request as its own one-request BatchTopK.
std::vector<RecommendService::Response> TimedPass(
    RecommendService* service, const std::vector<ServeRequest>& reqs,
    double* us_per_request) {
  std::vector<RecommendService::Response> out;
  out.reserve(reqs.size());
  Stopwatch sw;
  for (const ServeRequest& req : reqs) {
    out.push_back(std::move(service->BatchTopK({req}).front()));
  }
  *us_per_request =
      sw.ElapsedMillis() * 1000.0 / static_cast<double>(reqs.size());
  return out;
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

  // Two services over the one watched model, each with its own registry:
  // the serve defaults with ANN off, and with ANN on.
  obs::MetricRegistry exact_metrics;
  obs::MetricRegistry ann_metrics;
  RecommendService::Options exact_opts;
  exact_opts.metrics = &exact_metrics;
  RecommendService::Options ann_opts;
  ann_opts.metrics = &ann_metrics;
  ann_opts.ann.enabled = true;
  RecommendService exact(&data, TimeGranularity::kMonthOfYear, &watcher,
                         exact_opts);
  RecommendService ann(&data, TimeGranularity::kMonthOfYear, &watcher,
                       ann_opts);
  if (!exact.Init().ok() || !ann.Init().ok() ||
      watcher.current() == nullptr) {
    std::fprintf(stderr, "service init failed for %s\n", dataset.c_str());
    std::exit(1);
  }
  std::remove(model_path.c_str());

  // Fixed query mix over (user, bin). One untimed pass per service warms
  // the factors and builds the LSH index.
  std::vector<ServeRequest> reqs(num_queries);
  Rng rng(42);
  for (ServeRequest& req : reqs) {
    req.user = static_cast<uint32_t>(rng.UniformInt(kUsers));
    req.time_bin = static_cast<uint32_t>(rng.UniformInt(kBins));
    req.k = kTopK;
  }
  double warm_us = 0.0;
  (void)TimedPass(&exact, reqs, &warm_us);
  (void)TimedPass(&ann, reqs, &warm_us);

  double exact_us = 0.0;
  double ann_us = 0.0;
  const auto want = TimedPass(&exact, reqs, &exact_us);
  const auto got = TimedPass(&ann, reqs, &ann_us);
  double recall_sum = 0.0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (want[i].tier != ServeTier::kModel ||
        got[i].tier != ServeTier::kModel) {
      std::fprintf(stderr, "request %zu left the model tier\n", i);
      std::exit(1);
    }
    recall_sum += Recall(got[i].recs, want[i].recs);
  }
  const double recall = recall_sum / static_cast<double>(reqs.size());
  const double cand_mean = HistogramMean(&ann_metrics, "ann.candidates");
  const double build_ms = HistogramMean(&ann_metrics, "ann.rebuild_ms");
  const double speedup = ann_us > 0.0 ? exact_us / ann_us : 0.0;

  std::printf(
      "%-19s exact %8.2f us   ann %8.2f us   speedup %5.2fx   "
      "recall@10 %.4f   cands %7.1f   build %7.2f ms\n",
      dataset.c_str(), exact_us, ann_us, speedup, recall, cand_mean,
      build_ms);

  bench::AppendBenchJson("ann_lsh", dataset, "exact_topk_us", exact_us);
  bench::AppendBenchJson("ann_lsh", dataset, "ann_topk_us", ann_us);
  bench::AppendBenchJson("ann_lsh", dataset, "speedup", speedup);
  bench::AppendBenchJson("ann_lsh", dataset, "recall_at_10", recall);
  bench::AppendBenchJson("ann_lsh", dataset, "candidates_mean", cand_mean);
  bench::AppendBenchJson("ann_lsh", dataset, "build_ms", build_ms);
}

}  // namespace
}  // namespace tcss

int main() {
  const double scale = tcss::AnnScale();
  const size_t queries =
      std::max<size_t>(20, static_cast<size_t>(400 * scale));
  std::printf("RecommendService::BatchTopK, ANN off vs on (rank %zu, "
              "%zu one-request batches per catalogue)\n",
              tcss::kRank, queries);
  for (size_t pois : {2000, 10000, 50000, 200000}) {
    const size_t scaled =
        std::max<size_t>(500, static_cast<size_t>(pois * scale));
    tcss::RunCatalog(scaled, queries);
  }
  return 0;
}
