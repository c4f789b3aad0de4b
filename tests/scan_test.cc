// The exact top-k scan (DESIGN.md §13): every factor-scored answer of the
// service is bitwise the f64 oracle's — TopKRecommendations over the
// ascending-t chain ⟨U2[j], q⟩ — whatever the model's scale or ties, the
// tier, k, the restriction and the visited filter (a seeded property with
// TCSS_PROPTEST_SEED replay), and the serving integration: geo fences on
// every tier, batch/single agreement, visited POIs dropped before they
// reach the running k-th best, and the generation-keyed panel, built once
// per model generation, including a rebuild-while-serving reload storm
// that the TSan stage of tools/check.sh replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/popularity.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/incremental_fold_in.h"
#include "core/model_io.h"
#include "core/recommend.h"
#include "data/dataset.h"
#include "data/tensor_builder.h"
#include "geo/haversine.h"
#include "geo/spatial_grid.h"
#include "obs/metrics.h"
#include "proptest/prop.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"
#include "serve/request.h"

namespace tcss {
namespace {

using proptest::Prop;
using proptest::PropReport;

constexpr size_t kBins = 12;
constexpr TimeGranularity kGranularity = TimeGranularity::kMonthOfYear;

// --- fixtures ----------------------------------------------------------

// A Gaussian factor model with positive importance weights; the seed pins
// every entry.
FactorModel RandomModel(uint64_t seed, size_t I, size_t J, size_t K,
                        size_t r) {
  Rng rng(seed);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(I, r, &rng, 0.5);
  m.u2 = Matrix::GaussianRandom(J, r, &rng, 0.5);
  m.u3 = Matrix::GaussianRandom(K, r, &rng, 0.5);
  m.h.resize(r);
  for (size_t t = 0; t < r; ++t) m.h[t] = rng.Uniform(0.2, 1.0);
  return m;
}

// An LBSN dataset with `num_pois` randomly placed POIs and
// `checkins_per_user` check-ins per user at random POIs and months.
Dataset GeoDataset(uint64_t seed, size_t num_users, size_t num_pois,
                   size_t checkins_per_user = 2) {
  Rng rng(seed);
  std::vector<Poi> pois(num_pois);
  for (size_t j = 0; j < num_pois; ++j) {
    pois[j] = {{rng.Uniform(-60.0, 60.0), rng.Uniform(-170.0, 170.0)},
               PoiCategory::kFood};
  }
  SocialGraph social(num_users);
  EXPECT_TRUE(social.Finalize().ok());
  Dataset data(num_users, std::move(pois), std::move(social));
  const int64_t jan = 1577836800;  // Jan 2020 (bin 0)
  for (size_t u = 0; u < num_users; ++u) {
    for (size_t c = 0; c < checkins_per_user; ++c) {
      const int64_t month = static_cast<int64_t>(rng.UniformInt(kBins));
      EXPECT_TRUE(data.AddCheckIn(static_cast<uint32_t>(u),
                                  static_cast<uint32_t>(
                                      rng.UniformInt(num_pois)),
                                  jan + month * 31 * 86400)
                      .ok());
    }
  }
  return data;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// The f64 oracle's scorer: ⟨U2[j], q⟩ accumulated in ascending t.
class ChainScorer : public Recommender {
 public:
  ChainScorer(const Matrix* u2, std::vector<double> q)
      : u2_(u2), q_(std::move(q)) {}
  std::string name() const override { return "oracle-chain"; }
  Status Fit(const TrainContext&) override { return Status::OK(); }
  double Score(uint32_t, uint32_t j, uint32_t) const override {
    double s = 0.0;
    for (size_t t = 0; t < q_.size(); ++t) s += u2_->row(j)[t] * q_[t];
    return s;
  }

 private:
  const Matrix* u2_;
  std::vector<double> q_;
};

std::vector<double> ComposeQuery(const FactorModel& m, const double* u,
                                 uint32_t bin) {
  std::vector<double> q(m.rank());
  for (size_t t = 0; t < q.size(); ++t) q[t] = m.h[t] * u[t] * m.u3(bin, t);
  return q;
}

// Same POIs in the same order with bit-identical scores.
bool SameAnswer(const std::vector<Recommendation>& got,
                const std::vector<Recommendation>& want, std::string* why) {
  if (got.size() != want.size()) {
    *why = StrFormat("%zu recs, oracle %zu", got.size(), want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].poi != want[i].poi ||
        std::memcmp(&got[i].score, &want[i].score, sizeof(double)) != 0) {
      *why = StrFormat("slot %zu: poi %u score %a, oracle poi %u score %a", i,
                       got[i].poi, got[i].score, want[i].poi, want[i].score);
      return false;
    }
  }
  return true;
}

class ScanServeTest : public ::testing::Test {
 protected:
  // Builds watcher + service over `path` with per-test metric isolation.
  // Callers save a model at `path` first; Init() performs the first poll.
  void Start(Dataset data, const std::string& path) {
    data_ = std::make_unique<Dataset>(std::move(data));
    RecommendService::Options opts;
    opts.metrics = &metrics_;
    ModelWatcher::Options wopts;
    wopts.num_users = data_->num_users();
    wopts.num_pois = data_->num_pois();
    wopts.num_bins = kBins;
    wopts.metrics = &metrics_;
    watcher_ = std::make_unique<ModelWatcher>(path, wopts);
    service_ = std::make_unique<RecommendService>(
        data_.get(), kGranularity, watcher_.get(), opts);
    ASSERT_TRUE(service_->Init().ok());
  }

  uint64_t PanelBuilds() {
    return metrics_.GetHistogram("serve.scan.panel_build_ms")->Snapshot()
        .count;
  }

  obs::MetricRegistry metrics_;
  std::unique_ptr<Dataset> data_;
  std::unique_ptr<ModelWatcher> watcher_;
  std::unique_ptr<RecommendService> service_;
};

// --- the differential property ------------------------------------------

enum class ModelShape { kRandom, kCluster, kDuplicateRows, kTiny, kHuge,
                        kHugeQuery };
constexpr int kNumShapes = 6;

const char* ShapeName(ModelShape s) {
  switch (s) {
    case ModelShape::kRandom: return "random";
    case ModelShape::kCluster: return "cluster";
    case ModelShape::kDuplicateRows: return "duplicate-rows";
    case ModelShape::kTiny: return "tiny";
    case ModelShape::kHuge: return "huge";
    case ModelShape::kHugeQuery: return "huge-query";
  }
  return "?";
}

struct ScanCase {
  uint64_t seed = 0;
  ModelShape shape = ModelShape::kRandom;
  size_t num_users = 0;
  size_t num_pois = 0;
  FactorModel model;  ///< fewer U1 rows than users: the rest fold in
  std::vector<ServeRequest> reqs;
};

FactorModel ShapedModel(ModelShape shape, size_t I, size_t J, size_t r,
                        Rng* rng) {
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(I, r, rng, 0.5);
  m.u2 = Matrix::GaussianRandom(J, r, rng, 0.5);
  m.u3 = Matrix::GaussianRandom(kBins, r, rng, 0.5);
  m.h.resize(r);
  for (double& h : m.h) h = rng->Uniform(0.2, 1.0);
  switch (shape) {
    case ModelShape::kRandom:
      break;
    case ModelShape::kCluster: {
      // Users and POIs around shared centers, the shape trained factors
      // take, drawn so tight that POIs of one cluster score within f32
      // rounding of each other: the f32 order is not the f64 order, and
      // only the error bound keeps the true top k on the short list.
      const Matrix centers = Matrix::GaussianRandom(4, r, rng, 1.0);
      for (size_t j = 0; j < J; ++j) {
        for (size_t t = 0; t < r; ++t) {
          m.u2(j, t) = centers(j % 4, t) + 1e-7 * m.u2(j, t);
        }
      }
      for (size_t i = 0; i < I; ++i) {
        for (size_t t = 0; t < r; ++t) m.u1(i, t) += centers(i % 4, t);
      }
      break;
    }
    case ModelShape::kDuplicateRows:
      // Three distinct POI rows: every score ties with a third of the
      // catalogue, so the id tie-break decides the answer.
      for (size_t j = 3; j < J; ++j) {
        for (size_t t = 0; t < r; ++t) m.u2(j, t) = m.u2(j % 3, t);
      }
      break;
    case ModelShape::kTiny:  // U2 underflows to zero in f32
      for (size_t i = 0; i < m.u2.size(); ++i) m.u2.data()[i] *= 1e-300;
      break;
    case ModelShape::kHuge:  // U2 beyond f32 range: the f64 fallback
      for (size_t i = 0; i < m.u2.size(); ++i) m.u2.data()[i] *= 1e200;
      break;
    case ModelShape::kHugeQuery:  // model-tier queries beyond f32 range
      for (size_t i = 0; i < m.u1.size(); ++i) m.u1.data()[i] *= 1e30;
      for (size_t i = 0; i < m.u3.size(); ++i) m.u3.data()[i] *= 1e30;
      break;
  }
  return m;
}

ScanCase GenScanCase(uint64_t seed, uint32_t size) {
  Rng rng(seed);
  ScanCase c;
  c.seed = seed;
  c.shape = static_cast<ModelShape>(rng.UniformInt(kNumShapes));
  c.num_users = 5 + rng.UniformInt(4);
  c.num_pois = 1 + 12 * static_cast<size_t>(size) + rng.UniformInt(12);
  const size_t r = 1 + rng.UniformInt(12);
  c.model = ShapedModel(c.shape, c.num_users - 2, c.num_pois, r, &rng);
  // Users: model rows, two fold-in users, and two ids past the dataset
  // (popularity); k below, at and past the catalogue size, up to the
  // largest a C++ caller can pass.
  const size_t ks[] = {0, 1, 10, c.num_pois, c.num_pois + 7, SIZE_MAX};
  for (int i = 0; i < 24; ++i) {
    ServeRequest req;
    req.user = static_cast<uint32_t>(rng.UniformInt(c.num_users + 2));
    req.time_bin = static_cast<uint32_t>(rng.UniformInt(kBins));
    req.k = ks[rng.UniformInt(6)];
    req.exclude_visited = rng.UniformInt(2) == 0;
    if (rng.UniformInt(3) == 0) {
      const size_t n = 1 + rng.UniformInt(12);
      for (size_t e = 0; e < n; ++e) {
        // Some ids past the catalogue: the service drops them.
        req.candidates.push_back(
            static_cast<uint32_t>(rng.UniformInt(c.num_pois + 3)));
      }
    }
    if (rng.UniformInt(3) == 0) {
      req.within_km = rng.Uniform(100.0, 6000.0);
      req.center = {rng.Uniform(-60.0, 60.0), rng.Uniform(-170.0, 170.0)};
    }
    c.reqs.push_back(req);
  }
  return c;
}

// Serves every request of the case through one BatchTopK and checks each
// answer against the f64 oracle: the tier the chain should pick, the
// restriction as the parent resolved it (candidates ∩ fence, empty when
// it matches nothing), and TopKRecommendations with exclude_visited over
// the train tensor — the popularity baseline for that tier, the chain
// over the U1 row or the fold-in embedding otherwise. Also checks that
// exactly the unrestricted factor-scored requests of a representable
// model were scanned.
bool ScanMatchesOracle(const ScanCase& c, std::string* msg) {
  const Dataset data = GeoDataset(c.seed, c.num_users, c.num_pois, 3);
  const std::string path =
      TempPath(StrFormat("scan_prop_%llu.tcss",
                         static_cast<unsigned long long>(c.seed)));
  if (!SaveFactorModel(c.model, path).ok()) {
    *msg = "cannot save the model";
    return false;
  }
  ModelWatcher::Options wopts;
  wopts.num_users = c.num_users;
  wopts.num_pois = c.num_pois;
  wopts.num_bins = kBins;
  ModelWatcher watcher(path, wopts);
  IncrementalFoldIn fold_in;
  obs::MetricRegistry metrics;
  RecommendService::Options opts;
  opts.incremental = &fold_in;
  opts.metrics = &metrics;
  RecommendService service(&data, kGranularity, &watcher, opts);
  if (!service.Init().ok() || watcher.current() == nullptr) {
    *msg = "service init";
    return false;
  }
  const std::vector<RecommendService::Response> got =
      service.BatchTopK(c.reqs);

  const std::shared_ptr<const FactorModel> model = watcher.current();
  fold_in.BindModel(model, watcher.generation());
  const SparseTensor train = BuildCheckinTensor(data, kGranularity).value();
  Popularity popularity;
  (void)popularity.Fit({&data, &train, kGranularity, /*seed=*/1});
  const std::vector<GeoPoint> locations = data.PoiLocations();
  const SpatialGrid grid(locations);
  uint64_t want_scans = 0;
  for (size_t b = 0; b < c.reqs.size(); ++b) {
    const ServeRequest& req = c.reqs[b];
    const std::string where = StrFormat(
        "%s model, J=%zu r=%zu, request %zu (user %u bin %u k %zu excl %d "
        "cands %zu fence %.0f km): ",
        ShapeName(c.shape), c.num_pois, c.model.rank(), b, req.user,
        req.time_bin, req.k, req.exclude_visited ? 1 : 0,
        req.candidates.size(), req.within_km);
    const double* u = nullptr;
    ServeTier tier = ServeTier::kPopularity;
    if (req.user < model->u1.rows()) {
      tier = ServeTier::kModel;
      u = model->u1.row(req.user);
    } else if (req.user < c.num_users) {
      // A failed solve degrades to popularity, as the service does.
      const std::vector<double>* emb = fold_in.Embedding(req.user);
      if (emb != nullptr) {
        tier = ServeTier::kFoldIn;
        u = emb->data();
      }
    }
    if (got[b].tier != tier) {
      *msg = where + StrFormat("tier %s, want %s", ServeTierName(got[b].tier),
                               ServeTierName(tier));
      return false;
    }
    TopKOptions o;
    o.k = req.k;
    o.exclude_visited = req.exclude_visited;
    bool restricted = false;
    if (!req.candidates.empty()) {
      o.candidates = req.candidates;
      std::sort(o.candidates.begin(), o.candidates.end());
      o.candidates.erase(
          std::unique(o.candidates.begin(), o.candidates.end()),
          o.candidates.end());
      restricted = true;
    }
    if (req.within_km > 0.0) {
      const std::vector<uint32_t> fence =
          grid.WithinRadius(req.center, req.within_km);
      if (restricted) {
        std::vector<uint32_t> both;
        std::set_intersection(o.candidates.begin(), o.candidates.end(),
                              fence.begin(), fence.end(),
                              std::back_inserter(both));
        o.candidates = std::move(both);
      } else {
        o.candidates = fence;
      }
      restricted = true;
    }
    std::vector<Recommendation> want;
    if (!restricted || !o.candidates.empty()) {
      if (u == nullptr) {
        want = TopKRecommendations(popularity, req.user, req.time_bin,
                                   c.num_pois, o, &train);
      } else {
        const ChainScorer chain(&model->u2,
                                ComposeQuery(*model, u, req.time_bin));
        want = TopKRecommendations(chain, req.user, req.time_bin,
                                   c.num_pois, o, &train);
      }
    }
    std::string why;
    if (!SameAnswer(got[b].recs, want, &why)) {
      *msg = where + why;
      return false;
    }
    // The panel bounds every query but a huge model's and a huge-query
    // model's U1-row ones (fold-in embeddings scale back down).
    if (u != nullptr && !restricted && req.k > 0 &&
        c.shape != ModelShape::kHuge &&
        !(c.shape == ModelShape::kHugeQuery && tier == ServeTier::kModel)) {
      ++want_scans;
    }
  }
  const uint64_t scans =
      metrics.GetHistogram("serve.scan.short_list")->Snapshot().count;
  if (scans != want_scans) {
    *msg = StrFormat("%s model: %llu scans, want %llu", ShapeName(c.shape),
                     static_cast<unsigned long long>(scans),
                     static_cast<unsigned long long>(want_scans));
    return false;
  }
  return true;
}

TEST(ExactScanProperty, EveryAnswerIsTheF64OracleBitwise) {
  const PropReport report = Prop::Check<ScanCase>(
      "exact_scan_vs_f64_oracle", 100, GenScanCase, ScanMatchesOracle);
  EXPECT_TRUE(report.ok) << report.message;
}

// --- serving integration -----------------------------------------------

// A user who visited exactly the k best POIs still gets k answers — the
// next k — because visited POIs leave the scan before they can raise the
// running k-th best score.
TEST_F(ScanServeTest, UserWhoVisitedTheBestPoisStillGetsK) {
  constexpr size_t kPois = 300;
  constexpr size_t kK = 10;
  const FactorModel model = RandomModel(81, 3, kPois, kBins, 8);
  const std::string path = TempPath("scan_visited_model.tcss");
  ASSERT_TRUE(SaveFactorModel(model, path).ok());

  // User 0's top 2k POIs in bin 0, by the chain every answer ranks with.
  const ChainScorer chain(&model.u2, ComposeQuery(model, model.u1.row(0), 0));
  TopKOptions top;
  top.k = 2 * kK;
  const std::vector<Recommendation> best =
      TopKRecommendations(chain, 0, 0, kPois, top);
  ASSERT_EQ(best.size(), 2 * kK);

  Dataset data = GeoDataset(81, 3, kPois, 0);
  for (size_t i = 0; i < kK; ++i) {
    ASSERT_TRUE(data.AddCheckIn(0, best[i].poi, 1577836800).ok());
  }
  Start(std::move(data), path);

  ServeRequest req;
  req.user = 0;
  req.time_bin = 0;
  req.k = kK;
  req.exclude_visited = true;
  const auto resp = service_->TopK(req);
  ASSERT_EQ(resp.tier, ServeTier::kModel);
  ASSERT_EQ(resp.recs.size(), kK);
  for (size_t i = 0; i < kK; ++i) {
    EXPECT_EQ(resp.recs[i].poi, best[kK + i].poi) << "slot " << i;
    EXPECT_EQ(resp.recs[i].score, best[kK + i].score) << "slot " << i;
  }
  EXPECT_EQ(metrics_.GetHistogram("serve.scan.short_list")->Snapshot().count,
            1u);
}

// within_km restricts every tier to POIs inside the fence, composes with
// an explicit candidate list by intersection, and a fence that matches
// nothing answers empty instead of leaking the whole catalogue.
TEST_F(ScanServeTest, GeoFenceRestrictsResultsOnEveryTier) {
  const std::string path = TempPath("scan_fence_model.tcss");
  // u1 has 5 rows for 6 dataset users: user 5 serves from fold-in.
  ASSERT_TRUE(SaveFactorModel(RandomModel(41, 5, 800, kBins, 8), path).ok());
  Start(GeoDataset(41, 6, 800), path);

  ServeRequest req;
  req.k = 20;
  req.within_km = 1500.0;
  req.center = data_->poi(0).location;
  for (uint32_t user : {0u, 5u, 999u}) {  // model, fold-in, popularity
    req.user = user;
    const auto resp = service_->TopK(req);
    ASSERT_FALSE(resp.recs.empty()) << "user " << user;
    for (const auto& r : resp.recs) {
      EXPECT_LE(HaversineKm(req.center, data_->poi(r.poi).location),
                req.within_km)
          << "user " << user << " poi " << r.poi;
    }
  }

  // Fence ∩ explicit candidates: results come from both restrictions.
  req.user = 0;
  req.candidates = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto both = service_->TopK(req);
  for (const auto& r : both.recs) {
    EXPECT_LT(r.poi, 8u);
    EXPECT_LE(HaversineKm(req.center, data_->poi(r.poi).location),
              req.within_km);
  }

  // A fence over empty ocean (GeoDataset places POIs in [-60, 60] lat):
  // empty answer, not the whole catalogue.
  req.candidates.clear();
  req.center = {-84.0, 10.0};
  req.within_km = 5.0;
  EXPECT_TRUE(service_->TopK(req).recs.empty());

  // An invalid fence is rejected like any other untrusted field.
  req.center = {200.0, 10.0};
  EXPECT_TRUE(service_->TopK(req).recs.empty());
  EXPECT_EQ(service_->Stats().invalid_requests, 1u);
  EXPECT_GE(service_->Stats().geo_fenced, 5u);
}

// BatchTopK must honor per-request options (k, exclusion, candidates,
// fence, tier) independently per entry: a heterogeneous batch answers
// exactly like the one-at-a-time path.
TEST_F(ScanServeTest, BatchMatchesSingleAcrossHeterogeneousOptions) {
  const std::string path = TempPath("scan_batch_model.tcss");
  ASSERT_TRUE(SaveFactorModel(RandomModel(51, 5, 600, kBins, 8), path).ok());
  Start(GeoDataset(51, 6, 600), path);

  std::vector<ServeRequest> reqs;
  {
    ServeRequest r;  // plain model request: the scan
    r.user = 0;
    r.time_bin = 2;
    r.k = 10;
    reqs.push_back(r);
  }
  {
    ServeRequest r;  // different k, visited excluded
    r.user = 1;
    r.time_bin = 5;
    r.k = 3;
    r.exclude_visited = true;
    reqs.push_back(r);
  }
  {
    ServeRequest r;  // explicit candidates
    r.user = 2;
    r.time_bin = 0;
    r.k = 5;
    r.candidates = {5, 17, 99, 3, 200, 201, 202};
    reqs.push_back(r);
  }
  {
    ServeRequest r;  // geo-fenced
    r.user = 3;
    r.time_bin = 11;
    r.k = 8;
    r.within_km = 2000.0;
    r.center = {10.0, 10.0};
    reqs.push_back(r);
  }
  {
    ServeRequest r;  // fold-in user
    r.user = 5;
    r.time_bin = 1;
    r.k = 4;
    reqs.push_back(r);
  }
  {
    ServeRequest r;  // unknown user: popularity tier
    r.user = 999;
    r.time_bin = 0;
    r.k = 6;
    reqs.push_back(r);
  }
  {
    ServeRequest r;  // invalid time bin: empty, counted invalid
    r.user = 0;
    r.time_bin = 12;
    reqs.push_back(r);
  }

  const auto batch = service_->BatchTopK(reqs);
  ASSERT_EQ(batch.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const auto single = service_->TopK(reqs[i]);
    EXPECT_EQ(batch[i].tier, single.tier) << "request " << i;
    ASSERT_EQ(batch[i].recs.size(), single.recs.size()) << "request " << i;
    for (size_t j = 0; j < single.recs.size(); ++j) {
      EXPECT_EQ(batch[i].recs[j].poi, single.recs[j].poi)
          << "request " << i << " slot " << j;
      // TopK is a one-request batch: every path scores with the same
      // arithmetic, so the scores match bit for bit.
      EXPECT_EQ(batch[i].recs[j].score, single.recs[j].score)
          << "request " << i << " slot " << j;
    }
  }
  // Per-entry option checks on the batch results themselves.
  EXPECT_EQ(batch[1].recs.size(), 3u);
  for (const auto& r : batch[2].recs) {
    EXPECT_TRUE(r.poi == 5 || r.poi == 17 || r.poi == 99 || r.poi == 3 ||
                r.poi == 200 || r.poi == 201 || r.poi == 202);
  }
  for (const auto& r : batch[3].recs) {
    EXPECT_LE(HaversineKm({10.0, 10.0}, data_->poi(r.poi).location), 2000.0);
  }
  EXPECT_EQ(batch[4].tier, ServeTier::kFoldIn);
  EXPECT_EQ(batch[5].tier, ServeTier::kPopularity);
  EXPECT_TRUE(batch[6].recs.empty());
}

// A hot reload builds one panel per generation: the first scan under a
// model builds it, later scans reuse it, and every rec served after the
// swap scores with the NEW model. The panel_bytes gauge and the
// short-list histogram land in the --metrics-out JSON.
TEST_F(ScanServeTest, HotReloadRebuildsPanelWithTheNewGeneration) {
  const std::string path = TempPath("scan_reload_model.tcss");
  const FactorModel gen1 = RandomModel(61, 4, 400, kBins, 8);
  ASSERT_TRUE(SaveFactorModel(gen1, path).ok());
  Start(GeoDataset(61, 4, 400), path);
  EXPECT_EQ(PanelBuilds(), 0u);  // built by the first scan, not by Init

  ServeRequest req;
  req.user = 0;
  req.time_bin = 4;
  req.k = 5;
  auto r1 = service_->TopK(req);
  ASSERT_EQ(r1.tier, ServeTier::kModel);
  ASSERT_FALSE(r1.recs.empty());
  EXPECT_EQ(PanelBuilds(), 1u);
  for (const auto& rec : r1.recs) {
    EXPECT_DOUBLE_EQ(rec.score, gen1.Predict(0, rec.poi, 4));
  }
  service_->TopK(req);
  EXPECT_EQ(PanelBuilds(), 1u);

  const FactorModel gen2 = RandomModel(62, 4, 400, kBins, 8);
  ASSERT_TRUE(SaveFactorModel(gen2, path).ok());
  service_->PollModel();
  auto r2 = service_->TopK(req);
  ASSERT_EQ(r2.tier, ServeTier::kModel);
  ASSERT_FALSE(r2.recs.empty());
  EXPECT_EQ(PanelBuilds(), 2u);
  for (const auto& rec : r2.recs) {
    EXPECT_DOUBLE_EQ(rec.score, gen2.Predict(0, rec.poi, 4));
  }
  // Serving without a reload does not rebuild.
  service_->TopK(req);
  EXPECT_EQ(PanelBuilds(), 2u);

  // 400 POIs of rank 8 in 50 lane groups of f32.
  EXPECT_EQ(metrics_.GetGauge("serve.scan.panel_bytes")->Value(),
            50.0 * 8 * 8 * sizeof(float));
  const std::string json = metrics_.Snapshot().ToJson();
  for (const char* name : {"serve.scan.short_list", "serve.scan.panel_bytes",
                           "serve.scan.panel_build_ms"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

// Rebuild-while-serving storm: a writer thread replaces the model file
// continuously while the serving thread interleaves polls, scans, fences
// and fold-ins. Each generation's panel is built at most once, and every
// answer ranks with the generation it scanned; TSan covers the watcher/
// serving-thread edges when check.sh replays this suite.
TEST_F(ScanServeTest, RebuildWhileServingUnderReloadStorm) {
  const std::string path = TempPath("scan_storm_model.tcss");
  ASSERT_TRUE(SaveFactorModel(RandomModel(71, 4, 300, kBins, 8), path).ok());
  Start(GeoDataset(71, 4, 300), path);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t gen = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // SaveFactorModel writes atomically (temp + rename), so a poll
      // mid-write sees either generation, never a torn file.
      ASSERT_TRUE(
          SaveFactorModel(RandomModel(100 + gen, 4, 300, kBins, 8), path)
              .ok());
      ++gen;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Serve 400 requests, and on until a swapped-in generation has been
  // scanned: one atomic save (temp file, fsync, rename) can outlast all
  // 400 on a slow disk. The cap only bounds a writer that never lands a
  // save; the PanelBuilds check below then fails as it would have.
  const auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  uint64_t served = 0;
  for (int i = 0; i < 400 || (PanelBuilds() < 2 &&
                              std::chrono::steady_clock::now() < cap);
       ++i) {
    if (i % 3 == 0) service_->PollModel();
    ServeRequest req;
    req.user = static_cast<uint32_t>(i % 4);
    req.time_bin = static_cast<uint32_t>(i % 12);
    req.k = 5;
    if (i % 5 == 0) {
      req.within_km = 3000.0;
      req.center = data_->poi(static_cast<uint32_t>(i % 300)).location;
    }
    const auto resp = service_->TopK(req);
    ASSERT_EQ(resp.tier, ServeTier::kModel) << "iteration " << i;
    ++served;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  const ServiceStats stats = service_->Stats();
  EXPECT_EQ(stats.total_queries, served);
  EXPECT_GE(PanelBuilds(), 2u) << "the storm never swapped a model";
  EXPECT_LE(PanelBuilds(), stats.reload_successes);
}

}  // namespace
}  // namespace tcss
