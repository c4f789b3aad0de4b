// Coverage for the ANN candidate-generation tier (DESIGN.md §13): the
// LSH index's bitwise build determinism across thread counts, the
// seed/fingerprint contract, multi-probe behaviour, the recall@10 >= 0.95
// differential property against the exact full-sort oracle (with
// TCSS_PROPTEST_SEED replay), and the serving integration — per-request
// exact fallback (served results never empty when exact isn't), geo-fence
// intersection, batch/single agreement, audited recall telemetry, and the
// generation-keyed rebuild that keeps (model, index) an atomic pair
// across hot reloads, including a rebuild-while-serving storm that the
// TSan stage of tools/check.sh replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ann/lsh_index.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/model_io.h"
#include "core/recommend.h"
#include "data/dataset.h"
#include "geo/haversine.h"
#include "obs/metrics.h"
#include "proptest/prop.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"
#include "serve/request.h"

namespace tcss {
namespace {

using proptest::Prop;
using proptest::PropOptions;
using proptest::PropReport;

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

// The composed ANN query vector q_t = h_t * U1[i,t] * U3[k,t]: the score
// of POI j is then <q, U2[j,:]> == Predict(i, j, k).
std::vector<double> ComposeQuery(const FactorModel& m, uint32_t user,
                                 uint32_t bin) {
  std::vector<double> q(m.rank());
  const double* a = m.u1.row(user);
  const double* c = m.u3.row(bin);
  for (size_t t = 0; t < m.rank(); ++t) q[t] = m.h[t] * a[t] * c[t];
  return q;
}

// POI j's score as one column of the serving gemm (MatMulT) computes it:
// <U2[j], q> accumulated in ascending t.
double GemmScore(const FactorModel& m, const std::vector<double>& q,
                 uint32_t j) {
  double s = 0.0;
  for (size_t t = 0; t < q.size(); ++t) s += m.u2(j, t) * q[t];
  return s;
}

// Full-sort exact top-k POI ids, (score desc, id asc) — the recall
// oracle.
std::vector<uint32_t> ExactTopIds(const FactorModel& m, uint32_t user,
                                  uint32_t bin, size_t k) {
  std::vector<std::pair<double, uint32_t>> scored;
  scored.reserve(m.u2.rows());
  for (size_t j = 0; j < m.u2.rows(); ++j) {
    scored.emplace_back(m.Predict(user, static_cast<uint32_t>(j), bin),
                        static_cast<uint32_t>(j));
  }
  std::sort(scored.begin(), scored.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < scored.size() && i < k; ++i) {
    ids.push_back(scored[i].second);
  }
  return ids;
}

// Exact re-rank of an ANN candidate union — what the service's scorer
// does with the union.
std::vector<uint32_t> RerankTopIds(const FactorModel& m,
                                   const std::vector<uint32_t>& cands,
                                   uint32_t user, uint32_t bin, size_t k) {
  std::vector<std::pair<double, uint32_t>> scored;
  scored.reserve(cands.size());
  for (uint32_t j : cands) {
    scored.emplace_back(m.Predict(user, j, bin), j);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < scored.size() && i < k; ++i) {
    ids.push_back(scored[i].second);
  }
  return ids;
}

double Recall(const std::vector<uint32_t>& approx,
              const std::vector<uint32_t>& exact) {
  if (exact.empty()) return 1.0;
  std::vector<uint32_t> sorted = approx;
  std::sort(sorted.begin(), sorted.end());
  size_t hit = 0;
  for (uint32_t id : exact) {
    if (std::binary_search(sorted.begin(), sorted.end(), id)) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

// An LBSN dataset with `num_pois` randomly placed POIs and two check-ins
// per user (so every dataset user has fold-in observations). Bins are
// monthly.
Dataset GeoDataset(uint64_t seed, size_t num_users, size_t num_pois) {
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
  const int64_t feb = 1580515200;  // Feb 2020 (bin 1)
  for (size_t u = 0; u < num_users; ++u) {
    EXPECT_TRUE(
        data.AddCheckIn(static_cast<uint32_t>(u),
                        static_cast<uint32_t>(rng.UniformInt(num_pois)), jan)
            .ok());
    EXPECT_TRUE(
        data.AddCheckIn(static_cast<uint32_t>(u),
                        static_cast<uint32_t>(rng.UniformInt(num_pois)), feb)
            .ok());
  }
  return data;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// --- index determinism -------------------------------------------------

TEST(LshIndexTest, BuildIsBitwiseIdenticalAcrossThreadCounts) {
  const FactorModel model = RandomModel(11, 4, 3000, 12, 16);
  ann::LshConfig cfg;  // defaults: 8 tables, auto bits, 8 probes
  std::vector<std::string> images;
  for (int threads : {1, 2, 8}) {
    SetGlobalThreads(threads);
    ann::LshIndex index(model, cfg);
    images.push_back(index.DebugBytes());
  }
  SetGlobalThreads(1);
  ASSERT_FALSE(images[0].empty());
  EXPECT_EQ(images[0], images[1]) << "1-thread vs 2-thread build differ";
  EXPECT_EQ(images[0], images[2]) << "1-thread vs 8-thread build differ";
}

TEST(LshIndexTest, SeedAndFingerprintPinTheProjections) {
  const FactorModel model = RandomModel(7, 3, 500, 12, 8);
  ann::LshConfig cfg;
  ann::LshIndex a(model, cfg);
  ann::LshIndex b(model, cfg);
  // Same bytes, same config: bit-identical index.
  EXPECT_EQ(a.DebugBytes(), b.DebugBytes());
  EXPECT_EQ(a.fingerprint(), ann::ModelFingerprint(model));

  // A different base seed draws fresh hyperplanes.
  ann::LshConfig other_seed = cfg;
  other_seed.seed = cfg.seed + 1;
  EXPECT_NE(a.DebugBytes(), ann::LshIndex(model, other_seed).DebugBytes());

  // Any retrain perturbs the fingerprint, which re-seeds the projections:
  // the hyperplanes are not frozen across model generations.
  FactorModel perturbed = RandomModel(7, 3, 500, 12, 8);
  *perturbed.u2.row(0) += 1e-9;
  EXPECT_NE(ann::ModelFingerprint(perturbed), a.fingerprint());
  EXPECT_NE(a.DebugBytes(), ann::LshIndex(perturbed, cfg).DebugBytes());
}

TEST(LshIndexTest, CandidatesAreSortedUniqueAndInRange) {
  const FactorModel model = RandomModel(3, 4, 700, 12, 8);
  ann::LshConfig cfg;
  ann::LshIndex index(model, cfg);
  for (uint32_t user = 0; user < 4; ++user) {
    const auto q = ComposeQuery(model, user, user % 12);
    const auto cands = index.Candidates(q.data(), q.size());
    EXPECT_FALSE(cands.empty());
    EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
    EXPECT_EQ(std::adjacent_find(cands.begin(), cands.end()), cands.end());
    for (uint32_t id : cands) EXPECT_LT(id, 700u);
  }
  // A query of the wrong rank cannot be composed against the index.
  std::vector<double> bad(model.rank() + 1, 0.5);
  EXPECT_TRUE(index.Candidates(bad.data(), bad.size()).empty());
}

TEST(LshIndexTest, MoreProbesNeverShrinkTheUnion) {
  const FactorModel model = RandomModel(5, 4, 900, 12, 8);
  ann::LshConfig one;
  one.probes = 1;
  ann::LshConfig some;
  some.probes = 4;
  ann::LshConfig many;
  many.probes = ann::kMaxLshProbes;  // clamped to bits+1 internally
  ann::LshIndex i1(model, one), i4(model, some), iall(model, many);
  for (uint32_t user = 0; user < 4; ++user) {
    const auto q = ComposeQuery(model, user, 3);
    const auto c1 = i1.Candidates(q.data(), q.size());
    const auto c4 = i4.Candidates(q.data(), q.size());
    const auto call = iall.Candidates(q.data(), q.size());
    // Same seed+fingerprint => identical hyperplanes, so probing more
    // buckets can only add candidates.
    EXPECT_TRUE(std::includes(c4.begin(), c4.end(), c1.begin(), c1.end()));
    EXPECT_TRUE(
        std::includes(call.begin(), call.end(), c4.begin(), c4.end()));
  }
}

// --- recall property ---------------------------------------------------

struct RecallCase {
  FactorModel model;
  size_t num_pois = 0;
  uint64_t seed = 0;
};

RecallCase GenRecallCase(uint64_t seed, uint32_t size) {
  Rng rng(seed);
  RecallCase c;
  c.seed = seed;
  // 250..~1500 POIs: large enough that the candidate union is a strict
  // subset of the catalogue (the property is vacuous when every request
  // falls back to exact).
  c.num_pois = 250 + 48 * static_cast<size_t>(size) + rng.UniformInt(100);
  const size_t r = 8 + rng.UniformInt(9);  // rank 8..16
  c.model.u1 = Matrix::GaussianRandom(6, r, &rng, 0.5);
  c.model.u2 = Matrix::GaussianRandom(c.num_pois, r, &rng, 0.5);
  c.model.u3 = Matrix::GaussianRandom(12, r, &rng, 0.5);
  c.model.h.resize(r);
  for (size_t t = 0; t < r; ++t) c.model.h[t] = rng.Uniform(0.2, 1.0);
  return c;
}

// The acceptance gate: at the default table/probe settings, recall@10 of
// the re-ranked candidate union against the exact full-sort oracle is
// >= 0.95 pooled over every generated catalogue, with the service's own
// fallback rule applied (a union smaller than min_candidates is served
// exactly and scores recall 1). Each case also has an 0.5 floor so a
// single pathological catalogue cannot hide in the pool.
TEST(AnnRecallProperty, RecallAtTenAgainstExactOracle) {
  size_t total_queries = 0;
  size_t ann_served = 0;
  double recall_sum = 0.0;
  const auto pred = [&](const RecallCase& c, std::string* msg) {
    ann::LshConfig cfg;  // the defaults the CLI flags default to
    ann::LshIndex index(c.model, cfg);
    const size_t k = 10;
    const size_t need = std::max(cfg.min_candidates, k);
    double case_sum = 0.0;
    size_t case_n = 0;
    for (uint32_t user = 0; user < 6; ++user) {
      for (uint32_t bin : {0u, 5u, 11u}) {
        const auto q = ComposeQuery(c.model, user, bin);
        const auto cands = index.Candidates(q.data(), q.size());
        double rec = 1.0;  // service fallback: exact path, perfect recall
        if (cands.size() >= need) {
          ++ann_served;
          rec = Recall(RerankTopIds(c.model, cands, user, bin, k),
                       ExactTopIds(c.model, user, bin, k));
        }
        case_sum += rec;
        ++case_n;
      }
    }
    recall_sum += case_sum;
    total_queries += case_n;
    const double case_recall = case_sum / static_cast<double>(case_n);
    if (case_recall < 0.5) {
      *msg = StrFormat("case recall@10 %.4f < 0.5 (J=%zu seed=%llu)",
                       case_recall, c.num_pois,
                       static_cast<unsigned long long>(c.seed));
      return false;
    }
    return true;
  };
  const PropReport report = Prop::Check<RecallCase>(
      "ann_recall_at_10", 12, GenRecallCase, pred);
  EXPECT_TRUE(report.ok) << report.message;
  uint64_t unused = 0;
  if (!proptest::ReplaySeedFromEnv(&unused)) {
    ASSERT_GT(total_queries, 0u);
    const double pooled = recall_sum / static_cast<double>(total_queries);
    EXPECT_GE(pooled, 0.95) << "pooled recall@10 across " << total_queries
                            << " queries";
    // Vacuity guard: the gate is meaningless if the fallback served
    // (recall 1 by construction) most of the traffic.
    EXPECT_GT(ann_served, total_queries / 2)
        << "ANN answered too few queries for the recall gate to bind";
  }
}

// A failing recall property must print a TCSS_PROPTEST_SEED that replays
// to the identical shrunk counterexample: CheckCase on the reported seed
// reproduces the same shrunk size and the same input-derived message.
TEST(AnnRecallProperty, ReplaySeedReproducesCounterexample) {
  const auto gen = [](uint64_t seed, uint32_t size) {
    Rng rng(seed);
    RecallCase c;
    c.seed = seed;
    c.num_pois = 64 + 8 * static_cast<size_t>(size);
    const size_t r = 4;
    c.model.u1 = Matrix::GaussianRandom(2, r, &rng, 0.5);
    c.model.u2 = Matrix::GaussianRandom(c.num_pois, r, &rng, 0.5);
    c.model.u3 = Matrix::GaussianRandom(12, r, &rng, 0.5);
    c.model.h.assign(r, 1.0);
    return c;
  };
  // An unattainable threshold: every case is a counterexample, and the
  // message depends on the generated input.
  const auto pred = [](const RecallCase& c, std::string* msg) {
    ann::LshConfig cfg;
    cfg.min_candidates = 1;
    ann::LshIndex index(c.model, cfg);
    const auto q = ComposeQuery(c.model, 0, 0);
    const auto cands = index.Candidates(q.data(), q.size());
    const double rec = Recall(RerankTopIds(c.model, cands, 0, 0, 10),
                              ExactTopIds(c.model, 0, 0, 10));
    *msg = StrFormat("recall %.6f at J=%zu fp=%llu", rec, c.num_pois,
                     static_cast<unsigned long long>(
                         ann::ModelFingerprint(c.model)));
    return rec > 1.0;  // impossible
  };
  const PropReport first = Prop::Check<RecallCase>(
      "ann_recall_replay", 3, gen, pred);
  ASSERT_FALSE(first.ok);
  ASSERT_FALSE(first.message.empty());
  for (int replay = 0; replay < 2; ++replay) {
    const PropReport again = Prop::CheckCase<RecallCase>(
        "ann_recall_replay", first.fail_seed, 0, 1, gen, pred);
    ASSERT_FALSE(again.ok);
    EXPECT_EQ(again.fail_seed, first.fail_seed);
    EXPECT_EQ(again.fail_size, first.fail_size);
    EXPECT_EQ(again.shrunk_size, first.shrunk_size);
    EXPECT_EQ(again.message, first.message);
  }
}

// --- serving integration -----------------------------------------------

class AnnServeTest : public ::testing::Test {
 protected:
  // Builds watcher + service over `path` with per-test metric isolation.
  // Callers save a model at `path` first; Init() performs the first poll.
  void Start(Dataset data, const std::string& path,
             RecommendService::Options opts) {
    data_ = std::make_unique<Dataset>(std::move(data));
    opts.metrics = &metrics_;
    ModelWatcher::Options wopts;
    wopts.num_users = data_->num_users();
    wopts.num_pois = data_->num_pois();
    wopts.num_bins = 12;
    watcher_ = std::make_unique<ModelWatcher>(path, wopts);
    service_ = std::make_unique<RecommendService>(
        data_.get(), TimeGranularity::kMonthOfYear, watcher_.get(), opts);
    ASSERT_TRUE(service_->Init().ok());
  }

  static RecommendService::Options AnnOptions(size_t min_candidates,
                                              uint64_t audit_every) {
    RecommendService::Options opts;
    opts.ann.enabled = true;
    opts.ann.lsh.min_candidates = min_candidates;
    opts.ann.audit_every = audit_every;
    return opts;
  }

  obs::MetricRegistry metrics_;
  std::unique_ptr<Dataset> data_;
  std::unique_ptr<ModelWatcher> watcher_;
  std::unique_ptr<RecommendService> service_;
};

// On a catalogue smaller than min_candidates every request falls back to
// the exact path: answers match an ANN-disabled twin exactly and nothing
// is ever served from the union.
TEST_F(AnnServeTest, TinyCatalogFallsBackToExactPath) {
  const std::string path = TempPath("ann_tiny_model.tcss");
  ASSERT_TRUE(SaveFactorModel(RandomModel(21, 4, 5, 12, 4), path).ok());
  Start(GeoDataset(21, 4, 5), path, AnnOptions(64, 1));

  obs::MetricRegistry exact_metrics;
  RecommendService::Options exact_opts;
  exact_opts.metrics = &exact_metrics;
  RecommendService exact(data_.get(), TimeGranularity::kMonthOfYear,
                         watcher_.get(), exact_opts);
  ASSERT_TRUE(exact.Init().ok());

  for (uint32_t user = 0; user < 4; ++user) {
    ServeRequest req;
    req.user = user;
    req.time_bin = user % 12;
    req.k = 3;
    const auto got = service_->TopK(req);
    const auto want = exact.TopK(req);
    ASSERT_EQ(got.tier, want.tier);
    ASSERT_EQ(got.recs.size(), want.recs.size());
    for (size_t i = 0; i < want.recs.size(); ++i) {
      EXPECT_EQ(got.recs[i].poi, want.recs[i].poi);
      EXPECT_DOUBLE_EQ(got.recs[i].score, want.recs[i].score);
    }
    EXPECT_FALSE(got.recs.empty());
  }
  const ServiceStats stats = service_->Stats();
  EXPECT_EQ(stats.ann_served, 0u);
  EXPECT_EQ(stats.ann_fallbacks, 4u);
  EXPECT_EQ(stats.ann_rebuilds, 1u);  // built once, then bypassed
}

// On a large catalogue the union serves, every ANN answer is audited
// (audit_every=1), the recall proxy lands in the registry, and the
// ANN-tier histograms the --metrics-out dump exports are all present.
// Both paths score a POI exactly as the batch gemm column does, so an
// ANN re-rank and the exact path agree bit for bit on every POI.
TEST_F(AnnServeTest, LargeCatalogServesFromUnionAndAudits) {
  const std::string path = TempPath("ann_large_model.tcss");
  const FactorModel model = RandomModel(31, 6, 1200, 12, 8);
  ASSERT_TRUE(SaveFactorModel(model, path).ok());
  Start(GeoDataset(31, 6, 1200), path, AnnOptions(64, 1));

  obs::MetricRegistry exact_metrics;
  RecommendService::Options exact_opts;
  exact_opts.metrics = &exact_metrics;
  RecommendService exact(data_.get(), TimeGranularity::kMonthOfYear,
                         watcher_.get(), exact_opts);
  ASSERT_TRUE(exact.Init().ok());

  for (uint32_t user = 0; user < 6; ++user) {
    for (uint32_t bin : {0u, 3u, 7u, 11u}) {
      ServeRequest req;
      req.user = user;
      req.time_bin = bin;
      req.k = 10;
      const auto got = service_->TopK(req);
      EXPECT_EQ(got.tier, ServeTier::kModel);
      // The differential never-empty guarantee: exact answered, so the
      // ANN tier must too (by union or by fallback, never empty-handed).
      const auto want = exact.TopK(req);
      EXPECT_FALSE(want.recs.empty());
      EXPECT_FALSE(got.recs.empty());

      const std::vector<double> q = ComposeQuery(model, user, bin);
      for (const auto& rec : want.recs) {
        EXPECT_EQ(rec.score, GemmScore(model, q, rec.poi));
      }
      // The exact path restricted to the ANN answer's POIs returns them
      // in the same order with the same scores.
      ServeRequest same = req;
      for (const auto& rec : got.recs) same.candidates.push_back(rec.poi);
      const auto rescored = exact.TopK(same);
      ASSERT_EQ(rescored.recs.size(), got.recs.size());
      for (size_t i = 0; i < got.recs.size(); ++i) {
        EXPECT_EQ(rescored.recs[i].poi, got.recs[i].poi);
        EXPECT_EQ(rescored.recs[i].score, got.recs[i].score)
            << "user " << user << " bin " << bin << " poi " << got.recs[i].poi;
      }
    }
  }

  const ServiceStats stats = service_->Stats();
  EXPECT_GT(stats.ann_served, 0u);
  EXPECT_EQ(stats.ann_audits, stats.ann_served);
  EXPECT_EQ(stats.ann_rebuilds, 1u);
  EXPECT_EQ(stats.ann_served + stats.ann_fallbacks, 24u);

  const auto recall = metrics_.GetHistogram("ann.recall_proxy")->Snapshot();
  ASSERT_EQ(recall.count, stats.ann_audits);
  EXPECT_GE(recall.sum / static_cast<double>(recall.count), 0.9);
  EXPECT_GT(metrics_.GetHistogram("ann.candidates")->Snapshot().count, 0u);
  EXPECT_GT(metrics_.GetHistogram("ann.rebuild_ms")->Snapshot().count, 0u);
  EXPECT_GT(metrics_.GetHistogram("ann.bucket_occupancy")->Snapshot().count,
            0u);
  // The JSON export (what `tcss serve --metrics-out` dumps) carries them.
  const std::string json = metrics_.Snapshot().ToJson();
  for (const char* name :
       {"ann.candidates", "ann.recall_proxy", "ann.rebuild_ms",
        "ann.bucket_occupancy", "ann.served", "ann.rebuilds"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

// within_km restricts every tier to POIs inside the fence, composes with
// an explicit candidate list by intersection, and a fence that matches
// nothing answers empty instead of leaking the whole catalogue.
TEST_F(AnnServeTest, GeoFenceRestrictsResultsOnEveryTier) {
  const std::string path = TempPath("ann_fence_model.tcss");
  // u1 has 5 rows for 6 dataset users: user 5 serves from fold-in.
  ASSERT_TRUE(SaveFactorModel(RandomModel(41, 5, 800, 12, 8), path).ok());
  Start(GeoDataset(41, 6, 800), path, AnnOptions(8, 0));

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
// fence, ANN/audit decisions) independently per entry: a heterogeneous
// batch answers exactly like the one-at-a-time path.
TEST_F(AnnServeTest, BatchMatchesSingleAcrossHeterogeneousOptions) {
  const std::string path = TempPath("ann_batch_model.tcss");
  ASSERT_TRUE(SaveFactorModel(RandomModel(51, 5, 600, 12, 8), path).ok());
  Start(GeoDataset(51, 6, 600), path, AnnOptions(32, 3));

  std::vector<ServeRequest> reqs;
  {
    ServeRequest r;  // plain ANN-eligible model request
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
    ServeRequest r;  // explicit candidates (restriction forces exactness)
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

// A hot reload swaps (model, index) as one generation: the rebuild
// counter tracks generations, and every rec served after the swap scores
// with the NEW model — never a candidate list from one generation scored
// against the other.
TEST_F(AnnServeTest, HotReloadRebuildsIndexWithTheNewGeneration) {
  const std::string path = TempPath("ann_reload_model.tcss");
  const FactorModel gen1 = RandomModel(61, 4, 400, 12, 8);
  ASSERT_TRUE(SaveFactorModel(gen1, path).ok());
  Start(GeoDataset(61, 4, 400), path, AnnOptions(1, 0));

  ServeRequest req;
  req.user = 0;
  req.time_bin = 4;
  req.k = 5;
  auto r1 = service_->TopK(req);
  ASSERT_EQ(r1.tier, ServeTier::kModel);
  ASSERT_FALSE(r1.recs.empty());
  EXPECT_EQ(service_->Stats().ann_rebuilds, 1u);
  for (const auto& rec : r1.recs) {
    EXPECT_DOUBLE_EQ(rec.score, gen1.Predict(0, rec.poi, 4));
  }

  const FactorModel gen2 = RandomModel(62, 4, 400, 12, 8);
  ASSERT_TRUE(SaveFactorModel(gen2, path).ok());
  service_->PollModel();
  auto r2 = service_->TopK(req);
  ASSERT_EQ(r2.tier, ServeTier::kModel);
  ASSERT_FALSE(r2.recs.empty());
  EXPECT_EQ(service_->Stats().ann_rebuilds, 2u);
  for (const auto& rec : r2.recs) {
    EXPECT_DOUBLE_EQ(rec.score, gen2.Predict(0, rec.poi, 4));
  }
  // Serving without a reload does not rebuild.
  service_->TopK(req);
  EXPECT_EQ(service_->Stats().ann_rebuilds, 2u);
}

// Rebuild-while-serving storm: a writer thread replaces the model file
// continuously while the serving thread interleaves polls, ANN queries,
// fences and fold-ins. The generation invariant (TCSS_CHECK in the
// service) crashes on any (model, index) mismatch; TSan covers the
// watcher/serving-thread edges when check.sh replays this under the
// `ann` label.
TEST_F(AnnServeTest, RebuildWhileServingUnderReloadStorm) {
  const std::string path = TempPath("ann_storm_model.tcss");
  ASSERT_TRUE(SaveFactorModel(RandomModel(71, 4, 300, 12, 8), path).ok());
  Start(GeoDataset(71, 4, 300), path, AnnOptions(1, 4));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t gen = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // SaveFactorModel writes atomically (temp + rename), so a poll
      // mid-write sees either generation, never a torn file.
      ASSERT_TRUE(
          SaveFactorModel(RandomModel(100 + gen, 4, 300, 12, 8), path).ok());
      ++gen;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int i = 0; i < 400; ++i) {
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
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  const ServiceStats stats = service_->Stats();
  EXPECT_EQ(stats.total_queries, 400u);
  EXPECT_GE(stats.ann_rebuilds, 2u) << "the storm never swapped a model";
  EXPECT_GT(stats.ann_served, 0u);
}

}  // namespace
}  // namespace tcss
