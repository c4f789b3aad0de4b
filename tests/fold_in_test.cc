// Tests for the fold-in API (new-user embedding), the extra ranking
// metrics (NDCG@K, Precision@K), and the serving layer's generation-keyed
// fold-in cache contract.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "core/fold_in.h"
#include "core/incremental_fold_in.h"
#include "core/model_io.h"
#include "core/tcss_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "eval/ranking_protocol.h"
#include "obs/metrics.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"

namespace tcss {
namespace {

TEST(MetricsExtraTest, NdcgAndPrecisionValues) {
  EXPECT_DOUBLE_EQ(NdcgAtK(1.0, 10), 1.0);
  EXPECT_NEAR(NdcgAtK(3.0, 10), 1.0 / std::log2(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(NdcgAtK(11.0, 10), 0.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(1.0, 10), 0.1);
  EXPECT_DOUBLE_EQ(PrecisionAtK(10.0, 10), 0.1);
  EXPECT_DOUBLE_EQ(PrecisionAtK(10.5, 10), 0.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(1.0, 0), 0.0);
}

TEST(MetricsExtraTest, ProtocolReportsNdcg) {
  // Oracle scorer -> every rank is 1 -> NDCG 1, Precision 1/K.
  std::vector<TensorCell> cells = {{0, 5, 0}, {1, 7, 3}};
  auto score = [&cells](uint32_t i, uint32_t j, uint32_t k) {
    for (const auto& c : cells) {
      if (c.i == i && c.j == j && c.k == k) return 1.0;
    }
    return 0.0;
  };
  RankingProtocolOptions opts;
  RankingMetrics m = EvaluateRanking(score, 500, cells, opts);
  EXPECT_NEAR(m.ndcg_at_k, 1.0, 1e-9);
  EXPECT_NEAR(m.precision_at_k, 0.1, 1e-9);
}

struct Trained {
  Dataset data;
  SparseTensor train;
  FactorModel model;
};

Trained TrainSmall() {
  auto data = GenerateSyntheticLbsn(
      PresetConfig(SyntheticPreset::kGowallaLike, 0.25));
  EXPECT_TRUE(data.ok());
  TrainTestSplit split = SplitCheckins(data.value(), 0.8, 11);
  auto train = BuildCheckinTensor(data.value(), split.train,
                                  TimeGranularity::kMonthOfYear);
  EXPECT_TRUE(train.ok());
  TcssConfig cfg;
  cfg.epochs = 150;
  TcssModel model(cfg);
  EXPECT_TRUE(model
                  .Fit({&data.value(), &train.value(),
                        TimeGranularity::kMonthOfYear, 1})
                  .ok());
  return {data.MoveValue(), train.MoveValue(), model.factors()};
}

TEST(FoldInTest, RecoversExistingUserBehaviour) {
  // Fold in an *existing* user from their own observed cells; the folded
  // embedding must score that user's held-in cells far above random ones.
  Trained t = TrainSmall();
  // Pick the most active user in the train tensor.
  std::vector<size_t> count(t.train.dim_i(), 0);
  for (const auto& e : t.train.entries()) ++count[e.i];
  uint32_t user = 0;
  for (uint32_t i = 0; i < count.size(); ++i) {
    if (count[i] > count[user]) user = i;
  }
  std::vector<TensorCell> obs;
  for (const auto& e : t.train.entries()) {
    if (e.i == user) obs.push_back({e.i, e.j, e.k});
  }
  ASSERT_GE(obs.size(), 5u);

  auto folded = FoldInUser(t.model, obs);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  const auto& u = folded.value();
  ASSERT_EQ(u.size(), t.model.rank());

  double pos = 0.0;
  for (const auto& c : obs) pos += FoldInScore(t.model, u, c.j, c.k);
  pos /= static_cast<double>(obs.size());

  Rng rng(3);
  double neg = 0.0;
  size_t n = 0;
  while (n < obs.size()) {
    const uint32_t j = static_cast<uint32_t>(rng.UniformInt(t.train.dim_j()));
    const uint32_t k = static_cast<uint32_t>(rng.UniformInt(t.train.dim_k()));
    if (t.train.Contains(user, j, k)) continue;
    neg += FoldInScore(t.model, u, j, k);
    ++n;
  }
  neg /= static_cast<double>(n);
  EXPECT_GT(pos, neg + 0.2);
}

TEST(FoldInTest, FoldedEmbeddingApproximatesTrainedEmbedding) {
  Trained t = TrainSmall();
  // For an active user, the folded embedding's predictions should
  // correlate strongly with the fully trained embedding's predictions.
  std::vector<size_t> count(t.train.dim_i(), 0);
  for (const auto& e : t.train.entries()) ++count[e.i];
  uint32_t user = 0;
  for (uint32_t i = 0; i < count.size(); ++i) {
    if (count[i] > count[user]) user = i;
  }
  std::vector<TensorCell> obs;
  for (const auto& e : t.train.entries()) {
    if (e.i == user) obs.push_back({e.i, e.j, e.k});
  }
  auto folded = FoldInUser(t.model, obs);
  ASSERT_TRUE(folded.ok());
  // Pearson correlation over a sample of cells.
  Rng rng(7);
  std::vector<double> a, b;
  for (int s = 0; s < 500; ++s) {
    const uint32_t j = static_cast<uint32_t>(rng.UniformInt(t.train.dim_j()));
    const uint32_t k = static_cast<uint32_t>(rng.UniformInt(t.train.dim_k()));
    a.push_back(FoldInScore(t.model, folded.value(), j, k));
    b.push_back(t.model.Predict(user, j, k));
  }
  double ma = 0, mb = 0;
  for (size_t s = 0; s < a.size(); ++s) {
    ma += a[s];
    mb += b[s];
  }
  ma /= a.size();
  mb /= b.size();
  double cov = 0, va = 0, vb = 0;
  for (size_t s = 0; s < a.size(); ++s) {
    cov += (a[s] - ma) * (b[s] - mb);
    va += (a[s] - ma) * (a[s] - ma);
    vb += (b[s] - mb) * (b[s] - mb);
  }
  const double corr = cov / std::sqrt(va * vb + 1e-30);
  EXPECT_GT(corr, 0.6);
}

// Regression for the generation-cache staleness bug class: a fold-in
// embedding solved against model generation N must never be served after
// a hot reload to generation N+1 — the solver (the service's own, or one
// shared with a streaming engine) has to re-solve against the new
// factors. Asserted end to end through RecommendService: fill the cache
// on model A, swap the watched file to a different model B, poll, and
// require the served scores to match the batch fold-in oracle evaluated
// on B (a stale cache would reproduce A's scores instead).
void CheckFoldInCacheInvalidatesOnReload(bool shared_solver) {
  Trained t = TrainSmall();
  // Most active user with index >= 1, so a u1 prefix of `user` rows puts
  // that user on the fold-in tier while staying a valid model shape.
  std::vector<size_t> count(t.train.dim_i(), 0);
  for (const auto& e : t.train.entries()) ++count[e.i];
  uint32_t user = 1;
  for (uint32_t i = 1; i < count.size(); ++i) {
    if (count[i] > count[user]) user = i;
  }
  ASSERT_GE(count[user], 3u);

  const size_t r = t.model.rank();
  FactorModel a = t.model;
  Matrix prefix(user, r);
  for (size_t i = 0; i < user; ++i) {
    for (size_t c = 0; c < r; ++c) prefix(i, c) = t.model.u1(i, c);
  }
  a.u1 = prefix;
  // Model B: same shape, visibly different POI factors (and therefore a
  // different fold-in system and different scores).
  FactorModel b = a;
  for (size_t j = 0; j < b.u2.rows(); ++j) {
    for (size_t c = 0; c < r; ++c) {
      b.u2(j, c) = 0.7 * b.u2(j, c) + 0.05 * static_cast<double>((j + c) % 3);
    }
  }

  const std::string path = ::testing::TempDir() + "/" +
                           (shared_solver ? "gen_stale_shared.model"
                                          : "gen_stale_owned.model");
  ASSERT_TRUE(SaveFactorModel(a, path).ok());

  ModelWatcher::Options wopts;
  wopts.num_users = t.data.num_users();
  wopts.num_pois = t.data.num_pois();
  wopts.num_bins = NumBins(TimeGranularity::kMonthOfYear);
  ModelWatcher watcher(path, wopts);

  IncrementalFoldIn shared;
  obs::MetricRegistry metrics;  // Stats() counts this service alone
  RecommendService::Options sopts;
  sopts.metrics = &metrics;
  if (shared_solver) sopts.incremental = &shared;
  RecommendService svc(&t.data, TimeGranularity::kMonthOfYear, &watcher,
                       sopts);
  ASSERT_TRUE(svc.Init().ok());
  ASSERT_NE(watcher.current(), nullptr);

  ServeRequest req;
  req.user = user;
  req.time_bin = 0;
  req.k = 5;
  auto r1 = svc.TopK(req);
  ASSERT_EQ(r1.tier, ServeTier::kFoldIn);
  ASSERT_FALSE(r1.recs.empty());
  EXPECT_EQ(svc.Stats().fold_in_cache_misses, 1u);
  // Second query: served from the cache, no re-solve.
  auto r1b = svc.TopK(req);
  EXPECT_EQ(svc.Stats().fold_in_cache_hits, 1u);
  ASSERT_EQ(r1b.recs.size(), r1.recs.size());
  for (size_t s = 0; s < r1.recs.size(); ++s) {
    EXPECT_EQ(r1.recs[s].poi, r1b.recs[s].poi);
    EXPECT_DOUBLE_EQ(r1.recs[s].score, r1b.recs[s].score);
  }

  // Hot-swap to model B (generation N+1) and query again.
  ASSERT_TRUE(SaveFactorModel(b, path).ok());
  svc.PollModel();
  auto r2 = svc.TopK(req);
  ASSERT_EQ(r2.tier, ServeTier::kFoldIn);
  ASSERT_FALSE(r2.recs.empty());
  EXPECT_EQ(svc.Stats().fold_in_cache_misses, 2u)
      << "reload to a new generation must force a fold-in re-solve";

  // Oracle: the batch fold-in against B over the same observation list
  // the service uses — the FULL-dataset tensor's cells for this user, in
  // tensor-entry order (the tensor Init built and bound to the solver).
  auto full = BuildCheckinTensor(t.data, TimeGranularity::kMonthOfYear);
  ASSERT_TRUE(full.ok());
  std::vector<TensorCell> obs;
  for (const auto& e : full.value().entries()) {
    if (e.i == user) obs.push_back({e.i, e.j, e.k});
  }
  auto emb = FoldInUser(b, obs);
  ASSERT_TRUE(emb.ok()) << emb.status().ToString();
  for (const auto& rec : r2.recs) {
    EXPECT_NEAR(rec.score,
                FoldInScore(b, emb.value(), rec.poi, req.time_bin), 1e-9)
        << "served score at poi " << rec.poi
        << " does not match the new generation's fold-in";
  }
}

TEST(FoldInTest, CacheInvalidatesOnReloadServiceOwnedSolver) {
  CheckFoldInCacheInvalidatesOnReload(/*shared_solver=*/false);
}

TEST(FoldInTest, CacheInvalidatesOnReloadEngineSharedSolver) {
  CheckFoldInCacheInvalidatesOnReload(/*shared_solver=*/true);
}

TEST(FoldInTest, RejectsBadInput) {
  Trained t = TrainSmall();
  FactorModel empty;
  EXPECT_FALSE(FoldInUser(empty, {}).ok());
  // Out-of-range POI index.
  EXPECT_FALSE(
      FoldInUser(t.model,
                 {{0, static_cast<uint32_t>(t.train.dim_j()), 0}})
          .ok());
  // No observations: the ridge system still solves to ~zero vector.
  auto zero = FoldInUser(t.model, {});
  ASSERT_TRUE(zero.ok());
  for (double v : zero.value()) EXPECT_NEAR(v, 0.0, 1e-9);
}

}  // namespace
}  // namespace tcss
