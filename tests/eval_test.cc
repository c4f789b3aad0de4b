#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "eval/metrics.h"
#include "eval/ranking_protocol.h"

namespace tcss {
namespace {

TEST(MidRankTest, StrictOrdering) {
  EXPECT_DOUBLE_EQ(MidRank(10.0, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(MidRank(0.0, {1, 2, 3}), 4.0);
  EXPECT_DOUBLE_EQ(MidRank(2.5, {1, 2, 3}), 2.0);
}

TEST(MidRankTest, TiesSplitEvenly) {
  // Target tied with all three -> rank 1 + 0 + 1.5 = 2.5.
  EXPECT_DOUBLE_EQ(MidRank(1.0, {1, 1, 1}), 2.5);
  // One greater, one tie.
  EXPECT_DOUBLE_EQ(MidRank(1.0, {2, 1}), 2.5);
}

TEST(MidRankTest, EmptyOthersIsRankOne) {
  EXPECT_DOUBLE_EQ(MidRank(0.0, {}), 1.0);
}

TEST(RmseTest, AgainstConstant) {
  std::vector<TensorCell> cells = {{0, 0, 0}, {1, 1, 1}};
  auto score = [](uint32_t i, uint32_t, uint32_t) {
    return i == 0 ? 1.0 : 0.0;
  };
  // errors vs target 1: {0, 1} -> rmse sqrt(0.5)
  EXPECT_NEAR(RmseAgainstConstant(score, cells, 1.0), std::sqrt(0.5), 1e-12);
  EXPECT_DOUBLE_EQ(RmseAgainstConstant(score, {}, 1.0), 0.0);
}

std::vector<TensorCell> MakeCells(size_t n, size_t num_users,
                                  size_t num_pois, uint64_t seed) {
  Rng rng(seed);
  std::vector<TensorCell> cells;
  for (size_t t = 0; t < n; ++t) {
    cells.push_back({static_cast<uint32_t>(rng.UniformInt(num_users)),
                     static_cast<uint32_t>(rng.UniformInt(num_pois)),
                     static_cast<uint32_t>(rng.UniformInt(12))});
  }
  return cells;
}

TEST(RankingProtocolTest, OracleScorerGetsPerfectMetrics) {
  auto cells = MakeCells(200, 20, 500, 1);
  // Oracle: the target POI of a cell always scores highest. Encode the
  // "true" poi per (user, time) by checking membership.
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> truth;
  for (const auto& c : cells) truth.insert({c.i, c.j, c.k});
  auto score = [&truth](uint32_t i, uint32_t j, uint32_t k) {
    return truth.count({i, j, k}) ? 1.0 : 0.0;
  };
  RankingProtocolOptions opts;
  RankingMetrics m = EvaluateRanking(score, 500, cells, opts);
  EXPECT_DOUBLE_EQ(m.hit_at_k, 1.0);
  // Negatives may occasionally also be "true" cells; MRR stays near 1.
  EXPECT_GT(m.mrr, 0.95);
  EXPECT_EQ(m.num_entries, 200u);
}

TEST(RankingProtocolTest, RandomScorerIsNearChance) {
  auto cells = MakeCells(2000, 50, 300, 2);
  Rng rng(3);
  auto score = [&rng](uint32_t, uint32_t, uint32_t) {
    return rng.Uniform();
  };
  RankingProtocolOptions opts;
  RankingMetrics m = EvaluateRanking(score, 300, cells, opts);
  // Chance level: 10 / 101.
  EXPECT_NEAR(m.hit_at_k, 10.0 / 101.0, 0.02);
}

TEST(RankingProtocolTest, ConstantScorerGetsMidRank) {
  auto cells = MakeCells(500, 10, 200, 4);
  auto score = [](uint32_t, uint32_t, uint32_t) { return 0.5; };
  RankingProtocolOptions opts;
  RankingMetrics m = EvaluateRanking(score, 200, cells, opts);
  // Every target lands at mid-rank 51 -> no hits, MRR = 1/51.
  EXPECT_DOUBLE_EQ(m.hit_at_k, 0.0);
  EXPECT_NEAR(m.mrr, 1.0 / 51.0, 1e-9);
}

TEST(RankingProtocolTest, MrrAveragesPerUserFirst) {
  // User 0 has 2 cells with rank 1; user 1 has 1 cell ranked last.
  // Entry-level mean RR would be (1 + 1 + ~0)/3 = 0.67; the paper's
  // user-level average is (1 + ~0)/2 = 0.5.
  std::vector<TensorCell> cells = {{0, 5, 0}, {0, 6, 1}, {1, 7, 0}};
  auto score = [](uint32_t i, uint32_t j, uint32_t) {
    if (i == 0) return j == 5 || j == 6 ? 1.0 : 0.0;
    return j == 7 ? -1.0 : 0.0;  // user 1's target always loses
  };
  RankingProtocolOptions opts;
  opts.num_negatives = 100;
  RankingMetrics m = EvaluateRanking(score, 1000, cells, opts);
  EXPECT_EQ(m.num_users, 2u);
  EXPECT_NEAR(m.mrr, 0.5 * (1.0 + 1.0 / 101.0), 1e-6);
}

TEST(RankingProtocolTest, DeterministicForSeed) {
  auto cells = MakeCells(300, 30, 400, 5);
  auto score = [](uint32_t i, uint32_t j, uint32_t k) {
    return std::sin(static_cast<double>(i * 131 + j * 17 + k));
  };
  RankingProtocolOptions opts;
  RankingMetrics a = EvaluateRanking(score, 400, cells, opts);
  RankingMetrics b = EvaluateRanking(score, 400, cells, opts);
  EXPECT_DOUBLE_EQ(a.hit_at_k, b.hit_at_k);
  EXPECT_DOUBLE_EQ(a.mrr, b.mrr);
}

TEST(RankingProtocolTest, EmptyTestSet) {
  RankingProtocolOptions opts;
  RankingMetrics m = EvaluateRanking(
      [](uint32_t, uint32_t, uint32_t) { return 0.0; }, 100, {}, opts);
  EXPECT_EQ(m.num_entries, 0u);
  EXPECT_DOUBLE_EQ(m.hit_at_k, 0.0);
}

TEST(RankingProtocolTest, TopKControlsHitThreshold) {
  auto cells = MakeCells(400, 20, 300, 6);
  Rng rng(7);
  auto score = [&rng](uint32_t, uint32_t, uint32_t) {
    return rng.Uniform();
  };
  RankingProtocolOptions opts1;
  opts1.top_k = 1;
  RankingProtocolOptions opts50;
  opts50.top_k = 50;
  double h1 = EvaluateRanking(score, 300, cells, opts1).hit_at_k;
  double h50 = EvaluateRanking(score, 300, cells, opts50).hit_at_k;
  EXPECT_LT(h1, h50);
  EXPECT_NEAR(h50, 50.0 / 101.0, 0.06);
}

// --- Edge cases of the protocol (PR 5) -----------------------------------

TEST(RankingProtocolTest, TieHeavyScorerIsDeterministicAcrossRuns) {
  // A scorer with ties everywhere (three distinct score levels) must give
  // bitwise-identical metrics on repeat runs: ties are handled by MidRank
  // arithmetic, not by any ordering of equal keys.
  auto cells = MakeCells(300, 15, 200, 11);
  auto score = [](uint32_t, uint32_t j, uint32_t) {
    return static_cast<double>(j % 3);
  };
  RankingProtocolOptions opts;
  RankingMetrics a = EvaluateRanking(score, 200, cells, opts);
  RankingMetrics b = EvaluateRanking(score, 200, cells, opts);
  EXPECT_EQ(a.mrr, b.mrr);
  EXPECT_EQ(a.hit_at_k, b.hit_at_k);
  EXPECT_EQ(a.ndcg_at_k, b.ndcg_at_k);
  EXPECT_EQ(a.precision_at_k, b.precision_at_k);
}

TEST(RankingProtocolTest, UsersWithoutTestCellsDoNotDiluteMrr) {
  // Only users 2 and 9 have test cells; MRR averages over exactly those
  // two, not over the full user range.
  std::vector<TensorCell> cells = {{2, 5, 0}, {2, 6, 1}, {9, 7, 0}};
  auto score = [](uint32_t, uint32_t, uint32_t) { return 1.0; };
  RankingProtocolOptions opts;
  opts.num_negatives = 4;
  RankingMetrics m = EvaluateRanking(score, 50, cells, opts);
  EXPECT_EQ(m.num_users, 2u);
  // Constant scores: every rank is the mid-rank 1 + 4/2 = 3.
  EXPECT_DOUBLE_EQ(m.mrr, 1.0 / 3.0);
}

TEST(RankingProtocolTest, TopKBeyondCatalogStillWellDefined) {
  // top_k far larger than both the POI catalogue and the candidate list:
  // every target ranks within k, so Hit@K saturates at 1 and the metrics
  // stay in range.
  auto cells = MakeCells(50, 5, 8, 21);
  Rng rng(3);
  auto score = [&rng](uint32_t, uint32_t, uint32_t) {
    return rng.Uniform();
  };
  RankingProtocolOptions opts;
  opts.top_k = 1000;
  opts.num_negatives = 6;
  RankingMetrics m = EvaluateRanking(score, 8, cells, opts);
  EXPECT_DOUBLE_EQ(m.hit_at_k, 1.0);
  EXPECT_GT(m.ndcg_at_k, 0.0);
  EXPECT_LE(m.ndcg_at_k, 1.0);
}

TEST(RankingProtocolTest, SinglePoiCatalogRanksTargetFirst) {
  // With one POI there are no negatives to draw (j == target is always
  // rejected); the attempts guard must terminate and the target gets
  // rank 1 against an empty field.
  std::vector<TensorCell> cells = {{0, 0, 0}, {1, 0, 3}};
  auto score = [](uint32_t, uint32_t, uint32_t) { return 0.5; };
  RankingProtocolOptions opts;
  RankingMetrics m = EvaluateRanking(score, 1, cells, opts);
  EXPECT_EQ(m.num_entries, 2u);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_DOUBLE_EQ(m.hit_at_k, 1.0);
}

}  // namespace
}  // namespace tcss
