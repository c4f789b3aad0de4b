#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "graph/personalized_pagerank.h"
#include "graph/social_graph.h"

namespace tcss {
namespace {

TEST(SocialGraphTest, BasicEdgesAndDegrees) {
  SocialGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());  // duplicate, coalesced
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(std::vector<uint32_t>(g.NeighborsBegin(1), g.NeighborsEnd(1)),
            (std::vector<uint32_t>{0, 2}));
}

TEST(SocialGraphTest, RejectsSelfLoopsAndOutOfRange) {
  SocialGraph g(3);
  EXPECT_FALSE(g.AddEdge(1, 1).ok());
  EXPECT_FALSE(g.AddEdge(0, 3).ok());
}

TEST(SocialGraphTest, LifecycleErrors) {
  SocialGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_FALSE(g.AddEdge(1, 2).ok());
  EXPECT_FALSE(g.Finalize().ok());
}

TEST(SocialGraphTest, AverageDegree) {
  SocialGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.0);
}

TEST(WalkGraphTest, PprMassSumsToOne) {
  WalkGraph g(4);
  g.AddArc(0, 1, 1.0);
  g.AddArc(1, 2, 1.0);
  g.AddArc(2, 0, 1.0);
  g.AddArc(2, 3, 1.0);
  g.AddArc(3, 0, 1.0);
  g.Finalize();
  auto rank = g.BookmarkColoring(0, 0.15, 1e-10);
  double total = std::accumulate(rank.begin(), rank.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  for (double r : rank) EXPECT_GE(r, 0.0);
}

TEST(WalkGraphTest, PushMatchesPowerIteration) {
  Rng rng(3);
  const size_t n = 40;
  WalkGraph g(n);
  for (size_t u = 0; u < n; ++u) {
    const size_t deg = 1 + rng.UniformInt(5);
    for (size_t d = 0; d < deg; ++d) {
      uint32_t v = static_cast<uint32_t>(rng.UniformInt(n));
      if (v != u) g.AddArc(static_cast<uint32_t>(u), v, rng.Uniform(0.2, 2.0));
    }
  }
  g.Finalize();
  for (uint32_t src : {0u, 7u, 23u}) {
    auto push = g.BookmarkColoring(src, 0.2, 1e-10);
    auto power = g.PowerIteration(src, 0.2, 300);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(push[i], power[i], 1e-5) << "node " << i;
    }
  }
}

TEST(WalkGraphTest, DanglingNodesReturnMassToSource) {
  WalkGraph g(3);
  g.AddArc(0, 1, 1.0);
  g.AddArc(0, 2, 1.0);
  // nodes 1, 2 are dangling
  g.Finalize();
  auto rank = g.BookmarkColoring(0, 0.3, 1e-12);
  double total = std::accumulate(rank.begin(), rank.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_GT(rank[0], rank[1]);
  EXPECT_NEAR(rank[1], rank[2], 1e-9);  // symmetric targets
}

TEST(WalkGraphTest, RestartConcentratesAtSource) {
  WalkGraph g(3);
  g.AddArc(0, 1, 1.0);
  g.AddArc(1, 2, 1.0);
  g.AddArc(2, 0, 1.0);
  g.Finalize();
  auto high = g.BookmarkColoring(0, 0.9, 1e-12);
  auto low = g.BookmarkColoring(0, 0.1, 1e-12);
  EXPECT_GT(high[0], low[0]);
}

TEST(WalkGraphTest, WeightsBiasTheWalk) {
  WalkGraph g(3);
  g.AddArc(0, 1, 10.0);
  g.AddArc(0, 2, 1.0);
  g.Finalize();
  auto rank = g.BookmarkColoring(0, 0.2, 1e-12);
  EXPECT_GT(rank[1], rank[2]);
}

}  // namespace
}  // namespace tcss
