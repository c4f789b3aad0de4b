#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geo/geo_point.h"
#include "geo/haversine.h"
#include "geo/location_entropy.h"
#include "geo/spatial_grid.h"
#include "tensor/sparse_tensor.h"

namespace tcss {
namespace {

// Reference city coordinates.
const GeoPoint kNewYork{40.7128, -74.0060};
const GeoPoint kLosAngeles{34.0522, -118.2437};
const GeoPoint kLondon{51.5074, -0.1278};

TEST(GeoPointTest, Validity) {
  EXPECT_TRUE(IsValid({0, 0}));
  EXPECT_TRUE(IsValid({-90, 180}));
  EXPECT_FALSE(IsValid({90.1, 0}));
  EXPECT_FALSE(IsValid({0, -180.1}));
}

TEST(GeoPointTest, BoundsExtend) {
  GeoBounds b;
  b.Extend({10, 20});
  b.Extend({-5, 40});
  EXPECT_DOUBLE_EQ(b.min_lat, -5.0);
  EXPECT_DOUBLE_EQ(b.max_lat, 10.0);
  EXPECT_DOUBLE_EQ(b.min_lon, 20.0);
  EXPECT_DOUBLE_EQ(b.max_lon, 40.0);
}

TEST(HaversineTest, KnownCityDistances) {
  // NYC-LA great-circle distance is ~3936 km; NYC-London ~5570 km.
  EXPECT_NEAR(HaversineKm(kNewYork, kLosAngeles), 3936.0, 40.0);
  EXPECT_NEAR(HaversineKm(kNewYork, kLondon), 5570.0, 50.0);
}

TEST(HaversineTest, IdentityAndSymmetry) {
  EXPECT_DOUBLE_EQ(HaversineKm(kNewYork, kNewYork), 0.0);
  EXPECT_DOUBLE_EQ(HaversineKm(kNewYork, kLondon),
                   HaversineKm(kLondon, kNewYork));
}

TEST(HaversineTest, AntipodalIsHalfCircumference) {
  GeoPoint a{0, 0}, b{0, 180};
  EXPECT_NEAR(HaversineKm(a, b), M_PI * kEarthRadiusKm, 1.0);
}

TEST(HaversineTest, OneDegreeLatitudeIsAbout111Km) {
  EXPECT_NEAR(HaversineKm({10, 50}, {11, 50}), 111.2, 1.0);
}

class HaversineTriangleTest : public ::testing::TestWithParam<int> {};

TEST_P(HaversineTriangleTest, TriangleInequality) {
  Rng rng(GetParam());
  for (int t = 0; t < 50; ++t) {
    GeoPoint a{rng.Uniform(-80, 80), rng.Uniform(-179, 179)};
    GeoPoint b{rng.Uniform(-80, 80), rng.Uniform(-179, 179)};
    GeoPoint c{rng.Uniform(-80, 80), rng.Uniform(-179, 179)};
    EXPECT_LE(HaversineKm(a, c),
              HaversineKm(a, b) + HaversineKm(b, c) + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HaversineTriangleTest,
                         ::testing::Range(0, 5));

TEST(MaxPairwiseDistanceTest, ExactSmallSet) {
  std::vector<GeoPoint> pts = {kNewYork, kLosAngeles, kLondon};
  EXPECT_NEAR(MaxPairwiseDistanceKm(pts),
              HaversineKm(kLosAngeles, kLondon), 1e-9);
}

TEST(MaxPairwiseDistanceTest, DegenerateCases) {
  EXPECT_DOUBLE_EQ(MaxPairwiseDistanceKm({}), 0.0);
  EXPECT_DOUBLE_EQ(MaxPairwiseDistanceKm({kNewYork}), 0.0);
}

TEST(MaxPairwiseDistanceTest, ApproximationUpperBoundsExact) {
  Rng rng(3);
  std::vector<GeoPoint> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.Uniform(30, 45), rng.Uniform(-120, -80)});
  }
  const double exact = MaxPairwiseDistanceKm(pts, /*exact_threshold=*/1000);
  const double approx = MaxPairwiseDistanceKm(pts, /*exact_threshold=*/10);
  EXPECT_GE(approx, exact - 1e-6);
  EXPECT_LE(approx, exact * 1.25);
}

TEST(LocationEntropyTest, HandComputedValues) {
  // POI 0: two users with 1 visit each -> entropy log(2).
  // POI 1: single user -> entropy 0. POI 2: unvisited -> 0.
  SparseTensor t(3, 3, 2);
  ASSERT_TRUE(t.Add(0, 0, 0).ok());
  ASSERT_TRUE(t.Add(1, 0, 1).ok());
  ASSERT_TRUE(t.Add(2, 1, 0).ok());
  ASSERT_TRUE(t.Finalize().ok());
  auto e = ComputeLocationEntropy(t);
  ASSERT_EQ(e.size(), 3u);
  EXPECT_NEAR(e[0], std::log(2.0), 1e-12);
  EXPECT_NEAR(e[1], 0.0, 1e-12);
  EXPECT_NEAR(e[2], 0.0, 1e-12);
}

TEST(LocationEntropyTest, SkewedVisitsLowerEntropy) {
  // POI 0: balanced 1/1. POI 1: skewed 9/1 over the value dimension.
  std::vector<std::vector<std::pair<uint32_t, double>>> counts = {
      {{0, 1.0}, {1, 1.0}},
      {{0, 9.0}, {1, 1.0}},
  };
  auto e = ComputeLocationEntropyFromCounts(counts);
  EXPECT_GT(e[0], e[1]);
  EXPECT_NEAR(e[0], std::log(2.0), 1e-12);
}

// ComputeLocationEntropy is, bit for bit, ComputeLocationEntropyFromCounts
// of each POI's users in ascending order with each fiber's values summed
// in ascending k, on non-binary tensors (zero and negative values
// included). The last POI has no users and the one before it one user.
TEST(LocationEntropyTest, TensorEntropyIsBitwiseThatOfItsPerPoiCounts) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const uint32_t I = 1 + static_cast<uint32_t>(rng.UniformInt(40));
    const uint32_t J = 3 + static_cast<uint32_t>(rng.UniformInt(60));
    const uint32_t K = 1 + static_cast<uint32_t>(rng.UniformInt(6));
    SparseTensor t(I, J, K);
    const size_t n = rng.UniformInt(400);
    for (size_t e = 0; e < n; ++e) {
      const double v = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(-0.5, 3.0);
      ASSERT_TRUE(t.Add(static_cast<uint32_t>(rng.UniformInt(I)),
                        static_cast<uint32_t>(rng.UniformInt(J - 2)),
                        static_cast<uint32_t>(rng.UniformInt(K)), v)
                      .ok());
    }
    const uint32_t loner = static_cast<uint32_t>(rng.UniformInt(I));
    for (uint32_t k = 0; k < K; ++k) {
      ASSERT_TRUE(t.Add(loner, J - 2, k, rng.Uniform(0.5, 2.0)).ok());
    }
    ASSERT_TRUE(t.Finalize(/*binary=*/false).ok());

    std::vector<std::vector<std::pair<uint32_t, double>>> counts(J);
    for (const TensorEntry& e : t.entries()) {
      auto& users = counts[e.j];
      if (users.empty() || users.back().first != e.i) {
        users.emplace_back(e.i, 0.0);
      }
      users.back().second += e.value;
    }
    const std::vector<double> got = ComputeLocationEntropy(t);
    const std::vector<double> want = ComputeLocationEntropyFromCounts(counts);
    ASSERT_EQ(got.size(), want.size());
    for (uint32_t j = 0; j < J; ++j) {
      uint64_t got_bits, want_bits;
      std::memcpy(&got_bits, &got[j], sizeof(got_bits));
      std::memcpy(&want_bits, &want[j], sizeof(want_bits));
      EXPECT_EQ(got_bits, want_bits) << "seed " << seed << " POI " << j;
    }
    EXPECT_EQ(got[J - 1], 0.0);
    EXPECT_EQ(got[J - 2], 0.0);
  }
}

TEST(LocationEntropyTest, WeightsAreExpNegEntropy) {
  auto w = EntropyWeights({0.0, std::log(2.0), 2.0});
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_NEAR(w[1], 0.5, 1e-12);
  EXPECT_NEAR(w[2], std::exp(-2.0), 1e-12);
}

TEST(SpatialGridTest, WithinRadiusMatchesBruteForce) {
  Rng rng(6);
  std::vector<GeoPoint> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.Uniform(35, 38), rng.Uniform(-100, -96)});
  }
  SpatialGrid grid(pts);
  for (int t = 0; t < 20; ++t) {
    GeoPoint q{rng.Uniform(35, 38), rng.Uniform(-100, -96)};
    const double radius = rng.Uniform(5, 80);
    auto got = grid.WithinRadius(q, radius);
    std::vector<uint32_t> expect;
    for (uint32_t i = 0; i < pts.size(); ++i) {
      if (HaversineKm(q, pts[i]) <= radius) expect.push_back(i);
    }
    EXPECT_EQ(got, expect) << "radius " << radius;
  }
}

// The adversarial radius-query property: points clustered across the
// antimeridian and next to both poles (where a fixed-width longitude
// window and a query-latitude cosine both go wrong) plus a global
// scatter, queries drawn from the same clusters, radii from metres to
// quarter-circumference. WithinRadius must equal brute-force haversine
// exactly — it verifies every candidate, so the only way to fail is an
// under-sized search window.
TEST(SpatialGridTest, WithinRadiusMatchesBruteForceAtEdgesOfTheGlobe) {
  Rng rng(77);
  std::vector<GeoPoint> pts;
  auto cluster = [&](double lat, double lon, double spread, int n) {
    for (int i = 0; i < n; ++i) {
      double plat = lat + rng.Uniform(-spread, spread);
      double plon = lon + rng.Uniform(-spread, spread);
      plat = std::max(-90.0, std::min(90.0, plat));
      if (plon > 180.0) plon -= 360.0;
      if (plon < -180.0) plon += 360.0;
      pts.push_back({plat, plon});
    }
  };
  cluster(10.0, 179.8, 0.5, 60);    // straddles the antimeridian (east)
  cluster(10.0, -179.8, 0.5, 60);   // straddles it (west)
  cluster(89.5, 45.0, 0.6, 60);     // pole-adjacent north
  cluster(-89.5, -120.0, 0.6, 60);  // pole-adjacent south
  for (int i = 0; i < 120; ++i) {   // global scatter
    pts.push_back({rng.Uniform(-90, 90), rng.Uniform(-180, 180)});
  }
  SpatialGrid grid(pts);

  std::vector<GeoPoint> centers = {
      {10.0, 179.95},  {10.0, -179.95}, {89.9, 0.0},   {-89.9, 170.0},
      {90.0, -45.0},   {-90.0, 0.0},    {0.0, 0.0},    {45.0, -180.0},
  };
  for (int t = 0; t < 40; ++t) {
    centers.push_back({rng.Uniform(-90, 90), rng.Uniform(-180, 180)});
  }
  int checked = 0;
  for (const auto& q : centers) {
    // Log-uniform radii: 100 m up to a quarter of the circumference.
    for (int s = 0; s < 6; ++s) {
      const double radius = 0.1 * std::pow(10.0, rng.Uniform(0.0, 5.0));
      auto got = grid.WithinRadius(q, radius);
      std::vector<uint32_t> expect;
      for (uint32_t i = 0; i < pts.size(); ++i) {
        if (HaversineKm(q, pts[i]) <= radius) expect.push_back(i);
      }
      ASSERT_EQ(got, expect)
          << "center (" << q.lat << ", " << q.lon << ") radius " << radius;
      ++checked;
    }
  }
  EXPECT_GE(checked, 280);
}

TEST(SpatialGridTest, EmptyGrid) {
  std::vector<GeoPoint> pts;
  SpatialGrid grid(pts);
  EXPECT_TRUE(grid.WithinRadius({0, 0}, 100).empty());
}

}  // namespace
}  // namespace tcss
