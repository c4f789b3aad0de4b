#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/hausdorff_loss.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "data/time_binning.h"
#include "geo/haversine.h"
#include "linalg/simd.h"
#include "obs/metrics.h"

namespace tcss {
namespace {

// Two users who are friends; user 0's candidate geometry is what the
// Hausdorff head sees. POIs laid out on a line with known distances.
struct Fixture {
  Dataset data;
  SparseTensor train;

  static Fixture Make(bool user1_visits_far_poi = false) {
    SocialGraph social(2);
    EXPECT_TRUE(social.AddEdge(0, 1).ok());
    EXPECT_TRUE(social.Finalize().ok());
    // POIs spaced ~111 km apart along a meridian.
    std::vector<Poi> pois = {
        {{10.0, 20.0}, PoiCategory::kFood},
        {{11.0, 20.0}, PoiCategory::kFood},
        {{12.0, 20.0}, PoiCategory::kShopping},
        {{13.0, 20.0}, PoiCategory::kOutdoor},
    };
    Dataset d(2, pois, std::move(social));
    // User 0 visits POI 0; user 1 (the friend) visits POI 1 (and 3 if
    // requested).
    EXPECT_TRUE(d.AddCheckIn(0, 0, FromCivil(2011, 1, 5)).ok());
    EXPECT_TRUE(d.AddCheckIn(1, 1, FromCivil(2011, 2, 5)).ok());
    if (user1_visits_far_poi) {
      EXPECT_TRUE(d.AddCheckIn(1, 3, FromCivil(2011, 3, 5)).ok());
    }
    SparseTensor t(2, 4, 12);
    for (const auto& c : d.checkins()) {
      EXPECT_TRUE(
          t.Add(c.user, c.poi, TimeBin(c.timestamp,
                                       TimeGranularity::kMonthOfYear))
              .ok());
    }
    EXPECT_TRUE(t.Finalize().ok());
    Fixture f{std::move(d), std::move(t)};
    return f;
  }
};

TcssConfig SmallConfig() {
  TcssConfig cfg;
  cfg.rank = 2;
  cfg.hausdorff_pool = 0;  // all POIs (paper-exact)
  cfg.max_friend_pois = 0;
  cfg.use_location_entropy = false;
  return cfg;
}

// A model whose predictions we can pin: u1 row picks the user, u2 row the
// POI, u3 constant over time. Setting entries of u2 controls p_{i,j}.
FactorModel PinnedModel(size_t J, double yes_value) {
  FactorModel m;
  m.u1 = Matrix(2, 1, 1.0);
  m.u2 = Matrix(J, 1, 0.0);
  m.u3 = Matrix(12, 1, 1.0);
  m.h = {yes_value};
  return m;
}

TEST(SocialHausdorffTest, EligibleUsersAndFriendSets) {
  Fixture f = Fixture::Make();
  SocialHausdorffLoss loss(f.data, f.train, SmallConfig());
  EXPECT_EQ(loss.num_eligible_users(), 2u);
  // N(v_0) = user 1's POIs = {1}; N(v_1) = {0}.
  EXPECT_EQ(loss.friend_pois(0), (std::vector<uint32_t>{1}));
  EXPECT_EQ(loss.friend_pois(1), (std::vector<uint32_t>{0}));
  // Pool 0 => all POIs are candidates.
  EXPECT_EQ(loss.candidate_pool(0).size(), 4u);
  EXPECT_GT(loss.d_max(), 300.0);  // ~333 km between POI 0 and 3
}

// The head's lists as the sorted-vector construction built them, kept as
// the reference for SocialHausdorffLoss's: N(v_i) by sort-and-unique of
// the friends' POIs, S(v_i) by binary_search and sorted inserts of the
// fill draws, one Rng stream in user order (friend lists first).
struct HeadLists {
  std::vector<std::vector<uint32_t>> friend_pois, pool;
  size_t eligible = 0;
};

HeadLists ReferenceHeadLists(const Dataset& data, const SparseTensor& train,
                             const TcssConfig& config) {
  const size_t I = train.dim_i();
  const size_t J = train.dim_j();
  HeadLists out;
  Rng rng(config.seed ^ 0x4a05d0u);
  out.friend_pois.assign(I, {});
  for (uint32_t i = 0; i < I; ++i) {
    std::vector<uint32_t>& n = out.friend_pois[i];
    if (config.hausdorff == HausdorffMode::kSelf) {
      const std::span<const uint32_t> own = train.Pois(i);
      n.assign(own.begin(), own.end());
    } else {
      for (const uint32_t* f = data.social().NeighborsBegin(i);
           f != data.social().NeighborsEnd(i); ++f) {
        const std::span<const uint32_t> theirs = train.Pois(*f);
        n.insert(n.end(), theirs.begin(), theirs.end());
      }
      std::sort(n.begin(), n.end());
      n.erase(std::unique(n.begin(), n.end()), n.end());
    }
    if (config.max_friend_pois > 0 && n.size() > config.max_friend_pois) {
      rng.Shuffle(&n);
      n.resize(config.max_friend_pois);
      std::sort(n.begin(), n.end());
    }
  }
  out.pool.assign(I, {});
  for (uint32_t i = 0; i < I; ++i) {
    std::vector<uint32_t>& s = out.pool[i];
    if (config.hausdorff_pool == 0 || config.hausdorff_pool >= J) {
      s.resize(J);
      for (uint32_t j = 0; j < J; ++j) s[j] = j;
    } else {
      const std::span<const uint32_t> own = train.Pois(i);
      s.assign(own.begin(), own.end());
      s.insert(s.end(), out.friend_pois[i].begin(), out.friend_pois[i].end());
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
      size_t guard = 0;
      while (s.size() < config.hausdorff_pool && guard < 20 * J) {
        ++guard;
        const uint32_t j = static_cast<uint32_t>(rng.UniformInt(J));
        if (!std::binary_search(s.begin(), s.end(), j)) {
          s.insert(std::lower_bound(s.begin(), s.end(), j), j);
        }
      }
      if (s.size() > config.hausdorff_pool) {
        rng.Shuffle(&s);
        s.resize(config.hausdorff_pool);
        std::sort(s.begin(), s.end());
      }
    }
    if (!s.empty() && !out.friend_pois[i].empty()) ++out.eligible;
  }
  return out;
}

// A random world for the list checks: POIs in a two-degree box, random
// friendships (every seventh user has none) and up to `visits` check-ins
// for every user but every fifth, who has none.
Fixture MakeListWorld(uint64_t seed, size_t users, size_t pois,
                      size_t visits) {
  Rng rng(seed);
  std::vector<Poi> locations(pois);
  for (Poi& p : locations) {
    p = {{rng.Uniform(40.0, 42.0), rng.Uniform(-74.0, -72.0)},
         PoiCategory::kFood};
  }
  SocialGraph social(users);
  for (size_t e = 0; e < 2 * users; ++e) {
    const uint32_t u = static_cast<uint32_t>(rng.UniformInt(users));
    const uint32_t v = static_cast<uint32_t>(rng.UniformInt(users));
    if (u != v && u % 7 != 0 && v % 7 != 0) {
      EXPECT_TRUE(social.AddEdge(u, v).ok());
    }
  }
  EXPECT_TRUE(social.Finalize().ok());
  SparseTensor t(users, pois, 12);
  for (uint32_t u = 0; u < users; ++u) {
    if (u % 5 == 3) continue;
    for (size_t n = 1 + rng.UniformInt(visits); n > 0; --n) {
      EXPECT_TRUE(t.Add(u, static_cast<uint32_t>(rng.UniformInt(pois)),
                        static_cast<uint32_t>(rng.UniformInt(12)))
                      .ok());
    }
  }
  EXPECT_TRUE(t.Finalize().ok());
  return {Dataset(users, std::move(locations), std::move(social)),
          std::move(t)};
}

// Every user's N(v_i) and S(v_i) are the reference's, held at their exact
// size, under both list modes, with the friend cap off and binding, and
// with the pool at 0 (all POIs), at or above J, below J (rejection draws
// and shuffles) and at its default. J is never a multiple of 64; 4,500
// POIs span two summary words of the POI set.
TEST(SocialHausdorffTest, ListsMatchTheSortedVectorReference) {
  struct Shape {
    size_t users, pois, visits;
    std::vector<size_t> pools;
  };
  const Shape shapes[] = {{60, 37, 12, {0, 12, 37, 40, 160}},
                          {80, 200, 30, {0, 12, 160, 200}},
                          {30, 4500, 40, {160, 1500}}};
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    for (const Shape& shape : shapes) {
      const Fixture w =
          MakeListWorld(seed, shape.users, shape.pois, shape.visits);
      for (const HausdorffMode mode :
           {HausdorffMode::kSocial, HausdorffMode::kSelf}) {
        for (const size_t cap : {size_t{0}, size_t{5}}) {
          for (const size_t pool : shape.pools) {
            TcssConfig cfg;
            cfg.seed = seed;
            cfg.hausdorff = mode;
            cfg.max_friend_pois = cap;
            cfg.hausdorff_pool = pool;
            const SocialHausdorffLoss loss(w.data, w.train, cfg);
            const HeadLists want = ReferenceHeadLists(w.data, w.train, cfg);
            const std::string where =
                StrFormat("seed %llu J %zu mode %s cap %zu pool %zu",
                          static_cast<unsigned long long>(seed), shape.pois,
                          HausdorffModeName(mode), cap, pool);
            ASSERT_EQ(loss.num_eligible_users(), want.eligible) << where;
            for (uint32_t u = 0; u < shape.users; ++u) {
              const std::vector<uint32_t>& n = loss.friend_pois(u);
              const std::vector<uint32_t>& s = loss.candidate_pool(u);
              ASSERT_EQ(n, want.friend_pois[u]) << where << " user " << u;
              ASSERT_EQ(s, want.pool[u]) << where << " user " << u;
              ASSERT_EQ(n.capacity(), n.size()) << where << " user " << u;
              ASSERT_EQ(s.capacity(), s.size()) << where << " user " << u;
            }
          }
        }
      }
    }
  }
}

TEST(SocialHausdorffTest, DeterministicCaseMatchesHandComputedAhd) {
  // With p in {0, 1} and alpha -> -inf the loss reduces to the plain
  // average Hausdorff distance (the paper's Eq 9/10 remark). We verify
  // against a hand-computed AHD in the deterministic regime with a very
  // negative alpha.
  Fixture f = Fixture::Make();
  TcssConfig cfg = SmallConfig();
  cfg.alpha = -40.0;  // near-exact min
  SocialHausdorffLoss loss(f.data, f.train, cfg);

  // Model: user 0 visits POI 0 with p ~ 1, everything else ~ 0.
  FactorModel m = PinnedModel(4, 1.0);
  m.u2(0, 0) = 1.0 - 1e-9;  // p(0,0) ~ 1 (y clamps just below 1)

  // Hand computation for user 0 (S = {POI 0}, N = {POI 1}):
  //   term1 = d(0, 1); term2 = M_alpha over S of f, f(0) = d(0,1).
  const double d01 = HaversineKm(f.data.poi(0).location,
                                 f.data.poi(1).location);
  const double got = loss.ComputeForUser(m, 0, nullptr, 0.0);
  // term1 uses A + eps normalization with A = sum p ~ 1 + 3*0 = 1.
  // term2 soft-min over 4 candidates: f(0)=d01 (p=1), f(j)=d_max for the
  // p=0 POIs, so M_-40 ~ (1/4 sum f^-40)^(-1/40) ~ d01 * 4^(1/40).
  const double m_alpha = d01 * std::pow(4.0, 1.0 / 40.0);
  EXPECT_NEAR(got, d01 + m_alpha, 0.05 * (d01 + m_alpha));
}

TEST(SocialHausdorffTest, FarPredictionsArePenalizedMore) {
  Fixture f = Fixture::Make();
  TcssConfig cfg = SmallConfig();
  SocialHausdorffLoss loss(f.data, f.train, cfg);
  // Case A: user 0 predicted near the friend's POI (POI 1).
  FactorModel near_model = PinnedModel(4, 1.0);
  near_model.u2(1, 0) = 0.9;
  // Case B: same mass but on the far POI 3.
  FactorModel far_model = PinnedModel(4, 1.0);
  far_model.u2(3, 0) = 0.9;
  EXPECT_LT(loss.ComputeForUser(near_model, 0, nullptr, 0.0),
            loss.ComputeForUser(far_model, 0, nullptr, 0.0));
}

TEST(SocialHausdorffTest, GradientMatchesNumerical) {
  Fixture f = Fixture::Make(/*user1_visits_far_poi=*/true);
  TcssConfig cfg = SmallConfig();
  cfg.rank = 2;
  SocialHausdorffLoss loss(f.data, f.train, cfg);
  Rng rng(3);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(2, 2, &rng, 0.4);
  m.u2 = Matrix::GaussianRandom(4, 2, &rng, 0.4);
  m.u3 = Matrix::GaussianRandom(12, 2, &rng, 0.4);
  m.h = {0.8, 1.2};

  FactorGrads g(m);
  g.Zero();
  double base = 0.0;
  for (uint32_t u = 0; u < 2; ++u) {
    base += loss.ComputeForUser(m, u, &g, 1.0);
  }
  auto full = [&]() {
    double s = 0.0;
    for (uint32_t u = 0; u < 2; ++u) s += loss.ComputeForUser(m, u, nullptr, 0.0);
    return s;
  };
  (void)base;
  const double eps = 1e-6;
  auto check = [&](double* param, double analytic, const char* what) {
    const double orig = *param;
    *param = orig + eps;
    const double up = full();
    *param = orig - eps;
    const double down = full();
    *param = orig;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic, numeric,
                2e-3 * std::max(1.0, std::fabs(numeric)))
        << what;
  };
  for (size_t i = 0; i < m.u1.size(); ++i) {
    check(m.u1.data() + i, g.u1.data()[i], "u1");
  }
  for (size_t i = 0; i < m.u2.size(); ++i) {
    check(m.u2.data() + i, g.u2.data()[i], "u2");
  }
  for (size_t i = 0; i < m.u3.size(); ++i) {
    check(m.u3.data() + i, g.u3.data()[i], "u3");
  }
  for (size_t t = 0; t < m.h.size(); ++t) check(&m.h[t], g.h[t], "h");
}

TEST(SocialHausdorffTest, GradScaleScalesGradients) {
  Fixture f = Fixture::Make();
  SocialHausdorffLoss loss(f.data, f.train, SmallConfig());
  Rng rng(4);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(2, 2, &rng, 0.4);
  m.u2 = Matrix::GaussianRandom(4, 2, &rng, 0.4);
  m.u3 = Matrix::GaussianRandom(12, 2, &rng, 0.4);
  m.h = {1.0, 1.0};
  FactorGrads g1(m), g2(m);
  g1.Zero();
  g2.Zero();
  (void)loss.ComputeForUser(m, 0, &g1, 1.0);
  (void)loss.ComputeForUser(m, 0, &g2, 2.5);
  Matrix scaled = g1.u2;
  scaled.Scale(2.5);
  EXPECT_LT(MaxAbsDiff(scaled, g2.u2), 1e-10);
}

TEST(SocialHausdorffTest, SelfModeUsesOwnPois) {
  Fixture f = Fixture::Make();
  TcssConfig cfg = SmallConfig();
  cfg.hausdorff = HausdorffMode::kSelf;
  SocialHausdorffLoss loss(f.data, f.train, cfg);
  EXPECT_EQ(loss.friend_pois(0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(loss.friend_pois(1), (std::vector<uint32_t>{1}));
}

TEST(SocialHausdorffTest, EntropyWeightsReduceLossOnPopularPois) {
  // Making the friend's POI popular (visited by everyone) lowers e_j and
  // thus the penalty contribution of distances to it.
  SocialGraph social(3);
  ASSERT_TRUE(social.AddEdge(0, 1).ok());
  ASSERT_TRUE(social.Finalize().ok());
  std::vector<Poi> pois = {{{10, 20}, PoiCategory::kFood},
                           {{11, 20}, PoiCategory::kFood}};
  Dataset d(3, pois, std::move(social));
  ASSERT_TRUE(d.AddCheckIn(0, 0, FromCivil(2011, 1, 1)).ok());
  ASSERT_TRUE(d.AddCheckIn(1, 1, FromCivil(2011, 2, 1)).ok());
  ASSERT_TRUE(d.AddCheckIn(2, 1, FromCivil(2011, 3, 1)).ok());  // popular POI 1
  SparseTensor t(3, 2, 12);
  for (const auto& c : d.checkins()) {
    ASSERT_TRUE(
        t.Add(c.user, c.poi,
              TimeBin(c.timestamp, TimeGranularity::kMonthOfYear))
            .ok());
  }
  ASSERT_TRUE(t.Finalize().ok());

  TcssConfig with, without;
  with = SmallConfig();
  with.use_location_entropy = true;
  without = SmallConfig();
  without.use_location_entropy = false;
  SocialHausdorffLoss weighted(d, t, with);
  SocialHausdorffLoss unweighted(d, t, without);
  // POI 1 has entropy log 2 -> weight 0.5 < 1.
  EXPECT_NEAR(weighted.entropy_weights()[1], 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(unweighted.entropy_weights()[1], 1.0);

  FactorModel m = PinnedModel(2, 1.0);
  m.u2(0, 0) = 0.7;
  m.u2(1, 0) = 0.2;
  EXPECT_LT(weighted.ComputeForUser(m, 0, nullptr, 0.0),
            unweighted.ComputeForUser(m, 0, nullptr, 0.0));
}

TEST(SocialHausdorffTest, ComputeWithGradsExtrapolates) {
  Fixture f = Fixture::Make();
  TcssConfig cfg = SmallConfig();
  cfg.hausdorff_users_per_epoch = 1;  // half the eligible users per epoch
  SocialHausdorffLoss loss(f.data, f.train, cfg);
  FactorModel m = PinnedModel(4, 1.0);
  m.u2(0, 0) = 0.5;
  m.u2(1, 0) = 0.5;
  FactorGrads g(m);
  g.Zero();
  const double full = loss.ComputeFull(m);
  // Two minibatch epochs cover both users; their extrapolated sum is 2x
  // the true per-user values, so the average matches the full loss.
  const double e1 = loss.ComputeWithGrads(m, 0.1, &g);
  const double e2 = loss.ComputeWithGrads(m, 0.1, &g);
  EXPECT_NEAR((e1 + e2) / 2.0, full, 1e-9);
}

TEST(SocialHausdorffTest, LambdaZeroShortCircuits) {
  Fixture f = Fixture::Make();
  SocialHausdorffLoss loss(f.data, f.train, SmallConfig());
  FactorModel m = PinnedModel(4, 1.0);
  FactorGrads g(m);
  g.Zero();
  EXPECT_DOUBLE_EQ(loss.ComputeWithGrads(m, 0.0, &g), 0.0);
  EXPECT_DOUBLE_EQ(g.u2.MaxAbs(), 0.0);
}

TEST(SocialHausdorffTest, DistanceBlockMatchesHaversineBitwise) {
  // Clusters where the haversine terms are delicate: both sides of the
  // antimeridian, a few metres from either pole, the equator, duplicate
  // points (distance exactly 0) and antipodes.
  Rng rng(7);
  std::vector<Poi> pois;
  const GeoPoint centres[] = {{0.0, 179.9995}, {0.0, -179.9995},
                              {89.9999, 0.0},  {-89.9999, 120.0},
                              {51.5, -0.1},    {-51.5, 179.9}};
  for (const GeoPoint& c : centres) {
    for (int n = 0; n < 6; ++n) {
      const double lat = std::clamp(c.lat + rng.Uniform(-1e-4, 1e-4), -90.0,
                                    90.0);
      pois.push_back({{lat, c.lon + rng.Uniform(-1e-3, 1e-3)},
                      PoiCategory::kFood});
    }
  }
  pois.push_back(pois.front());  // a duplicate location
  // Points outside csv_io's range, NaN and infinite: no unit vector, so
  // the block's diagonal takes HaversineKm for them.
  for (const GeoPoint& p : {GeoPoint{91.0, 10.0}, GeoPoint{10.0, 200.0},
                            GeoPoint{std::nan(""), 5.0},
                            GeoPoint{5.0, INFINITY}}) {
    pois.push_back({p, PoiCategory::kFood});
  }
  // Enough more cluster points for a block past the stack buffers
  // (|S| > 160, |N| > 96).
  while (pois.size() < 215) {
    const GeoPoint& c = centres[pois.size() % 6];
    const double lat =
        std::clamp(c.lat + rng.Uniform(-1e-2, 1e-2), -90.0, 90.0);
    pois.push_back({{lat, c.lon + rng.Uniform(-1e-2, 1e-2)},
                    PoiCategory::kFood});
  }
  SocialGraph social(1);
  ASSERT_TRUE(social.Finalize().ok());
  const Dataset data(1, pois, std::move(social));
  std::vector<uint32_t> all(pois.size()), even;
  for (uint32_t j = 0; j < all.size(); ++j) all[j] = j;
  for (uint32_t j = 0; j < all.size(); j += 2) even.push_back(j);
  // some holds two of the points above (37 and 40). In (some, all) most
  // friend POIs are not in S, so only column 0 has a mirrored row.
  const std::vector<uint32_t> some = {0, 7, 13, 19, 25, 31, 36, 37, 40};
  ASSERT_GT(even.size(), 96u);
  for (SimdMode mode : {SimdMode::kScalar, SimdMode::kNative}) {
    SetSimdMode(mode);
    for (const auto& [s_set, n_set] :
         {std::make_pair(all, all), std::make_pair(all, some),
          std::make_pair(some, all), std::make_pair(some, some),
          std::make_pair(all, even)}) {
      for (double d_max : {20000.0, 0.5}) {  // 0.5 km caps the row minima
        std::vector<float> dist(s_set.size() * n_set.size());
        std::vector<float> dmin(s_set.size());
        HausdorffDistanceBlock(data, s_set, n_set, d_max, dist.data(),
                               dmin.data());
        for (size_t a = 0; a < s_set.size(); ++a) {
          double best = d_max;
          for (size_t b = 0; b < n_set.size(); ++b) {
            const double d = HaversineKm(data.poi(s_set[a]).location,
                                         data.poi(n_set[b]).location);
            const float want = static_cast<float>(d);
            EXPECT_EQ(std::memcmp(&dist[a * n_set.size() + b], &want,
                                  sizeof(float)),
                      0)
                << "pair " << s_set[a] << "," << n_set[b] << " "
                << SimdModeName(mode);
            best = std::min(best, d);
          }
          const float want_min = static_cast<float>(best);
          EXPECT_EQ(std::memcmp(&dmin[a], &want_min, sizeof(float)), 0)
              << "row " << s_set[a] << " d_max " << d_max;
        }
      }
    }
  }
  SetSimdMode(ResolveSimdMode(std::getenv("TCSS_SIMD")));
}

TEST(SocialHausdorffTest, ExactDistancePathIsRareOnGowalla) {
  // The cache fill runs HausdorffDistanceBlock for every eligible user of
  // the gowalla preset. Its chord-form kernel and the mirrored friend-POI
  // block leave only the pairs it cannot prove to HaversineKm: a margin
  // that sent every pair to HaversineKm fails here, and so does a block
  // that sends the diagonal (a POI in both S and N, at distance 0) there.
  auto data =
      GenerateSyntheticLbsn(PresetConfig(SyntheticPreset::kGowallaLike));
  ASSERT_TRUE(data.ok());
  const TrainTestSplit split = SplitCheckins(data.value(), 0.8, 1);
  auto train = BuildCheckinTensor(data.value(), split.train,
                                  TimeGranularity::kMonthOfYear);
  ASSERT_TRUE(train.ok());
  obs::MetricRegistry* reg = obs::MetricRegistry::Global();
  obs::Counter* pairs = reg->GetCounter("train.hausdorff.distance_pairs");
  obs::Counter* exact = reg->GetCounter("train.hausdorff.exact_pairs");
  const uint64_t pairs_before = pairs->Value();
  const uint64_t exact_before = exact->Value();
  SocialHausdorffLoss loss(data.value(), train.value(), TcssConfig());
  ASSERT_EQ(reg->GetGauge("train.hausdorff.dist_cache_on")->Value(), 1.0);
  const double swept = static_cast<double>(pairs->Value() - pairs_before);
  const double listed = static_cast<double>(exact->Value() - exact_before);
  EXPECT_GT(swept, 1e6);
  EXPECT_LE(listed / swept, 0.001);
}

TEST(SocialHausdorffTest, DistanceCacheGaugesReportTheCacheOnSide) {
  Fixture f = Fixture::Make(/*user1_visits_far_poi=*/true);
  SocialHausdorffLoss loss(f.data, f.train, SmallConfig());
  // Both users are eligible: 4 candidates each, N sizes 2 and 1; the
  // cache holds |S| (|N| + 1) floats per user.
  const double bytes = (4.0 * 3.0 + 4.0 * 2.0) * sizeof(float);
  obs::MetricRegistry* reg = obs::MetricRegistry::Global();
  EXPECT_EQ(reg->GetGauge("train.hausdorff.dist_cache_on")->Value(), 1.0);
  EXPECT_EQ(reg->GetGauge("train.hausdorff.dist_cache_bytes")->Value(),
            bytes);
}

}  // namespace
}  // namespace tcss
