#include "data/synthetic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "data/time_binning.h"
#include "geo/spatial_grid.h"

namespace tcss {
namespace {

// Month profiles per category (unnormalized; Jan..Dec). These encode the
// seasonal patterns the paper discusses: outdoor activity peaks in summer,
// shopping around the winter holidays, entertainment mildly in summer, and
// food is nearly uniform ("people can go to a restaurant at any time of the
// year").
const double kMonthProfile[kNumCategories][12] = {
    // shopping: holiday build-up, Nov/Dec spike
    {0.7, 0.6, 0.7, 0.7, 0.8, 0.8, 0.8, 0.9, 0.9, 1.0, 1.8, 2.2},
    // entertainment: mild summer peak + December
    {0.7, 0.7, 0.8, 0.9, 1.0, 1.3, 1.4, 1.3, 1.0, 0.9, 0.8, 1.1},
    // food: nearly uniform
    {1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.05, 1.05, 1.0, 1.0, 1.0, 1.0},
    // outdoor: strong summer peak, dead winter
    {0.2, 0.25, 0.5, 0.9, 1.4, 1.9, 2.1, 2.0, 1.3, 0.8, 0.35, 0.2},
};

// Hour-of-day profiles per category (unnormalized; 0..23).
const double kHourProfile[kNumCategories][24] = {
    // shopping: daytime, after-work bump
    {0.02, 0.01, 0.01, 0.01, 0.02, 0.05, 0.1, 0.3, 0.6, 0.9, 1.1, 1.2,
     1.2,  1.1,  1.0,  1.0,  1.1,  1.3,  1.2, 0.9, 0.6, 0.3, 0.1, 0.05},
    // entertainment: evening/night heavy
    {0.5,  0.4,  0.3,  0.15, 0.08, 0.05, 0.05, 0.08, 0.1, 0.15, 0.25, 0.4,
     0.5,  0.5,  0.5,  0.6,  0.7,  0.9,  1.2,  1.6,  1.9, 2.0,  1.6,  1.0},
    // food: breakfast/lunch/dinner peaks
    {0.05, 0.03, 0.02, 0.02, 0.03, 0.1, 0.4, 0.8, 0.7, 0.4, 0.5, 1.4,
     1.8,  1.2,  0.5,  0.4,  0.5,  1.2, 2.0, 1.8, 1.0, 0.5, 0.2, 0.1},
    // outdoor: daylight hours
    {0.02, 0.01, 0.01, 0.01, 0.03, 0.15, 0.5, 0.9, 1.3, 1.5, 1.6, 1.5,
     1.4,  1.4,  1.4,  1.3,  1.2,  1.0,  0.7, 0.4, 0.15, 0.06, 0.03, 0.02},
};

// Global category mix of POIs, loosely matching Gowalla's category sizes
// in the paper (shopping 6392, entertainment 5667, food 3824, outdoor 2272).
const double kCategoryMix[kNumCategories] = {0.35, 0.31, 0.21, 0.13};

const int kDaysInMonth[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

// Seasonal concentration per category: how sharply an individual POI's
// visits cluster around its own peak month (von-Mises-like window).
// Outdoor POIs (a ski slope, a lake beach) are strongly seasonal; food is
// nearly year-round - matching the category analysis of the paper.
const double kSeasonKappa[kNumCategories] = {1.8, 1.2, 0.2, 3.0};

struct UserProfile {
  uint32_t home_city;
  uint32_t archetype;
  double activity;                     // expected share of total check-ins
  double pref[kNumCategories];         // category preference, sums to 1
};

double PrefSimilarity(const UserProfile& a, const UserProfile& b) {
  double s = 0.0;
  for (int c = 0; c < kNumCategories; ++c) s += std::min(a.pref[c], b.pref[c]);
  return s;  // overlap coefficient in [0,1]
}

}  // namespace

const char* PresetName(SyntheticPreset preset) {
  switch (preset) {
    case SyntheticPreset::kGowallaLike:
      return "gowalla-like";
    case SyntheticPreset::kYelpLike:
      return "yelp-like";
    case SyntheticPreset::kFoursquareLike:
      return "foursquare-like";
    case SyntheticPreset::kGmu5kLike:
      return "gmu5k-like";
  }
  return "?";
}

SyntheticConfig PresetConfig(SyntheticPreset preset, double scale) {
  SyntheticConfig c;
  c.name = PresetName(preset);
  switch (preset) {
    case SyntheticPreset::kGowallaLike:
      c.seed = 101;
      c.num_users = 300;
      c.num_pois = 250;
      c.num_checkins = 24000;
      c.num_cities = 3;
      c.num_archetypes = 4;
      c.popularity_zipf = 1.3;
      c.mean_friends = 8.0;
      c.revisit_prob = 0.50;
      c.friend_poi_prob = 0.22;
      c.travel_prob = 0.05;
      break;
    case SyntheticPreset::kYelpLike:
      c.seed = 202;
      c.num_users = 310;
      c.num_pois = 280;
      c.num_checkins = 8500;  // sparsest preset
      c.num_cities = 5;
      c.num_archetypes = 6;
      c.popularity_zipf = 1.1;
      c.mean_friends = 5.0;
      c.revisit_prob = 0.42;
      c.friend_poi_prob = 0.16;
      break;
    case SyntheticPreset::kFoursquareLike:
      c.seed = 303;
      c.num_users = 350;
      c.num_pois = 230;
      c.num_checkins = 26000;
      c.num_cities = 3;
      c.num_archetypes = 4;
      c.popularity_zipf = 1.3;
      c.mean_friends = 7.0;
      c.revisit_prob = 0.52;
      c.friend_poi_prob = 0.22;
      c.travel_prob = 0.05;
      break;
    case SyntheticPreset::kGmu5kLike:
      c.seed = 404;
      c.num_users = 200;
      c.num_pois = 170;
      c.num_checkins = 52000;  // dense patterns-of-life
      c.num_cities = 2;
      c.num_archetypes = 4;
      c.popularity_zipf = 1.25;
      c.mean_friends = 10.0;
      c.friend_poi_prob = 0.22;
      c.revisit_prob = 0.55;
      break;
  }
  if (scale < 1.0 && scale > 0.0) {
    c.num_users = std::max<size_t>(24, static_cast<size_t>(c.num_users * scale));
    c.num_pois = std::max<size_t>(20, static_cast<size_t>(c.num_pois * scale));
    c.num_checkins =
        std::max<size_t>(400, static_cast<size_t>(c.num_checkins * scale));
    c.num_cities = std::max<size_t>(2, static_cast<size_t>(c.num_cities * scale));
  }
  return c;
}

Result<Dataset> GenerateSyntheticLbsn(const SyntheticConfig& cfg) {
  if (cfg.num_users < 2 || cfg.num_pois < kNumCategories ||
      cfg.num_cities < 1) {
    return Status::InvalidArgument("synthetic: config too small");
  }
  Rng rng(cfg.seed);

  // --- Cities: centers scattered over a continental-US-like box. ---
  std::vector<GeoPoint> city_centers(cfg.num_cities);
  for (auto& c : city_centers) {
    c.lat = rng.Uniform(30.0, 47.0);
    c.lon = rng.Uniform(-122.0, -75.0);
  }
  // City sizes follow a Zipf-ish skew (big metros get more POIs/users).
  std::vector<double> city_weight(cfg.num_cities);
  for (size_t c = 0; c < cfg.num_cities; ++c) {
    city_weight[c] = 1.0 / std::pow(static_cast<double>(c + 1), 0.6);
  }

  // --- POIs ---
  std::vector<Poi> pois(cfg.num_pois);
  std::vector<uint32_t> poi_city(cfg.num_pois);
  std::vector<double> poi_popularity(cfg.num_pois);
  std::vector<int> poi_peak_month(cfg.num_pois);
  std::vector<std::vector<std::vector<uint32_t>>> city_cat_pois(
      cfg.num_cities,
      std::vector<std::vector<uint32_t>>(kNumCategories));
  {
    std::vector<double> mix(kCategoryMix, kCategoryMix + kNumCategories);
    for (uint32_t j = 0; j < cfg.num_pois; ++j) {
      const uint32_t city = static_cast<uint32_t>(rng.Categorical(city_weight));
      const int cat = static_cast<int>(rng.Categorical(mix));
      pois[j].category = static_cast<PoiCategory>(cat);
      pois[j].location.lat =
          city_centers[city].lat + rng.Gaussian(0.0, cfg.city_sigma_deg);
      pois[j].location.lon =
          city_centers[city].lon + rng.Gaussian(0.0, cfg.city_sigma_deg * 1.3);
      poi_city[j] = city;
      city_cat_pois[city][cat].push_back(j);
      // Each POI gets its own peak month, drawn from the category's
      // month profile, so e.g. one outdoor POI is a July lake beach and
      // another a January ski slope.
      std::vector<double> mp(kMonthProfile[cat], kMonthProfile[cat] + 12);
      poi_peak_month[j] = static_cast<int>(rng.Categorical(mp));
    }
    // Ensure every (city, category) bucket used later has a fallback: if a
    // city lacks a category, queries fall back to any POI in the city, and
    // failing that, anywhere.
    std::vector<double> zipf(cfg.num_pois);
    for (uint32_t j = 0; j < cfg.num_pois; ++j) {
      zipf[j] = 1.0 / std::pow(static_cast<double>(j + 1), cfg.popularity_zipf);
    }
    rng.Shuffle(&zipf);  // decorrelate popularity from index/category
    poi_popularity = std::move(zipf);
  }
  std::vector<std::vector<uint32_t>> city_pois(cfg.num_cities);
  for (uint32_t j = 0; j < cfg.num_pois; ++j) city_pois[poi_city[j]].push_back(j);

  // --- Archetypes: sharp taste prototypes shared by many users. ---
  const size_t num_arch = std::max<size_t>(1, cfg.num_archetypes);
  std::vector<std::array<double, kNumCategories>> arch_pref(num_arch);
  for (size_t a = 0; a < num_arch; ++a) {
    // Each archetype concentrates on one dominant category (cycled so all
    // categories are covered) with a random secondary interest.
    const int dominant = static_cast<int>(a % kNumCategories);
    const int secondary = static_cast<int>(rng.UniformInt(kNumCategories));
    double total = 0.0;
    for (int c = 0; c < kNumCategories; ++c) {
      double w = 0.08 + 0.1 * rng.Uniform();
      if (c == dominant) w += 1.0;
      if (c == secondary) w += 0.35;
      arch_pref[a][c] = w * kCategoryMix[c];
      total += arch_pref[a][c];
    }
    for (int c = 0; c < kNumCategories; ++c) arch_pref[a][c] /= total;
  }

  // --- Users: archetype + home city + activity. ---
  std::vector<UserProfile> users(cfg.num_users);
  for (auto& u : users) {
    u.home_city = static_cast<uint32_t>(rng.Categorical(city_weight));
    u.archetype = static_cast<uint32_t>(rng.UniformInt(num_arch));
    u.activity = std::exp(rng.Gaussian(0.0, 0.8));  // lognormal
    double total = 0.0;
    for (int c = 0; c < kNumCategories; ++c) {
      const double noise =
          1.0 + cfg.pref_noise * (2.0 * rng.Uniform() - 1.0);
      u.pref[c] = arch_pref[u.archetype][c] * std::max(noise, 0.05);
      total += u.pref[c];
    }
    for (int c = 0; c < kNumCategories; ++c) u.pref[c] /= total;
  }

  // --- Social graph: homophilous random graph. ---
  SocialGraph social(cfg.num_users);
  {
    // Bucket users by city for fast same-city sampling.
    std::vector<std::vector<uint32_t>> city_users(cfg.num_cities);
    for (uint32_t i = 0; i < cfg.num_users; ++i) {
      city_users[users[i].home_city].push_back(i);
    }
    const size_t target_edges = static_cast<size_t>(
        cfg.mean_friends * static_cast<double>(cfg.num_users) / 2.0);
    size_t made = 0;
    size_t attempts = 0;
    const size_t max_attempts = target_edges * 50 + 1000;
    while (made < target_edges && attempts < max_attempts) {
      ++attempts;
      uint32_t u = static_cast<uint32_t>(rng.UniformInt(cfg.num_users));
      uint32_t v;
      if (rng.Bernoulli(cfg.same_city_friend_prob) &&
          city_users[users[u].home_city].size() > 1) {
        const auto& pool = city_users[users[u].home_city];
        v = pool[rng.UniformInt(pool.size())];
      } else {
        v = static_cast<uint32_t>(rng.UniformInt(cfg.num_users));
      }
      if (u == v) continue;
      // Preference homophily: accept with probability rising in taste
      // overlap.
      if (!rng.Bernoulli(0.25 + 0.75 * PrefSimilarity(users[u], users[v]))) {
        continue;
      }
      Status st = social.AddEdge(u, v);
      if (st.ok()) ++made;
    }
    // Every user gets at least one friend (the paper filters users with
    // >= 1 friend): attach loners to a random same-city user.
    for (uint32_t i = 0; i < cfg.num_users; ++i) {
      // SocialGraph isn't finalized yet, so track degrees separately.
      // Simpler: always add one edge for users never touched above.
      // We do a cheap pass by attempting an edge; duplicates coalesce.
      uint32_t v;
      const auto& pool = city_users[users[i].home_city];
      if (pool.size() > 1) {
        do {
          v = pool[rng.UniformInt(pool.size())];
        } while (v == i);
      } else {
        do {
          v = static_cast<uint32_t>(rng.UniformInt(cfg.num_users));
        } while (v == i);
      }
      (void)social.AddEdge(i, v);
    }
    TCSS_RETURN_IF_ERROR(social.Finalize());
  }

  Dataset data(cfg.num_users, pois, std::move(social));

  // --- Check-ins ---
  // Per-user expected event count proportional to activity, floor 15
  // (the paper filters users with at least 15 check-ins).
  std::vector<double> act(cfg.num_users);
  double act_total = 0.0;
  for (uint32_t i = 0; i < cfg.num_users; ++i) {
    act[i] = users[i].activity;
    act_total += act[i];
  }
  std::vector<size_t> quota(cfg.num_users);
  for (uint32_t i = 0; i < cfg.num_users; ++i) {
    quota[i] = std::max<size_t>(
        15, static_cast<size_t>(std::lround(
                act[i] / act_total * static_cast<double>(cfg.num_checkins))));
  }

  std::vector<std::vector<uint32_t>> history(cfg.num_users);
  // Friends' POIs are consulted lazily from histories; generate users in
  // random order rounds so adoption can flow both directions.
  std::vector<uint32_t> order(cfg.num_users);
  for (uint32_t i = 0; i < cfg.num_users; ++i) order[i] = i;

  // Seed every user's history with one home-city POI matching their taste.
  for (uint32_t i = 0; i < cfg.num_users; ++i) {
    const UserProfile& u = users[i];
    std::vector<double> prefs(u.pref, u.pref + kNumCategories);
    int cat = static_cast<int>(rng.Categorical(prefs));
    const std::vector<uint32_t>* pool = &city_cat_pois[u.home_city][cat];
    if (pool->empty()) pool = &city_pois[u.home_city];
    if (pool->empty()) continue;
    std::vector<double> w(pool->size());
    for (size_t t = 0; t < pool->size(); ++t) w[t] = poi_popularity[(*pool)[t]];
    history[i].push_back((*pool)[rng.Categorical(w)]);
  }

  // Spatial index over all POIs for the friend-neighbourhood step.
  const std::vector<GeoPoint> poi_locations = data.PoiLocations();
  SpatialGrid poi_grid(poi_locations);

  const size_t rounds = 8;  // interleave users for social adoption
  for (size_t round = 0; round < rounds; ++round) {
    rng.Shuffle(&order);
    for (uint32_t i : order) {
      size_t n = quota[i] / rounds + (round < quota[i] % rounds ? 1 : 0);
      const UserProfile& u = users[i];
      for (size_t e = 0; e < n; ++e) {
        uint32_t poi = UINT32_MAX;
        const double roll = rng.Uniform();
        if (roll < cfg.revisit_prob && !history[i].empty()) {
          poi = history[i][rng.UniformInt(history[i].size())];
        } else if (roll < cfg.revisit_prob + cfg.friend_poi_prob &&
                   data.social().Degree(i) > 0) {
          // Friend influence: take a POI from a uniformly chosen friend's
          // history, or (friend_nearby_prob) a POI in its neighbourhood -
          // friends recommend areas, not just exact venues.
          const size_t deg = data.social().Degree(i);
          const uint32_t f =
              data.social().NeighborsBegin(i)[rng.UniformInt(deg)];
          if (!history[f].empty()) {
            const uint32_t anchor =
                history[f][rng.UniformInt(history[f].size())];
            poi = anchor;
            if (rng.Bernoulli(cfg.friend_nearby_prob)) {
              const auto nearby = poi_grid.WithinRadius(
                  poi_locations[anchor], cfg.friend_nearby_km);
              if (nearby.size() > 1) {
                std::vector<double> w(nearby.size());
                for (size_t t = 0; t < nearby.size(); ++t) {
                  w[t] = poi_popularity[nearby[t]];
                }
                poi = nearby[rng.Categorical(w)];
              }
            }
          }
        }
        if (poi == UINT32_MAX) {
          // Popularity-weighted choice of a taste-matching POI, usually in
          // the home city.
          std::vector<double> prefs(u.pref, u.pref + kNumCategories);
          const int cat = static_cast<int>(rng.Categorical(prefs));
          uint32_t city = u.home_city;
          if (rng.Bernoulli(cfg.travel_prob)) {
            city = static_cast<uint32_t>(rng.Categorical(city_weight));
          }
          const std::vector<uint32_t>* pool = &city_cat_pois[city][cat];
          if (pool->empty()) pool = &city_pois[city];
          if (pool->empty()) pool = &city_pois[0];
          if (pool->empty()) continue;
          std::vector<double> w(pool->size());
          for (size_t t = 0; t < pool->size(); ++t)
            w[t] = poi_popularity[(*pool)[t]];
          poi = (*pool)[rng.Categorical(w)];
        }

        // Timestamp: month from the POI's *own* seasonal window (peak
        // month + category-dependent concentration), blended toward
        // uniform by (1 - seasonality); hour from the category profile.
        const int pcat = static_cast<int>(pois[poi].category);
        const double kappa = kSeasonKappa[pcat];
        std::vector<double> mp(12);
        for (int m = 0; m < 12; ++m) {
          const double w = std::exp(
              kappa *
              std::cos(2.0 * M_PI * (m - poi_peak_month[poi]) / 12.0));
          mp[m] = cfg.seasonality * w + (1.0 - cfg.seasonality) * 1.0;
        }
        const int month = static_cast<int>(rng.Categorical(mp)) + 1;
        std::vector<double> hp(kHourProfile[pcat],
                               kHourProfile[pcat] + 24);
        const int hour = static_cast<int>(rng.Categorical(hp));
        const int day =
            1 + static_cast<int>(rng.UniformInt(kDaysInMonth[month - 1]));
        const int minute = static_cast<int>(rng.UniformInt(60));
        const int64_t ts =
            FromCivil(cfg.year, month, day, hour, minute, 0);
        TCSS_RETURN_IF_ERROR(data.AddCheckIn(i, poi, ts));
        history[i].push_back(poi);
      }
    }
  }
  return data;
}

namespace {

/// Derives one independent RNG stream per (seed, user). Counter-based:
/// user u's draws are a pure function of these two, never of how many
/// other users were generated before — the property that makes arbitrary
/// user slices independently generatable.
uint64_t UserStream(uint64_t seed, uint64_t user) {
  return Mix64(seed + 0x9e3779b97f4a7c15ULL * (user + 1));
}

}  // namespace

Result<SparseTensor> GenerateStreamedSlice(const StreamedTensorConfig& config,
                                           size_t user_begin,
                                           size_t user_end) {
  if (user_begin > user_end || user_end > config.num_users) {
    return Status::InvalidArgument("streamed slice out of user range");
  }
  if (config.num_pois == 0 || config.num_bins == 0) {
    return Status::InvalidArgument("streamed tensor needs pois and bins");
  }
  if (!(config.activity_tail > 1.0)) {
    return Status::InvalidArgument("activity_tail must be > 1");
  }
  const size_t J = config.num_pois;
  const size_t K = config.num_bins;
  SparseTensor tensor(user_end - user_begin, J, K);
  // Pareto(a) has mean a/(a-1); dividing it out makes mean_checkins the
  // actual expected event count regardless of the tail index.
  const double a = config.activity_tail;
  const double pareto_mean = a / (a - 1.0);
  for (size_t u = user_begin; u < user_end; ++u) {
    Rng rng(UserStream(config.seed, u));
    const double pareto = std::pow(1.0 - rng.Uniform(), -1.0 / a);
    const double events = config.mean_checkins * pareto / pareto_mean;
    size_t n = static_cast<size_t>(events);
    if (n > config.max_checkins_per_user) n = config.max_checkins_per_user;
    const uint32_t i = static_cast<uint32_t>(u - user_begin);
    for (size_t e = 0; e < n; ++e) {
      const double pop = std::pow(rng.Uniform(), config.popularity_skew);
      size_t j = static_cast<size_t>(pop * static_cast<double>(J));
      if (j >= J) j = J - 1;
      const size_t k = rng.UniformInt(K);
      TCSS_RETURN_IF_ERROR(tensor.Add(i, static_cast<uint32_t>(j),
                                      static_cast<uint32_t>(k)));
    }
  }
  TCSS_RETURN_IF_ERROR(tensor.Finalize(/*binary=*/true));
  return tensor;
}

Result<Dataset> GenerateDriftStream(const DriftStreamConfig& config) {
  if (config.num_users == 0 || config.num_pois == 0) {
    return Status::InvalidArgument("drift stream needs users and POIs");
  }
  if (config.popularity_width <= 0.0 || config.home_width <= 0.0) {
    return Status::InvalidArgument("drift stream widths must be positive");
  }
  const double J = static_cast<double>(config.num_pois);

  // POIs on a geographic grid (valid coordinates, cycling categories) so
  // the stream feeds every downstream consumer unchanged.
  std::vector<Poi> pois(config.num_pois);
  const size_t grid = static_cast<size_t>(std::ceil(std::sqrt(J)));
  for (size_t j = 0; j < config.num_pois; ++j) {
    Poi& p = pois[j];
    p.location = {35.0 + 0.01 * static_cast<double>(j / grid),
                  -100.0 + 0.01 * static_cast<double>(j % grid)};
    p.category = static_cast<PoiCategory>(j % kNumCategories);
  }
  SocialGraph social(config.num_users);  // streams carry no social signal
  TCSS_RETURN_IF_ERROR(social.Finalize());
  Dataset data(config.num_users, std::move(pois), std::move(social));

  Rng rng(config.seed);
  // Home blocks: each user anchors to a block of the catalogue; migrating
  // users get a second block (offset by half the catalogue) and a
  // personal migration date in the middle third of the year.
  std::vector<double> home(config.num_users);
  std::vector<double> home_after(config.num_users);
  std::vector<double> migrate_at(config.num_users, 2.0);  // > 1 = never
  for (size_t u = 0; u < config.num_users; ++u) {
    home[u] = rng.Uniform() * J;
    home_after[u] = home[u];
    if (rng.Bernoulli(config.migration_prob)) {
      home_after[u] = std::fmod(home[u] + 0.5 * J, J);
      migrate_at[u] = 0.33 + 0.34 * rng.Uniform();
    }
  }

  const int64_t start = FromCivil(config.year, 1, 1);
  const int64_t end = FromCivil(config.year + 1, 1, 1);
  const double span = static_cast<double>(end - start);
  const double pop_w = config.popularity_width * J;
  const double home_w = config.home_width * J;
  for (size_t e = 0; e < config.num_events; ++e) {
    // Monotone timestamps: event e lands in its own slot of the year.
    const double frac =
        static_cast<double>(e) / static_cast<double>(config.num_events);
    const int64_t slot = static_cast<int64_t>(
        span / static_cast<double>(config.num_events));
    const int64_t ts = start + static_cast<int64_t>(frac * span) +
                       (slot > 0 ? static_cast<int64_t>(
                                       rng.UniformInt(static_cast<uint64_t>(
                                           slot)))
                                 : 0);
    const uint32_t user =
        static_cast<uint32_t>(rng.UniformInt(config.num_users));
    double center;
    if (rng.Bernoulli(config.popular_prob)) {
      // The drifting popular window: its centre moves linearly through
      // the catalogue as the year progresses.
      center = std::fmod(0.2 * J + frac * config.popularity_shift * J, J);
    } else {
      center = frac < migrate_at[user] ? home[user] : home_after[user];
    }
    const double width = rng.Bernoulli(config.popular_prob) ? pop_w : home_w;
    double pos = center + rng.Gaussian(0.0, 0.5 * width);
    pos = std::fmod(std::fmod(pos, J) + J, J);
    const uint32_t poi = static_cast<uint32_t>(pos);
    TCSS_RETURN_IF_ERROR(data.AddCheckIn(user, poi, ts));
  }
  return data;
}

}  // namespace tcss
