// Social weekend planner: the intro scenario of the paper. For a chosen
// user and month, recommend POIs they have not visited yet, and explain
// each recommendation with its social-spatial context (which friends have
// been there, how far it is from the user's usual places).
//
//   ./social_planner [user_id] [month 1-12]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "core/tcss_model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "geo/haversine.h"

using namespace tcss;

int main(int argc, char** argv) {
  // Build the LBSN world and train TCSS on the observed 80%.
  auto data_or =
      GenerateSyntheticLbsn(PresetConfig(SyntheticPreset::kGowallaLike, 0.6));
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  const Dataset& data = data_or.value();
  const uint32_t user = argc > 1
                            ? static_cast<uint32_t>(std::atoi(argv[1]))
                            : 17 % data.num_users();
  const uint32_t month =
      argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2]) - 1) % 12 : 6;

  const TrainTestSplit split = SplitCheckins(data, 0.8, 42);
  auto train_or =
      BuildCheckinTensor(data, split.train, TimeGranularity::kMonthOfYear);
  if (!train_or.ok()) {
    std::fprintf(stderr, "%s\n", train_or.status().ToString().c_str());
    return 1;
  }
  const SparseTensor& train = train_or.value();

  TcssConfig cfg;
  cfg.epochs = 250;
  TcssModel model(cfg);
  std::printf("training TCSS on %s ...\n", data.Summary().c_str());
  Status st = model.Fit({&data, &train, TimeGranularity::kMonthOfYear, 13});
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // The user's own train POIs (we only recommend *new* places here).
  const std::span<const uint32_t> visited = train.Pois(user);
  std::vector<GeoPoint> own_places;
  for (uint32_t j : visited) own_places.push_back(data.poi(j).location);

  // Friends' POI sets for the social explanation: each POI lists the
  // friends who went, in ascending order.
  std::vector<std::vector<uint32_t>> friend_of_poi(data.num_pois());
  for (const uint32_t* f = data.social().NeighborsBegin(user);
       f != data.social().NeighborsEnd(user); ++f) {
    for (uint32_t j : train.Pois(*f)) friend_of_poi[j].push_back(*f);
  }

  // Rank unvisited POIs by TCSS score for (user, *, month).
  std::vector<uint32_t> candidates;
  for (uint32_t j = 0; j < data.num_pois(); ++j) {
    if (!std::binary_search(visited.begin(), visited.end(), j)) {
      candidates.push_back(j);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](uint32_t a, uint32_t b) {
              return model.Score(user, a, month) > model.Score(user, b, month);
            });

  static const char* kMonths[] = {"January",   "February", "March",
                                  "April",     "May",      "June",
                                  "July",      "August",   "September",
                                  "October",   "November", "December"};
  std::printf("\nTop new-place recommendations for user %u in %s:\n", user,
              kMonths[month]);
  std::printf("%-5s %-6s %-14s %-7s %-22s %s\n", "rank", "poi", "category",
              "score", "dist. to usual area", "friends who went");
  const size_t top_n = std::min<size_t>(8, candidates.size());
  for (size_t t = 0; t < top_n; ++t) {
    const uint32_t j = candidates[t];
    double nearest_own = -1.0;
    for (const auto& p : own_places) {
      const double d = HaversineKm(p, data.poi(j).location);
      if (nearest_own < 0 || d < nearest_own) nearest_own = d;
    }
    const std::vector<uint32_t>& friends = friend_of_poi[j];
    std::string who;
    for (size_t f = 0; f < friends.size() && f < 3; ++f) {
      who += (f ? ", " : "") + std::string("user ") +
             std::to_string(friends[f]);
    }
    if (friends.size() > 3) who += ", ...";
    if (who.empty()) who = "-";
    std::printf("%-5zu %-6u %-14s %-7.3f %18.1f km  %s\n", t + 1, j,
                CategoryName(data.poi(j).category),
                model.Score(user, j, month), nearest_own, who.c_str());
  }

  std::printf("\n(The social Hausdorff head is what pulls friend-visited, "
              "nearby POIs up this list.)\n");
  return 0;
}
