#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "common/env.h"
#include "common/rng.h"
#include "data/csv_io.h"
#include "data/dataset.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "data/time_binning.h"
#include "geo/geo_point.h"

namespace tcss {
namespace {

TEST(TimeBinningTest, CivilRoundTripKnownDates) {
  // 2011-02-14 13:45:30 UTC.
  int64_t ts = FromCivil(2011, 2, 14, 13, 45, 30);
  CivilTime c = ToCivil(ts);
  EXPECT_EQ(c.year, 2011);
  EXPECT_EQ(c.month, 2);
  EXPECT_EQ(c.day, 14);
  EXPECT_EQ(c.hour, 13);
  EXPECT_EQ(c.minute, 45);
  EXPECT_EQ(c.second, 30);
  EXPECT_EQ(c.day_of_year, 31 + 13);
}

TEST(TimeBinningTest, EpochIsJan1st1970) {
  CivilTime c = ToCivil(0);
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
  EXPECT_EQ(c.hour, 0);
  EXPECT_EQ(c.day_of_year, 0);
}

TEST(TimeBinningTest, LeapYearDayOfYear) {
  // 2012 is a leap year: March 1st is day 31+29 = index 60.
  CivilTime c = ToCivil(FromCivil(2012, 3, 1));
  EXPECT_EQ(c.day_of_year, 60);
  // 2011 (non-leap): March 1st is index 59.
  EXPECT_EQ(ToCivil(FromCivil(2011, 3, 1)).day_of_year, 59);
}

TEST(TimeBinningTest, NegativeTimestamps) {
  // 1969-12-31 23:00:00.
  CivilTime c = ToCivil(-3600);
  EXPECT_EQ(c.year, 1969);
  EXPECT_EQ(c.month, 12);
  EXPECT_EQ(c.day, 31);
  EXPECT_EQ(c.hour, 23);
}

TEST(TimeBinningTest, BinsPerGranularity) {
  EXPECT_EQ(NumBins(TimeGranularity::kMonthOfYear), 12u);
  EXPECT_EQ(NumBins(TimeGranularity::kWeekOfYear), 53u);
  EXPECT_EQ(NumBins(TimeGranularity::kHourOfDay), 24u);
  // Paper example: a February check-in has k = 1.
  int64_t feb = FromCivil(2011, 2, 10, 12);
  EXPECT_EQ(TimeBin(feb, TimeGranularity::kMonthOfYear), 1u);
  // 22:00 falls in hour bin 22.
  int64_t night = FromCivil(2011, 6, 1, 22);
  EXPECT_EQ(TimeBin(night, TimeGranularity::kHourOfDay), 22u);
  // December 31st of a non-leap year is day 364 -> week 52.
  int64_t nye = FromCivil(2011, 12, 31, 5);
  EXPECT_EQ(TimeBin(nye, TimeGranularity::kWeekOfYear), 52u);
}

// TimeBin derives only its own bin; it must give the bins of ToCivil's
// fields over the loadable calendar range: random timestamps, and edges
// of every year's Jan 1, Feb 28/29, Mar 1 and Dec 31 (each year to 2100,
// every 37th after).
TEST(TimeBinningTest, BinsMatchCivilTimeOverTheCalendarRange) {
  std::vector<int64_t> stamps;
  Rng rng(2033);
  const uint64_t span = kMaxCheckinTimestamp - kMinCheckinTimestamp + 1;
  for (int n = 0; n < 200000; ++n) {
    stamps.push_back(kMinCheckinTimestamp +
                     static_cast<int64_t>(rng.UniformInt(span)));
  }
  const int kEdges[][2] = {{1, 1}, {2, 28}, {2, 29}, {3, 1}, {12, 31}};
  for (int year = 1; year <= 9999; year += year < 2100 ? 1 : 37) {
    for (const auto& [month, day] : kEdges) {
      const int64_t t = FromCivil(year, month, day);
      for (int64_t offset : {-1, 0, 1, 3600, 86399}) {
        stamps.push_back(t + offset);
      }
    }
  }
  for (int64_t ts : stamps) {
    const CivilTime c = ToCivil(ts);
    ASSERT_EQ(TimeBin(ts, TimeGranularity::kMonthOfYear),
              static_cast<uint32_t>(c.month - 1))
        << ts;
    ASSERT_EQ(TimeBin(ts, TimeGranularity::kWeekOfYear),
              static_cast<uint32_t>(c.day_of_year / 7))
        << ts;
    ASSERT_EQ(TimeBin(ts, TimeGranularity::kHourOfDay),
              static_cast<uint32_t>(c.hour))
        << ts;
  }
}

TEST(TimeBinningTest, GranularityNames) {
  EXPECT_STREQ(GranularityName(TimeGranularity::kMonthOfYear), "month");
  EXPECT_STREQ(GranularityName(TimeGranularity::kWeekOfYear), "week");
  EXPECT_STREQ(GranularityName(TimeGranularity::kHourOfDay), "hour");
}

Dataset TinyDataset() {
  SocialGraph social(3);
  EXPECT_TRUE(social.AddEdge(0, 1).ok());
  EXPECT_TRUE(social.Finalize().ok());
  std::vector<Poi> pois = {
      {{40.0, -74.0}, PoiCategory::kFood},
      {{40.1, -74.1}, PoiCategory::kShopping},
      {{40.2, -74.2}, PoiCategory::kFood},
  };
  Dataset d(3, pois, std::move(social));
  EXPECT_TRUE(d.AddCheckIn(0, 0, FromCivil(2011, 1, 5)).ok());
  EXPECT_TRUE(d.AddCheckIn(0, 1, FromCivil(2011, 2, 5)).ok());
  EXPECT_TRUE(d.AddCheckIn(1, 2, FromCivil(2011, 3, 5)).ok());
  EXPECT_TRUE(d.AddCheckIn(2, 0, FromCivil(2011, 3, 6)).ok());
  return d;
}

TEST(DatasetTest, BasicAccessors) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.num_users(), 3u);
  EXPECT_EQ(d.num_pois(), 3u);
  EXPECT_EQ(d.num_checkins(), 4u);
  EXPECT_EQ(d.PoiLocations().size(), 3u);
  EXPECT_FALSE(d.Summary().empty());
  EXPECT_FALSE(d.AddCheckIn(3, 0, 0).ok());
  EXPECT_FALSE(d.AddCheckIn(0, 3, 0).ok());
}

TEST(DatasetTest, FilterByCategoryReindexes) {
  Dataset d = TinyDataset();
  Dataset food = d.FilterByCategory(PoiCategory::kFood);
  EXPECT_EQ(food.num_pois(), 2u);
  EXPECT_EQ(food.num_users(), 3u);
  // Check-ins at the shopping POI are dropped; food POIs re-indexed 0,1.
  EXPECT_EQ(food.num_checkins(), 3u);
  for (const auto& c : food.checkins()) EXPECT_LT(c.poi, 2u);
  // Social graph preserved.
  EXPECT_TRUE(food.social().HasEdge(0, 1));
}

TEST(DatasetTest, UserPoiSetsDeduplicated) {
  Dataset d = TinyDataset();
  EXPECT_TRUE(d.AddCheckIn(0, 0, FromCivil(2011, 5, 5)).ok());
  auto sets = d.UserPoiSets();
  EXPECT_EQ(sets[0], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(sets[1], (std::vector<uint32_t>{2}));
}

TEST(TensorBuilderTest, BuildsBinaryTensor) {
  Dataset d = TinyDataset();
  auto t = BuildCheckinTensor(d, TimeGranularity::kMonthOfYear);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().dim_i(), 3u);
  EXPECT_EQ(t.value().dim_j(), 3u);
  EXPECT_EQ(t.value().dim_k(), 12u);
  EXPECT_EQ(t.value().nnz(), 4u);
  EXPECT_TRUE(t.value().Contains(0, 0, 0));   // January
  EXPECT_TRUE(t.value().Contains(0, 1, 1));   // February
  EXPECT_TRUE(t.value().Contains(1, 2, 2));   // March
}

TEST(TensorBuilderTest, EventsToCellsDeduplicates) {
  std::vector<CheckInEvent> events = {
      {0, 0, FromCivil(2011, 1, 2)},
      {0, 0, FromCivil(2011, 1, 20)},  // same cell (same month)
      {0, 0, FromCivil(2011, 2, 2)},
  };
  auto cells = EventsToCells(events, TimeGranularity::kMonthOfYear);
  EXPECT_EQ(cells.size(), 2u);
}

TEST(SplitTest, FractionsAndCoverage) {
  auto data =
      GenerateSyntheticLbsn(PresetConfig(SyntheticPreset::kGowallaLike, 0.2));
  ASSERT_TRUE(data.ok());
  const Dataset& d = data.value();
  TrainTestSplit split = SplitCheckins(d, 0.8, 1);
  EXPECT_EQ(split.train.size() + split.test.size(), d.num_checkins());
  const double frac =
      static_cast<double>(split.train.size()) / d.num_checkins();
  EXPECT_NEAR(frac, 0.8, 0.02);
  // Every active user keeps at least one training event.
  std::set<uint32_t> train_users;
  for (const auto& e : split.train) train_users.insert(e.user);
  std::set<uint32_t> all_users;
  for (const auto& e : d.checkins()) all_users.insert(e.user);
  EXPECT_EQ(train_users, all_users);
}

TEST(SplitTest, DeterministicPerSeed) {
  auto data =
      GenerateSyntheticLbsn(PresetConfig(SyntheticPreset::kYelpLike, 0.2));
  ASSERT_TRUE(data.ok());
  auto a = SplitCheckins(data.value(), 0.8, 9);
  auto b = SplitCheckins(data.value(), 0.8, 9);
  ASSERT_EQ(a.test.size(), b.test.size());
  for (size_t i = 0; i < a.test.size(); ++i) {
    EXPECT_EQ(a.test[i].user, b.test[i].user);
    EXPECT_EQ(a.test[i].poi, b.test[i].poi);
    EXPECT_EQ(a.test[i].timestamp, b.test[i].timestamp);
  }
}

TEST(CsvIoTest, RoundTrip) {
  Dataset d = TinyDataset();
  std::string dir = ::testing::TempDir() + "/tcss_csv_roundtrip";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDatasetCsv(d, dir).ok());
  auto loaded = LoadDatasetCsv(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& l = loaded.value();
  EXPECT_EQ(l.num_users(), d.num_users());
  EXPECT_EQ(l.num_pois(), d.num_pois());
  EXPECT_EQ(l.num_checkins(), d.num_checkins());
  for (uint32_t j = 0; j < d.num_pois(); ++j) {
    EXPECT_NEAR(l.poi(j).location.lat, d.poi(j).location.lat, 1e-6);
    EXPECT_EQ(l.poi(j).category, d.poi(j).category);
  }
  EXPECT_TRUE(l.social().HasEdge(0, 1));
  EXPECT_EQ(l.checkins()[0].timestamp, d.checkins()[0].timestamp);
}

TEST(CsvIoTest, MissingDirectoryFails) {
  EXPECT_FALSE(LoadDatasetCsv("/nonexistent/dir").ok());
}

// Writes the three CSV files of a dataset directory from raw strings.
std::string WriteCsvDir(const std::string& name, const std::string& pois,
                        const std::string& checkins,
                        const std::string& friends) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::create_directories(dir);
  std::filesystem::remove(dir + "/quarantine.csv");
  EXPECT_TRUE(AtomicWriteFile(Env::Default(), dir + "/pois.csv", pois).ok());
  EXPECT_TRUE(
      AtomicWriteFile(Env::Default(), dir + "/checkins.csv", checkins).ok());
  EXPECT_TRUE(
      AtomicWriteFile(Env::Default(), dir + "/friends.csv", friends).ok());
  return dir;
}

const char kDirtyPois[] =
    "poi_id,lat,lon,category\n"
    "0,40.5,-74.1,2\n"
    "1,95.0,-74.2,0\n"      // lat out of [-90, 90]
    "2,40.7,-200.0,2\n"         // lon out of [-180, 180]
    "3,nan,12.0,2\n"            // NaN must not pass the range check
    "4,48.8,2.35,1\n";  // kEntertainment

const char kDirtyCheckins[] =
    "user_id,poi_id,unix_seconds\n"
    "0,0,1300000000\n"
    "0,4,1.5e9\n"                  // float timestamp: rejected, not truncated
    "1,1,1300100000\n"             // references quarantined poi 1
    "1,4,9999999999999\n"          // past year 9999
    "2,4,1300200000\n";

const char kDirtyFriends[] =
    "user_id,friend_id\n"
    "0,1\n"
    "1,1\n"                        // self-loop
    "1,0\n"                        // duplicate of 0,1 (other orientation)
    "1,2\n";

TEST(CsvIoTest, StrictModeFailsOnFirstBadRowWithLineNumber) {
  const std::string dir =
      WriteCsvDir("tcss_csv_strict", kDirtyPois, kDirtyCheckins,
                  kDirtyFriends);
  auto r = LoadDatasetCsv(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("pois.csv line 3"), std::string::npos)
      << r.status().ToString();
}

TEST(CsvIoTest, StrictModeRejectsSelfLoopsAndDuplicateEdges) {
  const char pois[] = "poi_id,lat,lon,category\n0,40.5,-74.1,2\n";
  const char checkins[] = "user_id,poi_id,unix_seconds\n0,0,1300000000\n";
  {
    const std::string dir = WriteCsvDir(
        "tcss_csv_selfloop", pois, checkins,
        "user_id,friend_id\n2,2\n");
    auto r = LoadDatasetCsv(dir);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("friends.csv line 2"),
              std::string::npos);
  }
  {
    const std::string dir = WriteCsvDir(
        "tcss_csv_dupedge", pois, checkins,
        "user_id,friend_id\n0,1\n1,0\n");
    EXPECT_FALSE(LoadDatasetCsv(dir).ok());
  }
}

TEST(CsvIoTest, LenientModeQuarantinesAndReindexes) {
  const std::string dir =
      WriteCsvDir("tcss_csv_lenient", kDirtyPois, kDirtyCheckins,
                  kDirtyFriends);
  CsvLoadOptions opts;
  opts.mode = CsvLoadMode::kLenient;
  LoadReport report;
  auto r = LoadDatasetCsv(dir, opts, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Dataset& d = r.value();

  // POIs 1, 2, 3 were quarantined; survivors 0 and 4 re-index to 0 and 1.
  EXPECT_EQ(report.bad_pois, 3u);
  ASSERT_EQ(d.num_pois(), 2u);
  EXPECT_NEAR(d.poi(1).location.lat, 48.8, 1e-9);
  EXPECT_EQ(d.poi(1).category, PoiCategory::kEntertainment);

  // Bad timestamp rows and the check-in at quarantined POI 1 are dropped;
  // the two clean check-ins land on the re-indexed POIs.
  EXPECT_EQ(report.bad_checkins, 3u);
  ASSERT_EQ(d.num_checkins(), 2u);
  EXPECT_EQ(d.checkins()[0].poi, 0u);
  EXPECT_EQ(d.checkins()[1].poi, 1u);

  // Self-loop and duplicate edge quarantined; edges 0-1 and 1-2 survive.
  EXPECT_EQ(report.bad_edges, 2u);
  EXPECT_EQ(report.edges_loaded, 2u);
  EXPECT_TRUE(d.social().HasEdge(0, 1));
  EXPECT_TRUE(d.social().HasEdge(1, 2));

  // The quarantine file names every dropped row with file + line + reason.
  ASSERT_FALSE(report.quarantine_path.empty());
  auto q = Env::Default()->ReadFileToString(report.quarantine_path);
  ASSERT_TRUE(q.ok());
  EXPECT_NE(q.value().find("pois.csv,3"), std::string::npos) << q.value();
  EXPECT_NE(q.value().find("references quarantined poi"), std::string::npos);
  EXPECT_EQ(report.bad_rows(), 8u);
}

TEST(CsvIoTest, LenientModeFailsPastMaxBadRows) {
  const std::string dir =
      WriteCsvDir("tcss_csv_budget", kDirtyPois, kDirtyCheckins,
                  kDirtyFriends);
  CsvLoadOptions opts;
  opts.mode = CsvLoadMode::kLenient;
  opts.max_bad_rows = 2;  // the dirty corpus has 8 bad rows
  LoadReport report;
  EXPECT_FALSE(LoadDatasetCsv(dir, opts, &report).ok());
}

TEST(CsvIoTest, CleanDataLoadsIdenticallyInBothModes) {
  Dataset d = TinyDataset();
  std::string dir = ::testing::TempDir() + "/tcss_csv_clean_lenient";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDatasetCsv(d, dir).ok());
  CsvLoadOptions opts;
  opts.mode = CsvLoadMode::kLenient;
  LoadReport report;
  auto r = LoadDatasetCsv(dir, opts, &report);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(report.bad_rows(), 0u);
  EXPECT_TRUE(report.quarantine_path.empty());
  EXPECT_EQ(r.value().num_checkins(), d.num_checkins());
}

class SyntheticPresetTest
    : public ::testing::TestWithParam<SyntheticPreset> {};

TEST_P(SyntheticPresetTest, SatisfiesPaperFilters) {
  SyntheticConfig cfg = PresetConfig(GetParam(), 0.3);
  auto data = GenerateSyntheticLbsn(cfg);
  ASSERT_TRUE(data.ok());
  const Dataset& d = data.value();
  EXPECT_EQ(d.num_users(), cfg.num_users);
  EXPECT_EQ(d.num_pois(), cfg.num_pois);
  // The paper filters to users with >= 15 check-ins and >= 1 friend.
  std::vector<size_t> per_user(d.num_users(), 0);
  for (const auto& c : d.checkins()) ++per_user[c.user];
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    EXPECT_GE(per_user[u], 15u) << "user " << u;
    EXPECT_GE(d.social().Degree(u), 1u) << "user " << u;
  }
  // All POI locations valid.
  for (const auto& p : d.pois()) EXPECT_TRUE(IsValid(p.location));
}

TEST_P(SyntheticPresetTest, DeterministicForSeed) {
  SyntheticConfig cfg = PresetConfig(GetParam(), 0.2);
  auto a = GenerateSyntheticLbsn(cfg);
  auto b = GenerateSyntheticLbsn(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().num_checkins(), b.value().num_checkins());
  for (size_t i = 0; i < a.value().num_checkins(); ++i) {
    EXPECT_EQ(a.value().checkins()[i].poi, b.value().checkins()[i].poi);
    EXPECT_EQ(a.value().checkins()[i].timestamp,
              b.value().checkins()[i].timestamp);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, SyntheticPresetTest,
    ::testing::Values(SyntheticPreset::kGowallaLike,
                      SyntheticPreset::kYelpLike,
                      SyntheticPreset::kFoursquareLike,
                      SyntheticPreset::kGmu5kLike));

TEST(SyntheticTest, OutdoorCheckinsAreSummerHeavy) {
  auto data =
      GenerateSyntheticLbsn(PresetConfig(SyntheticPreset::kGowallaLike, 0.3));
  ASSERT_TRUE(data.ok());
  const Dataset& d = data.value();
  std::map<int, size_t> summer_winter = {{0, 0}, {1, 0}};
  for (const auto& c : d.checkins()) {
    if (d.poi(c.poi).category != PoiCategory::kOutdoor) continue;
    const int month = ToCivil(c.timestamp).month;
    if (month >= 6 && month <= 8) ++summer_winter[0];
    if (month == 12 || month <= 2) ++summer_winter[1];
  }
  // Each outdoor POI has its own peak month drawn from the summer-biased
  // category profile, so the aggregate is summer-heavy but not extreme.
  EXPECT_GT(summer_winter[0], 1.4 * summer_winter[1]);
}

TEST(SyntheticTest, FriendsShareMorePoisThanStrangers) {
  auto data =
      GenerateSyntheticLbsn(PresetConfig(SyntheticPreset::kGowallaLike, 0.3));
  ASSERT_TRUE(data.ok());
  const Dataset& d = data.value();
  auto sets = d.UserPoiSets();
  auto overlap = [&sets](uint32_t a, uint32_t b) {
    size_t inter = 0;
    for (uint32_t p : sets[a]) {
      if (std::binary_search(sets[b].begin(), sets[b].end(), p)) ++inter;
    }
    const size_t denom = std::min(sets[a].size(), sets[b].size());
    return denom ? static_cast<double>(inter) / denom : 0.0;
  };
  Rng rng(77);
  double friend_sim = 0.0, stranger_sim = 0.0;
  size_t n_friend = 0, n_stranger = 0;
  for (uint32_t u = 0; u < d.num_users(); ++u) {
    for (const uint32_t* f = d.social().NeighborsBegin(u);
         f != d.social().NeighborsEnd(u); ++f) {
      if (u < *f) {
        friend_sim += overlap(u, *f);
        ++n_friend;
      }
    }
    const uint32_t s = static_cast<uint32_t>(rng.UniformInt(d.num_users()));
    if (s != u && !d.social().HasEdge(u, s)) {
      stranger_sim += overlap(u, s);
      ++n_stranger;
    }
  }
  ASSERT_GT(n_friend, 0u);
  ASSERT_GT(n_stranger, 0u);
  // Social homophily: friends' POI sets overlap noticeably more.
  EXPECT_GT(friend_sim / n_friend, 1.3 * (stranger_sim / n_stranger));
}

TEST(SyntheticTest, RejectsDegenerateConfig) {
  SyntheticConfig cfg;
  cfg.num_users = 1;
  EXPECT_FALSE(GenerateSyntheticLbsn(cfg).ok());
}

}  // namespace
}  // namespace tcss
