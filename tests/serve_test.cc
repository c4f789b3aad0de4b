// Resilience coverage for the serving layer: fallback-chain tier
// selection, hot reload with full off-path validation, torn/failing reads
// at every byte prefix (the read-path mirror of the PR-1 save sweep), the
// kill-the-model/recovery state machine, deadline degradation, and the
// untrusted request parser.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "common/crc32.h"
#include "common/env.h"
#include "common/fault_env.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/model_io.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"
#include "serve/request.h"

namespace tcss {
namespace {

// --- fixtures ----------------------------------------------------------

// 4 users, 5 POIs, monthly bins. Users 0..2 are "trained" users; user 3
// has check-ins but (with a 3-row U1) no model row, so it serves from
// fold-in.
Dataset TinyDataset() {
  std::vector<Poi> pois(5);
  for (int j = 0; j < 5; ++j) {
    pois[j] = {{30.0 + j, -80.0 + j}, PoiCategory::kFood};
  }
  SocialGraph social(4);
  EXPECT_TRUE(social.AddEdge(0, 1).ok());
  EXPECT_TRUE(social.Finalize().ok());
  Dataset data(4, std::move(pois), std::move(social));
  // Jan 2020 midnights; bin = month index 0.
  const int64_t jan = 1577836800;
  const int64_t feb = 1580515200;
  EXPECT_TRUE(data.AddCheckIn(0, 0, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(0, 1, feb).ok());
  EXPECT_TRUE(data.AddCheckIn(1, 2, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(2, 3, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(3, 1, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(3, 4, feb).ok());
  return data;
}

// A model whose every prediction equals `level` (all factors 1, h =
// level/r scaled): lets tests identify which model generation answered.
FactorModel ConstantModel(size_t I, size_t J, size_t K, double level) {
  FactorModel m;
  const size_t r = 2;
  m.u1 = Matrix(I, r);
  m.u2 = Matrix(J, r);
  m.u3 = Matrix(K, r);
  m.u1.Fill(1.0);
  m.u2.Fill(1.0);
  m.u3.Fill(1.0);
  m.h.assign(r, level / static_cast<double>(r));
  return m;
}

Status WriteRaw(const std::string& path, const std::string& contents) {
  auto f = Env::Default()->NewWritableFile(path);
  if (!f.ok()) return f.status();
  TCSS_RETURN_IF_ERROR(f.value()->Append(contents));
  return f.value()->Close();
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// --- request parsing ---------------------------------------------------

TEST(RequestParseTest, ParsesFullGrammar) {
  auto req = ParseRequestLine("topk 7 3 k=25 new deadline_ms=1.5 cand=1,4,2");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().user, 7u);
  EXPECT_EQ(req.value().time_bin, 3u);
  EXPECT_EQ(req.value().k, 25u);
  EXPECT_TRUE(req.value().exclude_visited);
  EXPECT_DOUBLE_EQ(req.value().deadline_ms, 1.5);
  EXPECT_EQ(req.value().candidates, (std::vector<uint32_t>{1, 4, 2}));
}

TEST(RequestParseTest, ParsesGeoFence) {
  auto req = ParseRequestLine("topk 2 4 k=5 within_km=25.5,40.7,-74.0");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_DOUBLE_EQ(req.value().within_km, 25.5);
  EXPECT_DOUBLE_EQ(req.value().center.lat, 40.7);
  EXPECT_DOUBLE_EQ(req.value().center.lon, -74.0);
  // Composes with the other options.
  req = ParseRequestLine("topk 1 0 new cand=1,2 within_km=10,0,0");
  ASSERT_TRUE(req.ok());
  EXPECT_TRUE(req.value().exclude_visited);
  EXPECT_DOUBLE_EQ(req.value().within_km, 10.0);
}

TEST(RequestParseTest, RejectsMalformedGeoFence) {
  const char* bad[] = {
      "topk 1 2 within_km=",             // empty
      "topk 1 2 within_km=10",           // missing centre
      "topk 1 2 within_km=10,20",        // missing longitude
      "topk 1 2 within_km=10,20,30,40",  // extra field
      "topk 1 2 within_km=x,20,30",      // non-numeric radius
      "topk 1 2 within_km=10,y,30",      // non-numeric latitude
      "topk 1 2 within_km=0,20,30",      // zero radius
      "topk 1 2 within_km=-5,20,30",     // negative radius
      "topk 1 2 within_km=nan,20,30",    // non-finite radius
      "topk 1 2 within_km=1e9,20,30",    // beyond half the circumference
      "topk 1 2 within_km=10,91,30",     // latitude out of range
      "topk 1 2 within_km=10,20,181",    // longitude out of range
      "topk 1 2 within_km=10,inf,30",    // non-finite centre
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseRequestLine(line).ok()) << "'" << line << "' parsed";
  }
}

TEST(RequestParseTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",                          // empty
      "frobnicate 1 2",            // unknown directive
      "topk",                      // missing fields
      "topk 1",                    //
      "topk x 2",                  // non-numeric user
      "topk 1 -2",                 // negative time bin
      "topk 1 2 k=",               // empty k
      "topk 1 2 k=999999999999",   // k beyond cap
      "topk 1 2 deadline_ms=nan",  // non-finite deadline
      "topk 1 2 deadline_ms=-1",   // negative deadline
      "topk 1 2 cand=1,x",         // bad candidate
      "topk 1 2 frob=3",           // unknown option
      "topk 99999999999 0",        // user beyond uint32
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseRequestLine(line).ok()) << "'" << line << "' parsed";
  }
}

// --- tier selection ----------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : data_(TinyDataset()) {}

  // Builds watcher + service over `path`. Callers save a model there (or
  // not) before the first poll, which Init() performs.
  void Start(const std::string& path, Env* env = nullptr) {
    ModelWatcher::Options wopts;
    wopts.env = env;
    wopts.num_users = data_.num_users();
    wopts.num_pois = data_.num_pois();
    wopts.num_bins = 12;
    // Stats() and the reload counts read the registry: each test counts
    // only its own watcher and service.
    wopts.metrics = &metrics_;
    watcher_ = std::make_unique<ModelWatcher>(path, wopts);
    RecommendService::Options sopts;
    sopts.metrics = &metrics_;
    service_ = std::make_unique<RecommendService>(
        &data_, TimeGranularity::kMonthOfYear, watcher_.get(), sopts);
    ASSERT_TRUE(service_->Init().ok());
  }

  Dataset data_;
  obs::MetricRegistry metrics_;
  std::unique_ptr<ModelWatcher> watcher_;
  std::unique_ptr<RecommendService> service_;
};

TEST_F(ServeTest, FallbackChainPicksTierPerRequest) {
  const std::string path = TempPath("chain_model.tcss");
  // Model covers only users 0..2 (a prefix): user 3 must fold in.
  ASSERT_TRUE(SaveFactorModel(ConstantModel(3, 5, 12, 1.0), path).ok());
  Start(path);
  ASSERT_NE(watcher_->current(), nullptr);

  ServeRequest req;
  req.k = 3;
  req.user = 0;
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kModel);
  req.user = 3;  // dataset user without a model row, has check-ins
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kFoldIn);
  req.user = 42;  // unknown user
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kPopularity);

  const ServiceStats stats = service_->Stats();
  EXPECT_EQ(stats.health, ServeHealth::kHealthy);
  EXPECT_EQ(stats.queries_by_tier[0], 1u);
  EXPECT_EQ(stats.queries_by_tier[1], 1u);
  EXPECT_EQ(stats.queries_by_tier[2], 1u);
  EXPECT_EQ(stats.total_queries, 3u);
}

TEST_F(ServeTest, InvalidTimeBinYieldsEmptyNotCrash) {
  const std::string path = TempPath("badtime_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  ServeRequest req;
  req.user = 0;
  req.time_bin = 12;  // one past the last monthly bin
  auto resp = service_->TopK(req);
  EXPECT_TRUE(resp.recs.empty());
  EXPECT_EQ(service_->Stats().invalid_requests, 1u);
  EXPECT_EQ(service_->Stats().total_queries, 0u);
}

TEST_F(ServeTest, ColdStartWithoutModelServesPopularity) {
  Start(TempPath("never_written_model.tcss"));
  EXPECT_EQ(service_->health(), ServeHealth::kFallback);
  ServeRequest req;
  req.user = 0;  // would be a model user if a model existed
  auto resp = service_->TopK(req);
  EXPECT_EQ(resp.tier, ServeTier::kPopularity);
  EXPECT_FALSE(resp.recs.empty());
}

TEST_F(ServeTest, DeadlineBudgetDegradesToPopularity) {
  const std::string path = TempPath("deadline_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  ServeRequest req;
  req.user = 0;
  // Warm the model tier's latency estimate (no deadline).
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kModel);
  // Any positive measured latency exceeds this budget.
  req.deadline_ms = 1e-12;
  auto resp = service_->TopK(req);
  EXPECT_EQ(resp.tier, ServeTier::kPopularity);
  EXPECT_EQ(service_->Stats().deadline_degrades, 1u);
}

TEST_F(ServeTest, DeadlineDegradesDoNotLockTheTierOut) {
  const std::string path = TempPath("lockin_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  ServeRequest req;
  req.user = 0;
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_EQ(service_->TopK(req).tier, ServeTier::kModel);
  }
  const double ewma = service_->TierLatencyEwmaMs(ServeTier::kModel);
  ASSERT_GT(ewma, 0.0);
  // Popularity answers never sample the model tier, so without a decay
  // of the skipped tier every one of these would degrade.
  req.deadline_ms = ewma / 2;
  int model_answers = 0;
  for (int n = 0; n < 10; ++n) {
    model_answers += service_->TopK(req).tier == ServeTier::kModel;
  }
  EXPECT_GE(model_answers, 1);
}

TEST_F(ServeTest, DeadlineBatchIsBudgetedAgainstTheEwmaFromBeforeIt) {
  const std::string path = TempPath("batch_budget_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  ServeRequest req;
  req.user = 0;
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_EQ(service_->TopK(req).tier, ServeTier::kModel);
  }
  const double ewma = service_->TierLatencyEwmaMs(ServeTier::kModel);
  ASSERT_GT(ewma, 0.0);
  // A full server batch, every request due before the model tier answers:
  // all of them degrade, and the skipped tier decays once for the batch,
  // not once per request (0.8^4 < 1/2 would send the fifth to the model).
  req.deadline_ms = ewma / 2;
  const std::vector<ServeRequest> batch(32, req);
  for (const auto& resp : service_->BatchTopK(batch)) {
    EXPECT_EQ(resp.tier, ServeTier::kPopularity);
  }
  EXPECT_EQ(service_->Stats().deadline_degrades, 32u);
  const double decayed = service_->TierLatencyEwmaMs(ServeTier::kModel);
  EXPECT_DOUBLE_EQ(decayed, (1.0 - kLatencyEwmaAlpha) * ewma);
  // A batch in which the skipped tier also answered measured it: the
  // no-deadline request's latency is blended in and nothing decays.
  ServeRequest no_deadline = req;
  no_deadline.deadline_ms = 0.0;
  const std::vector<ServeRequest> mixed = {req, no_deadline, req};
  const auto resps = service_->BatchTopK(mixed);
  EXPECT_EQ(resps[0].tier, ServeTier::kPopularity);
  EXPECT_EQ(resps[1].tier, ServeTier::kModel);
  EXPECT_EQ(resps[2].tier, ServeTier::kPopularity);
  EXPECT_DOUBLE_EQ(service_->TierLatencyEwmaMs(ServeTier::kModel),
                   (1.0 - kLatencyEwmaAlpha) * decayed +
                       kLatencyEwmaAlpha * resps[1].latency_ms);
}

TEST_F(ServeTest, PlanTierAppliesTheDeadlineBudget) {
  const std::string path = TempPath("plan_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  ServeRequest req;
  req.user = 0;
  ASSERT_EQ(service_->TopK(req).tier, ServeTier::kModel);
  EXPECT_EQ(service_->PlanTier(req), ServeTier::kModel);
  // Admission must predict with the tier the dispatcher will answer from.
  req.deadline_ms = service_->TierLatencyEwmaMs(ServeTier::kModel) / 2;
  ASSERT_GT(req.deadline_ms, 0.0);
  EXPECT_EQ(service_->PlanTier(req), ServeTier::kPopularity);
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kPopularity);
}

// --- hot reload --------------------------------------------------------

TEST_F(ServeTest, HotReloadSwapsModelBetweenQueries) {
  const std::string path = TempPath("reload_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  auto before = watcher_->current();
  ASSERT_NE(before, nullptr);
  EXPECT_DOUBLE_EQ(before->Predict(0, 0, 0), 1.0);

  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 2.0), path).ok());
  // In-flight queries hold the old shared_ptr; the swap must not touch it.
  service_->PollModel();
  EXPECT_EQ(watcher_->reload_successes(), 2u);  // initial load + reload
  EXPECT_DOUBLE_EQ(before->Predict(0, 0, 0), 1.0);  // old copy intact
  EXPECT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 2.0);
  EXPECT_EQ(service_->health(), ServeHealth::kHealthy);
}

TEST_F(ServeTest, WrongShapeModelIsRejected) {
  const std::string path = TempPath("shape_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  // Right format, wrong POI count: must be rejected by shape validation.
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 6, 12, 2.0), path).ok());
  service_->PollModel();
  EXPECT_EQ(watcher_->reload_rejects(), 1u);
  EXPECT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 1.0);
  EXPECT_EQ(service_->health(), ServeHealth::kDegraded);
}

TEST_F(ServeTest, TextModelFromBeforeTCSSv3KeepsLastGoodServing) {
  const std::string path = TempPath("text_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  // ConstantModel(4, 5, 12, 2.0) as the retired hex-float TCSSv2 writer
  // laid it out, text CRC footer included: the right shape, in a format
  // that no longer loads.
  std::string text = "TCSSv2\n4 5 12 2\n0x1p+0 0x1p+0\n";
  for (int row = 0; row < 4 + 5 + 12; ++row) text += "0x1p+0 0x1p+0\n";
  text += StrFormat("CRC32 %08x\n", Crc32(text));
  ASSERT_TRUE(WriteRaw(path, text).ok());
  service_->PollModel();
  EXPECT_EQ(watcher_->reload_rejects(), 1u);
  EXPECT_NE(watcher_->last_error().message().find("bad magic"),
            std::string::npos)
      << watcher_->last_error().ToString();
  EXPECT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 1.0);
  EXPECT_EQ(service_->health(), ServeHealth::kDegraded);
}

TEST_F(ServeTest, RepeatedPollOverSameBadFileCountsOnce) {
  const std::string path = TempPath("dedup_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  ASSERT_TRUE(WriteRaw(path, "TCSSv2\ngarbage\n").ok());
  service_->PollModel();
  service_->PollModel();
  service_->PollModel();
  EXPECT_EQ(watcher_->reload_rejects(), 1u);
  EXPECT_EQ(service_->health(), ServeHealth::kDegraded);
}

// The read-path mirror of the PR-1 atomic-save sweep: a reload that sees
// *any* strict byte prefix of the new model (a torn read of a
// non-atomically written file) must reject it and keep serving the old
// model; the full file must swap in.
TEST_F(ServeTest, TornReadSweepNeverSwapsInGarbage) {
  const std::string path = TempPath("torn_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  ASSERT_NE(watcher_->current(), nullptr);

  std::string v2_bytes;
  {
    const std::string tmp = TempPath("torn_model_v2_bytes.tcss");
    ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 2.0), tmp).ok());
    auto contents = Env::Default()->ReadFileToString(tmp);
    ASSERT_TRUE(contents.ok());
    v2_bytes = contents.value();
  }

  ServeRequest req;
  req.user = 0;
  req.k = 3;
  for (size_t n = 0; n < v2_bytes.size(); ++n) {
    // A prefix whose lost tail is pure whitespace (the trailing newline)
    // is byte-for-byte the complete model and legitimately swaps in; the
    // CRC footer makes every other prefix detectable.
    if (Trim(std::string_view(v2_bytes).substr(n)).empty()) continue;
    ASSERT_TRUE(WriteRaw(path, v2_bytes.substr(0, n)).ok());
    service_->PollModel();
    ASSERT_NE(watcher_->current(), nullptr) << "prefix " << n;
    ASSERT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 1.0)
        << "torn prefix of " << n << " bytes was swapped in";
    // Queries during the sweep still answer from the old model tier.
    auto resp = service_->TopK(req);
    ASSERT_EQ(resp.tier, ServeTier::kModel) << "prefix " << n;
    // Every prefix (even the empty file) is a reject with the old model
    // still live: degraded, never fallback, never a crash.
    ASSERT_EQ(service_->health(), ServeHealth::kDegraded) << "prefix " << n;
  }
  ASSERT_TRUE(WriteRaw(path, v2_bytes).ok());
  service_->PollModel();
  EXPECT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 2.0);
  EXPECT_EQ(service_->health(), ServeHealth::kHealthy);
}

// Same sweep driven through FaultInjectionEnv's read faults instead of
// on-disk prefixes: failing reads and torn reads are rejected, the old
// model keeps serving, and recovery is immediate once reads heal.
TEST_F(ServeTest, InjectedReadFaultsAreRejectedAndRecovered) {
  const std::string path = TempPath("readfault_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  FaultInjectionEnv env(Env::Default());
  Start(path, &env);
  ASSERT_NE(watcher_->current(), nullptr);
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 2.0), path).ok());

  // Hard-failing reads: every poll rejects, the old model stays.
  env.set_fail_reads_after(0);
  service_->PollModel();
  service_->PollModel();
  EXPECT_EQ(watcher_->reload_rejects(), 2u);  // unfingerprintable: per poll
  EXPECT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 1.0);
  EXPECT_EQ(service_->health(), ServeHealth::kDegraded);

  // Torn reads (prefix of the valid v2 file): rejected, old model stays.
  env.set_truncate_reads(true);
  service_->PollModel();
  EXPECT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 1.0);
  EXPECT_EQ(service_->health(), ServeHealth::kDegraded);

  // Reads heal: the new model swaps in.
  env.set_fail_reads_after(-1);
  service_->PollModel();
  EXPECT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 2.0);
  EXPECT_EQ(service_->health(), ServeHealth::kHealthy);
}

// Kill-the-model state machine: healthy -> (delete) fallback on
// popularity -> (valid file reappears) healthy again; plus the corrupt
// variant where the old model keeps serving.
TEST_F(ServeTest, KillAndRecoverModelFile) {
  const std::string path = TempPath("kill_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(3, 5, 12, 1.0), path).ok());
  Start(path);
  ServeRequest req;
  req.user = 0;
  req.k = 3;
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kModel);
  EXPECT_EQ(service_->health(), ServeHealth::kHealthy);

  // Delete = explicit unserve: degrade to the lower tiers, don't crash.
  ASSERT_TRUE(Env::Default()->DeleteFile(path).ok());
  service_->PollModel();
  EXPECT_EQ(service_->health(), ServeHealth::kFallback);
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kPopularity);
  req.user = 3;  // fold-in needs a model too: also popularity now
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kPopularity);

  // A valid file reappears: back to healthy, model tier answers again.
  ASSERT_TRUE(SaveFactorModel(ConstantModel(3, 5, 12, 3.0), path).ok());
  service_->PollModel();
  EXPECT_EQ(service_->health(), ServeHealth::kHealthy);
  req.user = 0;
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kModel);
  EXPECT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 3.0);

  // Corrupt (not delete): the last good model keeps serving, degraded.
  ASSERT_TRUE(WriteRaw(path, "not a model at all").ok());
  service_->PollModel();
  EXPECT_EQ(service_->health(), ServeHealth::kDegraded);
  EXPECT_EQ(service_->TopK(req).tier, ServeTier::kModel);
  EXPECT_DOUBLE_EQ(watcher_->current()->Predict(0, 0, 0), 3.0);
}

// Fold-in answers change with the model generation (the embedding cache
// must not serve stale vectors across a swap).
TEST_F(ServeTest, FoldInCacheInvalidatesAcrossReload) {
  const std::string path = TempPath("foldin_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(3, 5, 12, 1.0), path).ok());
  Start(path);
  ServeRequest req;
  req.user = 3;
  req.k = 5;
  auto r1 = service_->TopK(req);
  ASSERT_EQ(r1.tier, ServeTier::kFoldIn);
  ASSERT_TRUE(SaveFactorModel(ConstantModel(3, 5, 12, 2.0), path).ok());
  service_->PollModel();
  auto r2 = service_->TopK(req);
  ASSERT_EQ(r2.tier, ServeTier::kFoldIn);
  ASSERT_FALSE(r1.recs.empty());
  ASSERT_FALSE(r2.recs.empty());
  // Doubling h doubles every fold-in score's scale; identical scores
  // across generations would mean a stale cache was reused. The top POI's
  // score must differ between generations.
  EXPECT_NE(r1.recs[0].score, r2.recs[0].score);
}

TEST_F(ServeTest, ExcludeVisitedAndCandidatesAreHonored) {
  const std::string path = TempPath("filters_model.tcss");
  ASSERT_TRUE(SaveFactorModel(ConstantModel(4, 5, 12, 1.0), path).ok());
  Start(path);
  ServeRequest req;
  req.user = 0;
  req.time_bin = 0;
  req.k = 10;
  req.exclude_visited = true;
  auto resp = service_->TopK(req);
  for (const auto& r : resp.recs) {
    EXPECT_NE(r.poi, 0u);  // user 0 visited POI 0 (and 1)
    EXPECT_NE(r.poi, 1u);
  }
  req.exclude_visited = false;
  req.candidates = {2, 4, 99};  // 99 out of range: dropped
  resp = service_->TopK(req);
  ASSERT_EQ(resp.recs.size(), 2u);
  for (const auto& r : resp.recs) {
    EXPECT_TRUE(r.poi == 2u || r.poi == 4u);
  }
}

// The batch path must apply each entry's own options — k, exclusion,
// candidate list, geo fence — not the first entry's. Heterogeneous batch
// answers equal the one-at-a-time answers entry for entry, scores
// included bit for bit: TopK is a one-request batch. (A Gaussian model
// makes the ordering non-trivial; ConstantModel would hide an option
// mix-up behind ties.)
TEST_F(ServeTest, BatchHonorsPerRequestOptions) {
  const std::string path = TempPath("batch_options_model.tcss");
  FactorModel m;
  Rng rng(99);
  m.u1 = Matrix::GaussianRandom(3, 2, &rng, 0.5);  // user 3 folds in
  m.u2 = Matrix::GaussianRandom(5, 2, &rng, 0.5);
  m.u3 = Matrix::GaussianRandom(12, 2, &rng, 0.5);
  m.h = {0.7, 1.3};
  ASSERT_TRUE(SaveFactorModel(m, path).ok());
  Start(path);

  std::vector<ServeRequest> reqs(6);
  reqs[0].user = 0;
  reqs[0].k = 2;
  reqs[1].user = 1;
  reqs[1].k = 5;
  reqs[1].exclude_visited = true;
  reqs[2].user = 2;
  reqs[2].k = 3;
  reqs[2].candidates = {4, 0, 2};
  reqs[3].user = 3;  // fold-in tier
  reqs[3].k = 4;
  reqs[4].user = 42;  // popularity tier
  reqs[4].k = 1;
  reqs[5].user = 0;
  reqs[5].k = 10;
  reqs[5].within_km = 200.0;  // TinyDataset POIs are ~1 degree apart
  reqs[5].center = {30.0, -80.0};

  const auto batch = service_->BatchTopK(reqs);
  ASSERT_EQ(batch.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const auto single = service_->TopK(reqs[i]);
    EXPECT_EQ(batch[i].tier, single.tier) << "request " << i;
    ASSERT_EQ(batch[i].recs.size(), single.recs.size()) << "request " << i;
    for (size_t j = 0; j < single.recs.size(); ++j) {
      EXPECT_EQ(batch[i].recs[j].poi, single.recs[j].poi)
          << "request " << i << " slot " << j;
      EXPECT_EQ(batch[i].recs[j].score, single.recs[j].score)
          << "request " << i << " slot " << j;
    }
  }
  EXPECT_EQ(batch[0].recs.size(), 2u);
  for (const auto& r : batch[1].recs) {  // user 1 visited POI 2
    EXPECT_NE(r.poi, 2u);
  }
  for (const auto& r : batch[2].recs) {
    EXPECT_TRUE(r.poi == 4u || r.poi == 0u || r.poi == 2u);
  }
  EXPECT_EQ(batch[4].recs.size(), 1u);
  ASSERT_FALSE(batch[5].recs.empty());  // POI 0 itself is inside the fence
  for (const auto& r : batch[5].recs) {
    EXPECT_LT(r.poi, 2u);  // POIs 2..4 are >200km from (30,-80)
  }
}

}  // namespace
}  // namespace tcss
