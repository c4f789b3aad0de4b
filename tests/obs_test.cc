// Observability subsystem tests (ctest label "obs"): the sharded metric
// registry, histogram bucket/quantile edge cases, the global kill switch,
// and the JSON snapshot exporter through the Env layer. The concurrent
// tests double as the TSan workload for tools/check.sh stage 3.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/fault_env.h"
#include "obs/metrics.h"

namespace tcss {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricRegistry;
using obs::MetricsSnapshot;

// ---------------------------------------------------------------------------
// Registry

TEST(MetricRegistryTest, SameNameSamePointer) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("reg.counter");
  Counter* b = reg.GetCounter("reg.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("reg.other"), a);
  EXPECT_EQ(reg.GetHistogram("reg.hist"), reg.GetHistogram("reg.hist"));
  EXPECT_EQ(reg.GetGauge("reg.gauge"), reg.GetGauge("reg.gauge"));
}

TEST(MetricRegistryTest, GlobalIsAProcessSingleton) {
  EXPECT_EQ(MetricRegistry::Global(), MetricRegistry::Global());
  EXPECT_NE(MetricRegistry::Global(), nullptr);
}

TEST(MetricRegistryTest, SnapshotIsNameSorted) {
  MetricRegistry reg;
  reg.GetCounter("z.last")->Add(1);
  reg.GetCounter("a.first")->Add(2);
  reg.GetCounter("m.mid")->Add(3);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "m.mid");
  EXPECT_EQ(snap.counters[2].name, "z.last");
  EXPECT_EQ(snap.counters[0].value, 2u);
}

// ---------------------------------------------------------------------------
// Counter

TEST(CounterTest, SumsAcrossThreads) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("ctr.threads");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
}

TEST(CounterTest, KillSwitchDropsWrites) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("ctr.disabled");
  Histogram* h = reg.GetHistogram("hist.disabled");
  Gauge* g = reg.GetGauge("gauge.disabled");
  obs::SetMetricsEnabled(false);
  c->Add(7);
  h->Record(1.0);
  g->Set(3.5);
  obs::SetMetricsEnabled(true);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Snapshot().count, 0u);
  EXPECT_EQ(g->Value(), 0.0);
  c->Add(7);
  EXPECT_EQ(c->Value(), 7u);
}

// ---------------------------------------------------------------------------
// Histogram edge cases

TEST(HistogramTest, EmptySnapshot) {
  Histogram h;
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Quantile(0.99), 0.0);
}

TEST(HistogramTest, SingleSampleIsExactAtEveryQuantile) {
  Histogram h;
  h.Record(3.25);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 3.25);
  EXPECT_DOUBLE_EQ(snap.min, 3.25);
  EXPECT_DOUBLE_EQ(snap.max, 3.25);
  // Clamping to [min, max] makes a one-sample histogram exact everywhere.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 3.25);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 3.25);
}

TEST(HistogramTest, ValueBeyondLastBucketKeepsExactMax) {
  Histogram h;
  h.Record(1e12);  // far past the covered bucket range
  h.Record(1.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.max, 1e12);
  // The overflow bucket's upper bound is clamped to the observed max.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 1e12);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1e12);
}

TEST(HistogramTest, TinyZeroAndNegativeLandInBucketZero) {
  Histogram h;
  h.Record(0.0);
  h.Record(-5.0);
  h.Record(1e-9);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.min, -5.0);
  // All samples sit in bucket 0; quantiles clamp into [min, max].
  EXPECT_LE(snap.Quantile(0.5), snap.max);
  EXPECT_GE(snap.Quantile(0.5), snap.min);
}

TEST(HistogramTest, BucketIndexIsMonotone) {
  size_t prev = 0;
  for (double v = 1e-7; v < 1e9; v *= 1.7) {
    const size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev) << "value " << v;
    EXPECT_LT(idx, Histogram::kNumBuckets);
    prev = idx;
  }
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, QuantileResolutionWithinBucketWidth) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  // Buckets are ~19% wide, so the reported p50 must be within ~25% of the
  // true median and quantiles must be monotone.
  const double p50 = snap.Quantile(0.50);
  EXPECT_GT(p50, 500.0 * 0.75);
  EXPECT_LT(p50, 500.0 * 1.25);
  EXPECT_LE(snap.Quantile(0.50), snap.Quantile(0.95));
  EXPECT_LE(snap.Quantile(0.95), snap.Quantile(0.99));
  EXPECT_LE(snap.Quantile(0.99), snap.max);
}

TEST(HistogramTest, ShardMergeAcrossThreads) {
  Histogram h;
  constexpr int kThreads = 16;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(1.0 + static_cast<double>(t));
      }
    });
  }
  for (auto& w : workers) w.join();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 16.0);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(HistogramTest, SnapshotMergeCombinesDistributions) {
  Histogram a, b;
  a.Record(1.0);
  a.Record(2.0);
  b.Record(100.0);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.min, 1.0);
  EXPECT_DOUBLE_EQ(merged.max, 100.0);
  HistogramSnapshot empty;
  empty.Merge(merged);  // merge into a default-constructed snapshot
  EXPECT_EQ(empty.count, 3u);
  merged.Merge(HistogramSnapshot());  // merging empty is a no-op
  EXPECT_EQ(merged.count, 3u);
}

// Concurrent Record + Snapshot: meaningful mostly under TSan, where any
// unlocked access to the shard state is reported as a race.
TEST(HistogramTest, ConcurrentRecordAndSnapshot) {
  Histogram h;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&h] {
      double v = 0.5;
      for (int i = 0; i < kPerWriter; ++i) {
        h.Record(v);
        v = v < 1e6 ? v * 1.01 : 0.5;
      }
    });
  }
  uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    HistogramSnapshot snap = h.Snapshot();
    EXPECT_GE(snap.count, last);  // counts only grow
    last = snap.count;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(h.Snapshot().count,
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

// ---------------------------------------------------------------------------
// JSON export

TEST(MetricsJsonTest, SnapshotContainsRegisteredMetrics) {
  MetricRegistry reg;
  reg.GetCounter("json.requests")->Add(42);
  reg.GetGauge("json.lr")->Set(0.125);
  Histogram* h = reg.GetHistogram("json.latency_ms");
  h->Record(2.0);
  h->Record(4.0);
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"schema\": \"tcss.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"json.requests\": 42"), std::string::npos);
  EXPECT_NE(json.find("json.lr"), std::string::npos);
  EXPECT_NE(json.find("json.latency_ms"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsJsonTest, DumpJsonWritesParseableFile) {
  MetricRegistry reg;
  reg.GetCounter("dump.count")->Add(3);
  const std::string path = ::testing::TempDir() + "/tcss_obs_metrics.json";
  ASSERT_TRUE(reg.DumpJson(Env::Default(), path).ok());
  auto read = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_NE(read.value().find("\"dump.count\": 3"), std::string::npos);
  EXPECT_EQ(read.value().front(), '{');
  EXPECT_EQ(read.value().back(), '\n');
}

TEST(MetricsJsonTest, DumpJsonFailsCleanlyUnderFaultInjection) {
  MetricRegistry reg;
  reg.GetCounter("dump.faulty")->Add(1);
  const std::string path = ::testing::TempDir() + "/tcss_obs_faulty.json";
  FaultInjectionEnv env(Env::Default());
  env.set_fail_after(0);  // first filesystem op fails
  EXPECT_FALSE(reg.DumpJson(&env, path).ok());
  // The atomic-write protocol must not leave a torn destination file.
  EXPECT_FALSE(Env::Default()->FileExists(path));
}

}  // namespace
}  // namespace tcss
