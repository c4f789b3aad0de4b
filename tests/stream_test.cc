// Streaming-ingestion suite (ctest label `stream`, DESIGN.md §14).
//
// What it locks in:
//   * the incremental fold-in differential gate: over a shared check-in
//     tensor, after ANY interleaving of appends (repeats of the tensor's
//     cells among them), slice retirements and generation rebinds, the
//     solver's observations are the tensor's live cells then the new
//     appends, and its embedding equals a full batch re-solve (FoldInUser
//     over the same cells) to <= 1e-12 — at 1, 2 and 8 global threads;
//   * slice rollover is bit-identical at every thread count (serialized
//     model bytes compared across 1/2/8 threads);
//   * refinement kill-and-resume: a StreamingEngine::Refine stopped after
//     one epoch and resumed from its checkpoint publishes byte-identical
//     factors to an uninterrupted run;
//   * a publish that fails neither fails the ingest that triggered it nor
//     advances the roller: the check-in is acknowledged and the same bin
//     retires at the next trigger;
//   * admission planning (PlanTier) never reads the fold-in solver the
//     dispatcher's ingest writes — TSan-checked by tools/check.sh;
//   * ingest-during-reload-storm: a server answering mixed topk/ingest
//     traffic while the model file is swapped underneath it (including
//     torn writes) keeps the response ledger balanced and acknowledges
//     exactly the check-ins the engine accepted (tools/check.sh replays
//     this under TSan with TCSS_SERVER_SOAK=10000). Every engine, watcher
//     and server that a test counts on records into the test's own metric
//     registry, the only ledger of their counts;
//   * chronological evaluation: on a drifting stream, prequential
//     streaming fold-in strictly beats both the frozen trained model and
//     frozen fold-in on post-cutoff hit@10 and MRR.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_env.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/fold_in.h"
#include "core/incremental_fold_in.h"
#include "core/model_io.h"
#include "core/trainer.h"
#include "data/csv_io.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "data/time_binning.h"
#include "eval/chronological.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "serve/model_watcher.h"
#include "serve/recommend_service.h"
#include "serve/server.h"
#include "stream/delta_buffer.h"
#include "stream/slice_roller.h"
#include "stream/streaming_engine.h"

namespace tcss {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Fresh (empty) per-test scratch directory under the gtest temp dir.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/tcss_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministic random model. u1 may be a prefix of the users (the
/// fold-in tier serves the rest); fold-in itself only reads u2/u3/h.
FactorModel RandomModel(size_t I, size_t J, size_t K, size_t r,
                        uint64_t seed) {
  Rng rng(seed);
  FactorModel m;
  m.u1 = Matrix(I, r);
  m.u2 = Matrix(J, r);
  m.u3 = Matrix(K, r);
  for (size_t i = 0; i < I; ++i) {
    for (size_t t = 0; t < r; ++t) m.u1(i, t) = rng.Uniform();
  }
  for (size_t j = 0; j < J; ++j) {
    for (size_t t = 0; t < r; ++t) m.u2(j, t) = rng.Uniform();
  }
  for (size_t k = 0; k < K; ++k) {
    for (size_t t = 0; t < r; ++t) m.u3(k, t) = rng.Uniform();
  }
  m.h.assign(r, 0.0);
  for (size_t t = 0; t < r; ++t) m.h[t] = 0.5 + rng.Uniform();
  return m;
}

/// Restores the global pool when a multi-thread scenario ends.
struct ThreadGuard {
  ~ThreadGuard() { SetGlobalThreads(1); }
};

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (size_t t = 0; t < a.size() && t < b.size(); ++t) {
    m = std::max(m, std::abs(a[t] - b[t]));
  }
  return m;
}

// --- the incremental-vs-batch differential gate --------------------------

/// A random finalized check-in tensor over 8 users, of whom only users
/// 0-5 have entries: the solver's shared slices.
std::shared_ptr<const SparseTensor> RandomCheckins(size_t J, size_t K,
                                                   uint64_t seed) {
  Rng rng(seed);
  SparseTensor x(8, J, K);
  for (int n = 0; n < 90; ++n) {
    EXPECT_TRUE(x.Add(static_cast<uint32_t>(rng.UniformInt(6)),
                      static_cast<uint32_t>(rng.UniformInt(J)),
                      static_cast<uint32_t>(rng.UniformInt(K)))
                    .ok());
  }
  EXPECT_TRUE(x.Finalize().ok());
  return std::make_shared<const SparseTensor>(std::move(x));
}

bool SameCells(const std::vector<TensorCell>& a,
               const std::vector<TensorCell>& b) {
  if (a.size() != b.size()) return false;
  for (size_t n = 0; n < a.size(); ++n) {
    if (a[n].i != b[n].i || a[n].j != b[n].j || a[n].k != b[n].k) {
      return false;
    }
  }
  return true;
}

TEST(StreamDifferentialTest, IncrementalMatchesBatchAfterAnyInterleaving) {
  ThreadGuard guard;
  const size_t J = 40, K = 24, r = 6;
  const std::shared_ptr<const SparseTensor> checkins =
      RandomCheckins(J, K, 77);
  const std::vector<TensorEntry>& entries = checkins->entries();
  for (int threads : {1, 2, 8}) {
    SetGlobalThreads(threads);
    auto model =
        std::make_shared<const FactorModel>(RandomModel(8, J, K, r, 99));
    auto model2 =
        std::make_shared<const FactorModel>(RandomModel(8, J, K, r, 100));
    IncrementalFoldIn inc;
    inc.BindModel(model, 1);
    inc.BindCheckins(checkins);
    // The reference: each user's cells as one list, starting from their
    // slice in entry order; an append adds a missing cell at the end and
    // a retirement erases the bin's cells.
    std::vector<std::vector<TensorCell>> want(8);
    for (const TensorEntry& e : entries) want[e.i].push_back({e.i, e.j, e.k});
    std::vector<bool> retired(K, false);
    auto retire = [&](uint32_t bin) {
      inc.RetireBin(bin);
      retired[bin] = true;
      for (auto& cells : want) {
        std::erase_if(cells, [bin](const TensorCell& c) { return c.k == bin; });
      }
    };
    // A cell is new unless the user's list holds it.
    auto append = [&](const TensorCell& c) {
      const bool fresh = std::none_of(
          want[c.i].begin(), want[c.i].end(),
          [&c](const TensorCell& w) { return w.j == c.j && w.k == c.k; });
      EXPECT_EQ(inc.Append(c.i, c.j, c.k), fresh);
      if (fresh) want[c.i].push_back(c);
    };
    std::shared_ptr<const FactorModel> bound = model;
    uint64_t gen = 1;
    Rng rng(4242);
    size_t queries = 0, repeats = 0, refills = 0;
    for (int op = 0; op < 600; ++op) {
      SCOPED_TRACE(StrFormat("op %d", op));
      const double dice = rng.Uniform();
      const uint32_t user = static_cast<uint32_t>(rng.UniformInt(8));
      if (dice < 0.40) {
        append({user, static_cast<uint32_t>(rng.UniformInt(J)),
                static_cast<uint32_t>(rng.UniformInt(K))});
      } else if (dice < 0.50) {
        // Repeat a check-in of the tensor. At a retired bin it refills
        // the bin like any new cell; at a live bin it is rejected, and
        // the user's sums and embedding stay as they are.
        const TensorEntry& e = entries[rng.UniformInt(entries.size())];
        if (retired[e.k]) {
          append({e.i, e.j, e.k});
          ++refills;
          continue;
        }
        const std::vector<double>* emb = inc.Embedding(e.i);
        ASSERT_NE(emb, nullptr) << "solve failed";
        const std::vector<double> solved = *emb;
        const IncrementalFoldIn::Stats stats = inc.stats();
        EXPECT_FALSE(inc.Append(e.i, e.j, e.k));
        emb = inc.Embedding(e.i);
        ASSERT_NE(emb, nullptr);
        EXPECT_EQ(*emb, solved);
        EXPECT_EQ(inc.stats().rank_one_updates, stats.rank_one_updates);
        EXPECT_EQ(inc.stats().solves, stats.solves);
        ++repeats;
      } else if (dice < 0.56) {
        // Hot reload: a different model object at a new generation.
        bound = (bound == model) ? model2 : model;
        inc.BindModel(bound, ++gen);
      } else if (dice < 0.58) {
        // Slice retirement of a random bin, across all users.
        retire(static_cast<uint32_t>(rng.UniformInt(K)));
      } else if (dice < 0.60) {
        // Retirement of a bin the tensor holds.
        retire(entries[rng.UniformInt(entries.size())].k);
      } else {
        const std::vector<double>* emb = inc.Embedding(user);
        const std::vector<TensorCell> obs = inc.Observations(user);
        EXPECT_TRUE(SameCells(obs, want[user]));
        EXPECT_EQ(inc.HasObservations(user), !obs.empty());
        if (obs.empty()) {
          EXPECT_EQ(emb, nullptr);
          continue;
        }
        ASSERT_NE(emb, nullptr) << "solve failed";
        auto oracle = FoldInUser(*bound, obs);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        EXPECT_LE(MaxAbsDiff(*emb, oracle.value()), 1e-12)
            << "user " << user << " threads " << threads;
        ++queries;
      }
    }
    EXPECT_GT(queries, 50u);
    EXPECT_GT(repeats, 10u);
    EXPECT_GT(refills, 5u);
    EXPECT_GT(inc.stats().rank_one_updates, 0u);
  }
}

TEST(StreamDifferentialTest, AppendIsRankOneNotReplay) {
  // After a solve, appending one cell and re-querying costs exactly one
  // rank-1 update and one solve — the observation history is never
  // re-scanned within a generation. That O(r^2) bound is the whole point
  // of the incremental tier.
  auto model =
      std::make_shared<const FactorModel>(RandomModel(4, 30, 12, 5, 7));
  IncrementalFoldIn inc;
  inc.BindModel(model, 1);
  for (uint32_t c = 0; c < 20; ++c) {
    inc.Append(0, c % 30, c % 12);
  }
  ASSERT_NE(inc.Embedding(0), nullptr);
  const uint64_t updates = inc.stats().rank_one_updates;
  const uint64_t solves = inc.stats().solves;
  ASSERT_TRUE(inc.Append(0, 29, 11));
  ASSERT_NE(inc.Embedding(0), nullptr);
  EXPECT_EQ(inc.stats().rank_one_updates, updates + 1);
  EXPECT_EQ(inc.stats().solves, solves + 1);
  // Unchanged user: served from the cache, no further solve.
  ASSERT_NE(inc.Embedding(0), nullptr);
  EXPECT_EQ(inc.stats().solves, solves + 1);
  // Duplicate cells are ignored (the check-in tensor is binary).
  EXPECT_FALSE(inc.Append(0, 29, 11));
  EXPECT_EQ(inc.stats().rank_one_updates, updates + 1);
}

// --- rollover ------------------------------------------------------------

TEST(StreamRolloverTest, RollIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const FactorModel base = RandomModel(50, 40, 12, 6, 17);
  std::string reference;
  for (int threads : {1, 2, 8}) {
    SetGlobalThreads(threads);
    SliceRoller roller(12);
    FactorModel m = base;
    for (int roll = 0; roll < 3; ++roll) {
      SliceRoller::Rolled rolled = roller.Roll(m);
      EXPECT_EQ(rolled.retired_bin, static_cast<uint32_t>(roll));
      m = rolled.model;
    }
    const std::string bytes = SerializeFactorModel(m);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference)
          << "rollover diverged at " << threads << " threads";
    }
  }
  ASSERT_FALSE(reference.empty());
}

TEST(StreamRolloverTest, RetiredRowIsMeanOfCyclicNeighbours) {
  const FactorModel base = RandomModel(10, 8, 12, 4, 23);
  SliceRoller roller(12);
  SliceRoller::Rolled rolled = roller.Roll(base);
  ASSERT_EQ(rolled.retired_bin, 0u);
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(rolled.model.u3(0, t),
                     0.5 * (base.u3(11, t) + base.u3(1, t)));
  }
  // Every other U3 row — and the other factors — stay untouched.
  for (size_t k = 1; k < 12; ++k) {
    for (size_t t = 0; t < 4; ++t) {
      EXPECT_DOUBLE_EQ(rolled.model.u3(k, t), base.u3(k, t));
    }
  }
  for (size_t i = 0; i < 10; ++i) {
    for (size_t t = 0; t < 4; ++t) {
      EXPECT_DOUBLE_EQ(rolled.model.u1(i, t), base.u1(i, t));
    }
  }
  EXPECT_EQ(roller.next_retired(), 1u);
}

TEST(StreamRolloverTest, RetireBinDropsCellsAndKeepsDifferential) {
  auto model =
      std::make_shared<const FactorModel>(RandomModel(4, 30, 12, 5, 31));
  IncrementalFoldIn inc;
  inc.BindModel(model, 1);
  for (uint32_t c = 0; c < 24; ++c) {
    inc.Append(1, c % 30, c % 12);
  }
  ASSERT_NE(inc.Embedding(1), nullptr);
  std::vector<TensorCell> survivors = inc.Observations(1);
  std::erase_if(survivors, [](const TensorCell& c) { return c.k == 3; });
  inc.RetireBin(3);
  std::vector<TensorCell> obs = inc.Observations(1);
  EXPECT_LT(obs.size(), 24u);
  EXPECT_TRUE(SameCells(obs, survivors));
  // The post-retirement embedding replays the survivors and still matches
  // the batch oracle.
  const std::vector<double>* emb = inc.Embedding(1);
  ASSERT_NE(emb, nullptr);
  auto oracle = FoldInUser(*model, obs);
  ASSERT_TRUE(oracle.ok());
  EXPECT_LE(MaxAbsDiff(*emb, oracle.value()), 1e-12);
  // A retired cell may be re-appended afterwards (the bin is refilling).
  EXPECT_TRUE(inc.Append(1, 3, 3));
}

TEST(StreamRolloverTest, DeltaBufferValidatesAndDropsBins) {
  DeltaBuffer delta(10, 10);
  const int64_t jan = 1577836800, feb = 1580515200, mar = 1583020800;
  ASSERT_TRUE(delta.Append(1, 1, jan).ok());
  ASSERT_TRUE(delta.Append(2, 2, feb).ok());
  ASSERT_TRUE(delta.Append(3, 3, mar).ok());
  EXPECT_FALSE(delta.Append(10, 1, jan).ok());  // user out of range
  EXPECT_FALSE(delta.Append(1, 10, jan).ok());  // poi out of range
  EXPECT_FALSE(delta.Append(1, 1, kMaxCheckinTimestamp + 1).ok());
  EXPECT_EQ(delta.accepted(), 3u);
  EXPECT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta.DropBin(1, TimeGranularity::kMonthOfYear), 1u);  // feb
  std::vector<CheckInEvent> events = delta.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].timestamp, jan);
  EXPECT_EQ(events[1].timestamp, mar);
  // Sequence numbers stay monotone across the drop.
  auto seq = delta.Append(4, 4, mar);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 4u);
}

// --- refinement kill-and-resume -----------------------------------------

Dataset SmallStreamDataset() {
  DriftStreamConfig cfg;
  cfg.seed = 5;
  cfg.num_users = 30;
  cfg.num_pois = 20;
  cfg.num_events = 600;
  auto data = GenerateDriftStream(cfg);
  EXPECT_TRUE(data.ok());
  return data.MoveValue();
}

/// Watcher options for `data` with monthly bins, counting into `metrics`.
ModelWatcher::Options WatcherOptions(const Dataset& data,
                                     obs::MetricRegistry* metrics) {
  ModelWatcher::Options wopts;
  wopts.num_users = data.num_users();
  wopts.num_pois = data.num_pois();
  wopts.num_bins = 12;
  wopts.metrics = metrics;
  return wopts;
}

/// One ledger: every StreamingEngine::Stats field is the registry count
/// it names.
void ExpectEngineStatsReadTheRegistry(const StreamingEngine& engine,
                                      obs::MetricRegistry* m) {
  const StreamingEngine::Stats s = engine.stats();
  EXPECT_EQ(s.accepted, m->GetCounter("stream.ingested")->Value());
  EXPECT_EQ(s.rejected, m->GetCounter("stream.rejected")->Value());
  EXPECT_EQ(s.folded, m->GetCounter("stream.folded")->Value());
  EXPECT_EQ(s.rollovers, m->GetCounter("stream.rollovers")->Value());
  EXPECT_EQ(s.refinements, m->GetCounter("stream.refines")->Value());
}

TEST(StreamRefinerTest, KillAndResumeIsBitIdentical) {
  Dataset data = SmallStreamDataset();
  const FactorModel served =
      RandomModel(data.num_users(), data.num_pois(), 12, 4, 79);

  // One refinement of the served model through an engine configured with
  // `refiner`; returns the bytes it published.
  auto refine = [&](const std::string& tag, const RefinerOptions& refiner) {
    const std::string path = TempPath("stream_refine_" + tag + ".model");
    EXPECT_TRUE(SaveFactorModel(served, path).ok());
    obs::MetricRegistry metrics;
    ModelWatcher watcher(path, WatcherOptions(data, &metrics));
    EXPECT_EQ(watcher.Poll(), ModelWatcher::PollResult::kReloaded);
    StreamingEngine::Options eopts;
    eopts.model_path = path;
    eopts.metrics = &metrics;
    eopts.refiner = refiner;
    StreamingEngine engine(data, &watcher, eopts);
    const Status st = engine.Refine();
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(engine.stats().refinements, 1u);
    auto bytes = Env::Default()->ReadFileToString(path);
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? bytes.value() : std::string();
  };

  // Uninterrupted run, warm-started from the served model.
  RefinerOptions whole;
  whole.config.rank = 4;
  whole.config.epochs = 6;
  const std::string uninterrupted = refine("whole", whole);
  ASSERT_FALSE(uninterrupted.empty());

  // Killed run: the stop flag is armed up front, so the trainer stops
  // after epoch 1 and persists a checkpoint...
  CheckpointOptions copts;
  copts.dir = ScratchDir("stream_refine_ck");
  copts.every = 1;
  copts.retain = 8;
  CheckpointManager ckpt(copts);
  ASSERT_TRUE(ckpt.Init().ok());
  std::atomic<bool> stop{true};
  RefinerOptions killed = whole;
  killed.checkpoints = &ckpt;
  killed.stop = &stop;
  refine("killed", killed);

  // ...and the resumed run replays the remaining epochs to the exact
  // bytes of the uninterrupted one.
  RefinerOptions resumed = whole;
  resumed.checkpoints = &ckpt;
  resumed.resume = true;
  EXPECT_EQ(refine("resumed", resumed), uninterrupted)
      << "kill-and-resume diverged from the uninterrupted refinement";
}

TEST(StreamRefinerTest, MismatchedWarmModelFallsBackToColdStart) {
  // A live model that does not fit the merged tensor and the configured
  // rank (here a rank-2 model covering 3 of the users, as after the user
  // base grew) must not fail the refinement — it starts cold instead.
  Dataset data = SmallStreamDataset();
  const std::string path = TempPath("stream_refine_cold.model");
  ASSERT_TRUE(
      SaveFactorModel(RandomModel(3, data.num_pois(), 12, 2, 1), path).ok());
  obs::MetricRegistry metrics;
  ModelWatcher watcher(path, WatcherOptions(data, &metrics));
  ASSERT_EQ(watcher.Poll(), ModelWatcher::PollResult::kReloaded);
  StreamingEngine::Options eopts;
  eopts.model_path = path;
  eopts.metrics = &metrics;
  eopts.refiner.config.rank = 4;
  eopts.refiner.config.epochs = 2;
  StreamingEngine engine(data, &watcher, eopts);
  const Status st = engine.Refine();
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto live = watcher.current();
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->u1.rows(), data.num_users());
  EXPECT_EQ(live->rank(), 4u);
}

// --- streaming engine ----------------------------------------------------

TEST(StreamEngineTest, IngestFoldsRollsAndTracksDrift) {
  Dataset data = SmallStreamDataset();
  const std::string path = TempPath("stream_engine.model");
  FactorModel model = RandomModel(data.num_users(), data.num_pois(), 12, 4, 77);
  ASSERT_TRUE(SaveFactorModel(model, path).ok());
  obs::MetricRegistry metrics;
  ModelWatcher watcher(path, WatcherOptions(data, &metrics));
  ASSERT_EQ(watcher.Poll(), ModelWatcher::PollResult::kReloaded);

  StreamingEngine::Options eopts;
  eopts.model_path = path;
  eopts.rollover_every = 5;
  eopts.metrics = &metrics;
  StreamingEngine engine(data, &watcher, eopts);

  ServeRequest req;
  req.verb = ServeVerb::kIngest;
  const int64_t jan = 1577836800;
  Rng rng(3);
  for (int e = 0; e < 12; ++e) {
    req.user = static_cast<uint32_t>(rng.UniformInt(data.num_users()));
    req.poi = static_cast<uint32_t>(rng.UniformInt(data.num_pois()));
    req.timestamp = jan + e * 86400;
    auto seq = engine.Ingest(req);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(seq.value(), static_cast<uint64_t>(e + 1));
  }
  // Out-of-range events are rejected, counted, and never buffered.
  req.user = static_cast<uint32_t>(data.num_users());
  EXPECT_FALSE(engine.Ingest(req).ok());

  StreamingEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.accepted, 12u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_GT(stats.folded, 0u);
  EXPECT_EQ(stats.rollovers, 2u);  // every 5 accepted ingests
  // Rollovers published through the hot-swap path: the watcher swapped.
  EXPECT_EQ(watcher.reload_successes(), 3u);  // initial load + 2 rollovers
  const double drift = engine.DriftScore();
  EXPECT_GE(drift, 0.0);
  EXPECT_LE(drift, 1.0);
  ExpectEngineStatsReadTheRegistry(engine, &metrics);
}

TEST(StreamEngineTest, RefinePublishesThroughTheWatcher) {
  Dataset data = SmallStreamDataset();
  const std::string path = TempPath("stream_refine_pub.model");
  FactorModel model = RandomModel(data.num_users(), data.num_pois(), 12, 4, 78);
  ASSERT_TRUE(SaveFactorModel(model, path).ok());
  obs::MetricRegistry metrics;
  ModelWatcher watcher(path, WatcherOptions(data, &metrics));
  ASSERT_EQ(watcher.Poll(), ModelWatcher::PollResult::kReloaded);
  const uint64_t gen_before = watcher.generation();

  StreamingEngine::Options eopts;
  eopts.model_path = path;
  eopts.metrics = &metrics;
  eopts.refiner.config.rank = 4;
  eopts.refiner.config.epochs = 2;  // the --refine-budget
  StreamingEngine engine(data, &watcher, eopts);

  ServeRequest req;
  req.verb = ServeVerb::kIngest;
  req.user = 0;
  req.poi = 1;
  req.timestamp = 1577836800;
  ASSERT_TRUE(engine.Ingest(req).ok());
  ASSERT_TRUE(engine.Refine().ok());
  EXPECT_GT(watcher.generation(), gen_before);
  EXPECT_EQ(engine.stats().refinements, 1u);
  EXPECT_EQ(watcher.reload_successes(), 2u);  // initial load + refinement
  auto live = watcher.current();
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->rank(), 4u);
  ExpectEngineStatsReadTheRegistry(engine, &metrics);
}

// An ingest whose event is stored is acknowledged even when the publish
// it triggers fails — first for want of a live model, then because every
// write fails. Each failed publish runs again at the next trigger.
TEST(StreamEngineTest, IngestIsAckedWhenItsPublishFails) {
  Dataset data = SmallStreamDataset();
  const std::string path = TempPath("stream_ack_publish.model");
  (void)Env::Default()->DeleteFile(path);
  obs::MetricRegistry metrics;
  ModelWatcher watcher(path, WatcherOptions(data, &metrics));
  FaultInjectionEnv env(Env::Default());
  StreamingEngine::Options eopts;
  eopts.model_path = path;
  eopts.rollover_every = 1;
  eopts.refine_every = 2;
  eopts.refiner.config.rank = 4;
  eopts.refiner.config.epochs = 1;
  eopts.metrics = &metrics;
  eopts.env = &env;  // the engine's publishes; the watcher reads directly
  StreamingEngine engine(data, &watcher, eopts);

  ServeRequest req;
  req.verb = ServeVerb::kIngest;
  req.user = 2;
  req.poi = 3;
  req.timestamp = 1577836800;
  auto ingest = [&](uint64_t want_seq) {
    auto seq = engine.Ingest(req);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(seq.value(), want_seq);
    req.timestamp += 86400;
  };

  ingest(1);  // rollover due, no live model
  EXPECT_EQ(engine.stats().accepted, 1u);
  EXPECT_EQ(engine.stats().rollovers, 0u);

  ASSERT_TRUE(SaveFactorModel(
                  RandomModel(data.num_users(), data.num_pois(), 12, 4, 80),
                  path)
                  .ok());
  ASSERT_EQ(watcher.Poll(), ModelWatcher::PollResult::kReloaded);
  env.set_fail_after(0);
  ingest(2);  // rollover and refine due, every save fails
  EXPECT_EQ(engine.stats().rollovers, 0u);
  EXPECT_EQ(engine.stats().refinements, 0u);
  EXPECT_EQ(watcher.Poll(), ModelWatcher::PollResult::kUnchanged);

  env.set_fail_after(-1);
  ingest(3);  // rollover due
  ingest(4);  // rollover and refine due
  const StreamingEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rollovers, 2u);
  EXPECT_EQ(stats.refinements, 1u);
  ExpectEngineStatsReadTheRegistry(engine, &metrics);
}

// The roller advances only once a rollover is saved: after a failed
// publish, the next successful rollover retires the same bin (bin 0 here,
// January) — its U3 row, its delta events and its fold-in cells — instead
// of skipping it for a whole cycle.
TEST(StreamEngineTest, FailedRolloverRetiresTheSameBinNextTime) {
  Dataset data = SmallStreamDataset();
  const std::string path = TempPath("stream_failed_roll.model");
  const FactorModel base =
      RandomModel(data.num_users(), data.num_pois(), 12, 4, 81);
  ASSERT_TRUE(SaveFactorModel(base, path).ok());
  obs::MetricRegistry metrics;
  ModelWatcher watcher(path, WatcherOptions(data, &metrics));
  ASSERT_EQ(watcher.Poll(), ModelWatcher::PollResult::kReloaded);
  auto served = watcher.current();
  FaultInjectionEnv env(Env::Default());
  StreamingEngine::Options eopts;
  eopts.model_path = path;
  eopts.metrics = &metrics;
  eopts.env = &env;
  StreamingEngine engine(data, &watcher, eopts);

  const int64_t jan = 1577836800, feb = 1580515200;
  ServeRequest req;
  req.verb = ServeVerb::kIngest;
  req.user = 4;
  for (uint32_t poi = 0; poi < 3; ++poi) {
    req.poi = poi;
    req.timestamp = jan;
    ASSERT_TRUE(engine.Ingest(req).ok());
    req.timestamp = feb;
    ASSERT_TRUE(engine.Ingest(req).ok());
  }

  env.set_fail_after(0);
  EXPECT_FALSE(engine.Rollover().ok());
  EXPECT_EQ(engine.stats().rollovers, 0u);
  EXPECT_EQ(engine.delta()->size(), 6u);  // nothing retired
  EXPECT_EQ(watcher.current(), served);

  env.set_fail_after(-1);
  ASSERT_TRUE(engine.Rollover().ok());
  auto rolled = watcher.current();
  ASSERT_NE(rolled, served);
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(rolled->u3(0, t), 0.5 * (served->u3(11, t) + served->u3(1, t)));
    EXPECT_EQ(rolled->u3(1, t), served->u3(1, t));
  }
  for (const CheckInEvent& e : engine.delta()->Snapshot()) {
    EXPECT_EQ(e.timestamp, feb);
  }
  EXPECT_EQ(engine.delta()->size(), 3u);
  for (const TensorCell& c : engine.fold_in()->Observations(4)) {
    EXPECT_NE(c.k, 0u);
  }
  EXPECT_EQ(engine.stats().rollovers, 1u);
  ExpectEngineStatsReadTheRegistry(engine, &metrics);
}

// --- admission planning vs the dispatcher's ingest ----------------------

// Server reader threads call PlanTier while the dispatcher ingests
// check-ins into the fold-in solver, so PlanTier may read only immutable
// post-Init state: a user whose only history is streamed plans as
// popularity, while the dispatcher's own tier choice still folds them in.
// A PlanTier that reads the solver's user map races with the ingest
// thread's inserts, which the TSan stage of tools/check.sh reports.
TEST(StreamServeTest, PlanTierNeverReadsTheFoldInSolver) {
  constexpr uint32_t kUsers = 64;
  constexpr uint32_t kTrained = 4;  // the model's rows; the rest fold in
  constexpr uint32_t kPois = 8;
  std::vector<Poi> pois(kPois);
  for (uint32_t j = 0; j < kPois; ++j) {
    pois[j] = {{30.0 + j, -80.0 + j}, PoiCategory::kFood};
  }
  SocialGraph social(kUsers);
  ASSERT_TRUE(social.Finalize().ok());
  Dataset data(kUsers, std::move(pois), std::move(social));
  const int64_t jan = 1577836800;
  for (uint32_t u = 0; u < kTrained; ++u) {
    ASSERT_TRUE(data.AddCheckIn(u, u, jan).ok());
  }

  const std::string path = TempPath("plan_tier_ingest.model");
  ASSERT_TRUE(
      SaveFactorModel(RandomModel(kTrained, kPois, 12, 4, 91), path).ok());
  ModelWatcher::Options wopts;
  wopts.num_users = kUsers;
  wopts.num_pois = kPois;
  wopts.num_bins = 12;
  ModelWatcher watcher(path, wopts);
  StreamingEngine engine(data, &watcher, StreamingEngine::Options());
  RecommendService::Options sopts;
  sopts.incremental = engine.fold_in();
  RecommendService service(&data, TimeGranularity::kMonthOfYear, &watcher,
                           sopts);
  ASSERT_TRUE(service.Init().ok());
  ASSERT_NE(watcher.current(), nullptr);

  // Relaxed atomics only: they add no happens-before edge that could hide
  // the race from TSan.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> passes{0};
  std::atomic<uint64_t> non_popularity{0};
  std::thread planner([&] {
    ServeRequest req;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t u = kTrained; u < kUsers; ++u) {
        req.user = u;
        if (service.PlanTier(req) != ServeTier::kPopularity) {
          non_popularity.fetch_add(1, std::memory_order_relaxed);
        }
      }
      passes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (passes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  ServeRequest ingest;
  ingest.verb = ServeVerb::kIngest;
  ingest.timestamp = jan;
  for (uint32_t round = 0; round < 4; ++round) {
    for (uint32_t u = kTrained; u < kUsers; ++u) {
      ingest.user = u;
      ingest.poi = (u + round) % kPois;
      EXPECT_TRUE(engine.Ingest(ingest).ok());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  planner.join();
  EXPECT_EQ(non_popularity.load(), 0u);

  ServeRequest req;
  req.user = kUsers - 1;
  EXPECT_EQ(service.PlanTier(req), ServeTier::kPopularity);
  EXPECT_EQ(service.TopK(req).tier, ServeTier::kFoldIn);
}

// --- ingest during a reload storm (server soak) --------------------------

Dataset TinyServeDataset() {
  std::vector<Poi> pois(5);
  for (int j = 0; j < 5; ++j) {
    pois[j] = {{30.0 + j, -80.0 + j}, PoiCategory::kFood};
  }
  SocialGraph social(4);
  EXPECT_TRUE(social.AddEdge(0, 1).ok());
  EXPECT_TRUE(social.Finalize().ok());
  Dataset data(4, std::move(pois), std::move(social));
  const int64_t jan = 1577836800;
  const int64_t feb = 1580515200;
  EXPECT_TRUE(data.AddCheckIn(0, 0, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(0, 1, feb).ok());
  EXPECT_TRUE(data.AddCheckIn(1, 2, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(2, 3, jan).ok());
  EXPECT_TRUE(data.AddCheckIn(3, 1, jan).ok());
  return data;
}

struct ClientOutcome {
  std::map<uint64_t, WireResponse> responses;
  Status transport = Status::OK();
};

/// Pipelined client: writes every frame, reads until all ids answered.
ClientOutcome RunClient(Env* env, const std::string& path,
                        const std::vector<Frame>& requests) {
  ClientOutcome out;
  auto conn = env->Connect(path);
  if (!conn.ok()) {
    out.transport = conn.status();
    return out;
  }
  Conn* c = conn.value().get();
  std::atomic<bool> done{false};
  std::atomic<bool> give_up{false};
  std::thread watchdog([&] {
    Stopwatch clock;
    while (!done.load() && clock.ElapsedSeconds() < 120.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    give_up.store(true);
  });
  std::thread reader([&] {
    FrameReader fr;
    while (out.responses.size() < requests.size()) {
      Frame f;
      auto ev = fr.Next(c, kResponseMagic, &f, &give_up, 50);
      if (!ev.ok()) {
        out.transport = ev.status();
        break;
      }
      if (ev.value() != FrameReader::Event::kFrame) {
        if (out.transport.ok()) {
          out.transport = Status::IOError("connection ended early");
        }
        break;
      }
      auto parsed = ParseResponsePayload(f.payload);
      if (parsed.ok()) out.responses[f.id] = parsed.value();
    }
    done.store(true);
  });
  Status write_err;
  for (const Frame& f : requests) {
    if (done.load()) break;
    write_err = c->Write(EncodeRequestFrame(f), /*timeout_ms=*/5000);
    if (!write_err.ok()) break;
  }
  reader.join();
  watchdog.join();
  c->Close();
  if (!write_err.ok() && out.transport.ok()) out.transport = write_err;
  return out;
}

/// One ledger: every ServerStats field is the registry count it names.
void ExpectServerStatsReadTheRegistry(const ServerStats& s,
                                      obs::MetricRegistry* m) {
  auto count = [m](const std::string& name) {
    return m->GetCounter(name)->Value();
  };
  const uint64_t overloaded = count("serve.shed.overloaded");
  EXPECT_EQ(s.connections_rejected, overloaded);
  EXPECT_EQ(s.sheds[static_cast<int>(ShedReason::kOverloaded)], overloaded);
  EXPECT_EQ(s.connections_accepted, count("serve.connections") - overloaded);
  EXPECT_EQ(s.frames_received, count("serve.frames.received"));
  EXPECT_EQ(s.bad_frames, count("serve.frames.bad"));
  EXPECT_EQ(s.responses_ok, count("serve.responses.ok"));
  EXPECT_EQ(s.responses_ingested, count("serve.responses.ingested"));
  EXPECT_EQ(s.responses_error, count("serve.responses.error"));
  for (int r = 0; r < kNumShedReasons; ++r) {
    EXPECT_EQ(s.sheds[r], count(std::string("serve.shed.") +
                                ShedReasonName(static_cast<ShedReason>(r))));
  }
  EXPECT_EQ(s.batches, m->GetHistogram("serve.batch_size")->Snapshot().count);
  EXPECT_EQ(s.write_failures, count("serve.write_failures"));
}

TEST(StreamServerTest, IngestDuringReloadStormReconcilesLedger) {
  Dataset data = TinyServeDataset();
  const std::string model_path = TempPath("stream_storm.model");
  const std::string socket_path = TempPath("stream_storm.sock");
  // u1 covers 3 of 4 users: user 3's queries ride the fold-in tier, so the
  // storm also exercises the incremental tier's generation invalidation.
  const FactorModel model_a = RandomModel(3, 5, 12, 3, 41);
  const FactorModel model_b = RandomModel(3, 5, 12, 3, 42);
  ASSERT_TRUE(SaveFactorModel(model_a, model_path).ok());

  // The one ledger of every count below.
  obs::MetricRegistry metrics;
  ModelWatcher watcher(model_path, WatcherOptions(data, &metrics));

  StreamingEngine::Options eopts;
  eopts.model_path = model_path;  // no auto-publish: rollover/refine off
  eopts.metrics = &metrics;
  StreamingEngine engine(data, &watcher, eopts);

  RecommendService::Options sopts;
  sopts.incremental = engine.fold_in();
  sopts.metrics = &metrics;
  RecommendService service(&data, TimeGranularity::kMonthOfYear, &watcher,
                           sopts);
  ASSERT_TRUE(service.Init().ok());

  ServerOptions opts;
  opts.metrics = &metrics;
  opts.poll_every_batches = 1;  // re-poll the model between every batch
  opts.ingest_handler = [&engine](const ServeRequest& req) {
    return engine.Ingest(req);
  };
  Server server(&service, socket_path, opts);
  ASSERT_TRUE(server.Start().ok());

  // Reload storm: alternate two valid models with the occasional torn
  // write the watcher must reject without unserving.
  std::atomic<bool> storm_stop{false};
  std::thread storm([&] {
    int turn = 0;
    while (!storm_stop.load()) {
      if (turn % 5 == 4) {
        std::ofstream torn(model_path, std::ios::trunc);
        torn << "TCSSv2\n3 5 12 3\ntruncated";
      } else {
        const FactorModel& m = (turn % 2 == 0) ? model_b : model_a;
        EXPECT_TRUE(SaveFactorModel(m, model_path).ok());
      }
      ++turn;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Leave a valid model behind.
    EXPECT_TRUE(SaveFactorModel(model_a, model_path).ok());
  });

  const char* soak_env = std::getenv("TCSS_SERVER_SOAK");
  const int n =
      soak_env != nullptr ? std::max(100, std::atoi(soak_env)) : 600;
  const int64_t jan = 1577836800;
  std::vector<Frame> requests;
  std::set<uint64_t> bad_ingest_ids;
  Rng rng(11);
  for (int i = 0; i < n; ++i) {
    const uint64_t id = static_cast<uint64_t>(i + 1);
    const double dice = rng.Uniform();
    if (dice < 0.45) {
      requests.push_back(
          {id, StrFormat("topk %u %u k=3",
                         static_cast<uint32_t>(rng.UniformInt(4)),
                         static_cast<uint32_t>(rng.UniformInt(12)))});
    } else if (dice < 0.9) {
      requests.push_back(
          {id, StrFormat("ingest %u %u %lld",
                         static_cast<uint32_t>(rng.UniformInt(4)),
                         static_cast<uint32_t>(rng.UniformInt(5)),
                         static_cast<long long>(
                             jan + rng.UniformInt(300) * 86400))});
    } else {
      // Forged check-in: a user id outside the serving dataset. It must
      // be answered (error or shed) and never reach the delta buffer.
      bad_ingest_ids.insert(id);
      requests.push_back(
          {id, StrFormat("ingest 99 %u %lld",
                         static_cast<uint32_t>(rng.UniformInt(5)),
                         static_cast<long long>(jan))});
    }
  }
  ClientOutcome out = RunClient(Env::Default(), socket_path, requests);
  storm_stop.store(true);
  storm.join();
  ASSERT_TRUE(out.transport.ok()) << out.transport.ToString();
  ASSERT_EQ(out.responses.size(), requests.size());
  ASSERT_TRUE(server.Stop().ok());

  // Server-side ledger: every accepted frame answered exactly once
  // (kOverloaded sheds answer connections, not frames, so shed_total()
  // leaves them out — same reconciliation as the chaos harness), and
  // every stats field is the registry count it names.
  const ServerStats s = server.stats();
  EXPECT_EQ(s.frames_received, s.responses_ok + s.responses_ingested +
                                   s.responses_error + s.shed_total())
      << s.ToString();
  ExpectServerStatsReadTheRegistry(s, &metrics);
  ExpectEngineStatsReadTheRegistry(engine, &metrics);

  // Client/engine reconciliation: the `ingested seq=` acks are exactly
  // the engine's accepted events, with distinct sequence numbers ending
  // at the accept counter; every forged ingest got an error (or an
  // explicit shed) and never reached the delta buffer.
  std::set<uint64_t> seqs;
  size_t acked = 0, bad_errors = 0, bad_sheds = 0;
  for (const auto& [id, resp] : out.responses) {
    if (resp.kind == WireResponse::Kind::kIngested) {
      EXPECT_FALSE(bad_ingest_ids.count(id))
          << "forged check-in " << id << " was acknowledged";
      EXPECT_TRUE(seqs.insert(resp.seq).second) << "duplicate seq";
      ++acked;
    } else if (bad_ingest_ids.count(id) > 0) {
      if (resp.kind == WireResponse::Kind::kError) ++bad_errors;
      if (resp.kind == WireResponse::Kind::kShed) ++bad_sheds;
    }
  }
  const StreamingEngine::Stats es = engine.stats();
  EXPECT_EQ(acked, es.accepted);
  EXPECT_EQ(s.responses_ingested, es.accepted);
  EXPECT_EQ(bad_errors + bad_sheds, bad_ingest_ids.size());
  EXPECT_EQ(es.rejected, bad_errors);  // sheds never reached the handler
  if (!seqs.empty()) {
    EXPECT_EQ(*seqs.rbegin(), es.accepted);
  }
  EXPECT_EQ(engine.delta()->size(), es.accepted);
  // The storm actually exercised the swap path.
  EXPECT_GT(watcher.reload_successes() + watcher.reload_rejects(), 0u);
}

// --- chronological evaluation: streaming beats static ---------------------

struct RankSums {
  double hits = 0.0;
  double mrr = 0.0;
  size_t n = 0;
  double HitAt10() const { return n > 0 ? hits / static_cast<double>(n) : 0; }
  double Mrr() const { return n > 0 ? mrr / static_cast<double>(n) : 0; }
};

void RecordRank(const FactorModel& model, const std::vector<double>& emb,
                uint32_t poi, uint32_t bin, size_t num_pois, RankSums* sums) {
  const double target = FoldInScore(model, emb, poi, bin);
  size_t above = 0;
  for (uint32_t j = 0; j < num_pois; ++j) {
    if (j != poi && FoldInScore(model, emb, j, bin) > target) ++above;
  }
  const double rank = static_cast<double>(above + 1);
  if (rank <= 10.0) sums->hits += 1.0;
  sums->mrr += 1.0 / rank;
  ++sums->n;
}

TEST(StreamChronoTest, StreamingBeatsFrozenStaticPostCutoff) {
  DriftStreamConfig cfg;
  cfg.num_users = 150;
  cfg.num_pois = 120;
  cfg.num_events = 9000;
  auto gen = GenerateDriftStream(cfg);
  ASSERT_TRUE(gen.ok());
  const Dataset& data = gen.value();
  ChronoSplit split = ChronologicalSplit(data.checkins(), 0.7);
  ASSERT_GT(split.before.size(), 0u);
  ASSERT_GT(split.after.size(), 1000u);
  for (size_t e = 1; e < split.after.size(); ++e) {
    ASSERT_GE(split.after[e].timestamp, split.after[e - 1].timestamp);
  }

  // Train the static model on everything before the cutoff.
  auto built =
      BuildCheckinTensor(data, split.before, TimeGranularity::kHourOfDay);
  ASSERT_TRUE(built.ok());
  const auto before_tensor =
      std::make_shared<const SparseTensor>(built.MoveValue());
  TcssConfig tcfg;
  tcfg.rank = 8;
  tcfg.epochs = 80;
  TcssTrainer trainer(data, *before_tensor, tcfg);
  auto trained = trainer.Train();
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  auto model = std::make_shared<const FactorModel>(trained.MoveValue());

  // Both fold-in scorers start from the same pre-cutoff history, the
  // training tensor; only the streaming one ingests post-cutoff
  // check-ins, prequentially — each event is predicted BEFORE it is
  // appended, so the streaming side never sees its own answer.
  IncrementalFoldIn frozen, streaming;
  frozen.BindModel(model, 1);
  streaming.BindModel(model, 1);
  frozen.BindCheckins(before_tensor);
  streaming.BindCheckins(before_tensor);

  RankSums static_model, static_fold, stream_fold;
  for (const CheckInEvent& e : split.after) {
    const uint32_t bin = TimeBin(e.timestamp, TimeGranularity::kHourOfDay);
    // Frozen trained factors (the u1 row is the embedding).
    if (e.user < model->u1.rows()) {
      std::vector<double> row(model->u1.row(e.user),
                              model->u1.row(e.user) + model->rank());
      RecordRank(*model, row, e.poi, bin, data.num_pois(), &static_model);
    }
    const std::vector<double>* femb = frozen.Embedding(e.user);
    const std::vector<double>* semb = streaming.Embedding(e.user);
    if (femb != nullptr && semb != nullptr) {
      RecordRank(*model, *femb, e.poi, bin, data.num_pois(), &static_fold);
      RecordRank(*model, *semb, e.poi, bin, data.num_pois(), &stream_fold);
    }
    streaming.Append(e.user, e.poi, bin);
  }
  ASSERT_GT(stream_fold.n, 1000u);
  ::testing::Test::RecordProperty("static_model_hit10",
                                  StrFormat("%.4f", static_model.HitAt10()));
  ::testing::Test::RecordProperty("static_fold_hit10",
                                  StrFormat("%.4f", static_fold.HitAt10()));
  ::testing::Test::RecordProperty("stream_fold_hit10",
                                  StrFormat("%.4f", stream_fold.HitAt10()));

  // The acceptance gate: a model frozen at the cutoff — whether the
  // trained factors or frozen fold-in — loses to prequential streaming
  // fold-in on drifting traffic, strictly, on both metrics.
  EXPECT_GT(stream_fold.HitAt10(), static_fold.HitAt10());
  EXPECT_GT(stream_fold.Mrr(), static_fold.Mrr());
  EXPECT_GT(stream_fold.HitAt10(), static_model.HitAt10());
  EXPECT_GT(stream_fold.Mrr(), static_model.Mrr());
}

}  // namespace
}  // namespace tcss
