// Tests of the training resilience layer: TCKPv2 checkpoint format,
// CheckpointManager retention + crash-safe saves, kill-and-resume
// bit-identity, fault-injection atomicity, and divergence guards with LR
// backoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/fault_env.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"

namespace tcss {
namespace {

struct World {
  Dataset data;
  SparseTensor train;
};

World MakeWorld() {
  auto data = GenerateSyntheticLbsn(
      PresetConfig(SyntheticPreset::kGowallaLike, 0.2));
  EXPECT_TRUE(data.ok());
  TrainTestSplit split = SplitCheckins(data.value(), 0.8, 3);
  auto train = BuildCheckinTensor(data.value(), split.train,
                                  TimeGranularity::kMonthOfYear);
  EXPECT_TRUE(train.ok());
  return {data.MoveValue(), train.MoveValue()};
}

/// Fresh (empty) per-test scratch directory under the gtest temp dir.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/tcss_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TrainerCheckpoint MakeCheckpoint(int epoch, uint64_t seed) {
  Rng rng(seed);
  TrainerCheckpoint ckpt;
  ckpt.model.u1 = Matrix::GaussianRandom(5, 3, &rng, 0.4);
  ckpt.model.u2 = Matrix::GaussianRandom(4, 3, &rng, 0.4);
  ckpt.model.u3 = Matrix::GaussianRandom(6, 3, &rng, 0.4);
  ckpt.model.h = {rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
  ckpt.adam_m = FactorGrads(ckpt.model);
  ckpt.adam_v = FactorGrads(ckpt.model);
  auto fill = [&rng](Matrix* m, Matrix* v) {
    for (size_t i = 0; i < m->size(); ++i) {
      m->data()[i] = rng.Gaussian();
      v->data()[i] = rng.Uniform();
    }
  };
  fill(&ckpt.adam_m.u1, &ckpt.adam_v.u1);
  fill(&ckpt.adam_m.u2, &ckpt.adam_v.u2);
  fill(&ckpt.adam_m.u3, &ckpt.adam_v.u3);
  for (size_t t = 0; t < 3; ++t) {
    ckpt.adam_m.h[t] = rng.Gaussian();
    ckpt.adam_v.h[t] = rng.Uniform();
  }
  ckpt.adam_t = epoch;
  ckpt.epoch = epoch;
  ckpt.hausdorff_rotation = static_cast<size_t>(epoch) * 7;
  ckpt.sampler_state = static_cast<uint64_t>(epoch) * 11 + 5;
  ckpt.lr_scale = 0.5;
  return ckpt;
}

bool SameGrads(const FactorGrads& a, const FactorGrads& b) {
  if (a.h != b.h) return false;
  return MaxAbsDiff(a.u1, b.u1) == 0.0 && MaxAbsDiff(a.u2, b.u2) == 0.0 &&
         MaxAbsDiff(a.u3, b.u3) == 0.0;
}

bool SameCheckpoint(const TrainerCheckpoint& a, const TrainerCheckpoint& b) {
  return a.epoch == b.epoch && a.adam_t == b.adam_t &&
         a.hausdorff_rotation == b.hausdorff_rotation &&
         a.sampler_state == b.sampler_state &&
         a.lr_scale == b.lr_scale && a.model.h == b.model.h &&
         MaxAbsDiff(a.model.u1, b.model.u1) == 0.0 &&
         MaxAbsDiff(a.model.u2, b.model.u2) == 0.0 &&
         MaxAbsDiff(a.model.u3, b.model.u3) == 0.0 &&
         SameGrads(a.adam_m, b.adam_m) && SameGrads(a.adam_v, b.adam_v);
}

bool AllFinite(const FactorModel& m) {
  for (size_t i = 0; i < m.u1.size(); ++i) {
    if (!std::isfinite(m.u1.data()[i])) return false;
  }
  for (size_t i = 0; i < m.u2.size(); ++i) {
    if (!std::isfinite(m.u2.data()[i])) return false;
  }
  for (size_t i = 0; i < m.u3.size(); ++i) {
    if (!std::isfinite(m.u3.data()[i])) return false;
  }
  for (double h : m.h) {
    if (!std::isfinite(h)) return false;
  }
  return true;
}

TEST(CheckpointFormatTest, SerializeParseRoundTripIsExact) {
  const TrainerCheckpoint ckpt = MakeCheckpoint(17, 5);
  const std::string text = SerializeCheckpoint(ckpt);
  auto parsed = ParseCheckpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(SameCheckpoint(ckpt, parsed.value()));
}

TEST(CheckpointFormatTest, RoundTripIsBitwiseForSpecialValues) {
  TrainerCheckpoint ckpt = MakeCheckpoint(6, 8);
  const double specials[] = {-0.0, std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_MAX, -DBL_MAX, 0.0};
  size_t s = 0;
  for (Matrix* f : {&ckpt.model.u1, &ckpt.adam_m.u2, &ckpt.adam_v.u3}) {
    for (size_t i = 0; i < f->size(); ++i) {
      f->data()[i] = specials[s++ % std::size(specials)];
    }
  }
  ckpt.model.h[0] = -0.0;
  ckpt.lr_scale = std::numeric_limits<double>::denorm_min();
  const std::string bytes = SerializeCheckpoint(ckpt);
  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(SameCheckpoint(ckpt, parsed.value()));
  // Equal doubles are not enough (-0.0 == 0.0): the bytes must be too.
  EXPECT_EQ(SerializeCheckpoint(parsed.value()), bytes);
  EXPECT_TRUE(std::signbit(parsed.value().model.h[0]));
}

TEST(CheckpointFormatTest, EveryTruncationIsRejected) {
  const std::string bytes = SerializeCheckpoint(MakeCheckpoint(3, 7));
  for (size_t n = 0; n < bytes.size(); ++n) {
    auto parsed = ParseCheckpoint(bytes.substr(0, n));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << n << " bytes parsed";
  }
}

TEST(CheckpointFormatTest, EveryFlippedByteIsRejected) {
  const std::string bytes = SerializeCheckpoint(MakeCheckpoint(3, 7));
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    EXPECT_FALSE(ParseCheckpoint(bad).ok()) << "flip at " << pos << " parsed";
  }
}

TEST(CheckpointFormatTest, TextCheckpointFromBeforeTCKPv2IsRejected) {
  // Byte for byte what SerializeCheckpoint wrote before the binary
  // format: a TCKPv1 hex-float file with its text CRC footer.
  std::string text =
      "TCKPv1\nepoch 4\nadam_t 4\nrotation 0\nlr_scale 0x1p+0\nsampler 0\n"
      "TCSSv1\n2 3 2 1\n0x1p+1\n0x1p-1\n-0x1p+0\n0x1p+0\n0x1p+1\n0x1p-2\n"
      "0x1.8p+0\n-0x1.8p-1\nadam_m\n";
  for (int i = 0; i < 8; ++i) text += "0x0p+0\n";
  text += "adam_v\n";
  for (int i = 0; i < 8; ++i) text += "0x0p+0\n";
  text += "CRC32 80bf89e4\n";
  auto parsed = ParseCheckpoint(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("bad magic"), std::string::npos)
      << parsed.status().ToString();
}

TEST(CheckpointManagerTest, SaveLoadLatestAndRetention) {
  CheckpointOptions opts;
  opts.dir = ScratchDir("retention");
  opts.every = 1;
  opts.retain = 2;
  CheckpointManager mgr(opts);
  ASSERT_TRUE(mgr.Init().ok());
  EXPECT_FALSE(mgr.LoadLatest().ok());  // empty dir

  for (int e = 1; e <= 5; ++e) {
    ASSERT_TRUE(mgr.Save(MakeCheckpoint(e, 100 + e)).ok());
  }
  EXPECT_EQ(mgr.ListEpochs(), (std::vector<int>{4, 5}));
  auto latest = mgr.LoadLatest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().epoch, 5);
}

TEST(CheckpointManagerTest, LoadLatestSkipsCorruptNewest) {
  CheckpointOptions opts;
  opts.dir = ScratchDir("skip_corrupt");
  opts.retain = 10;
  CheckpointManager mgr(opts);
  ASSERT_TRUE(mgr.Init().ok());
  ASSERT_TRUE(mgr.Save(MakeCheckpoint(1, 1)).ok());
  ASSERT_TRUE(mgr.Save(MakeCheckpoint(2, 2)).ok());

  // Truncate the newest file; recovery must fall back to epoch 1.
  const std::string newest = opts.dir + "/ckpt-000002.tckp";
  auto contents = Env::Default()->ReadFileToString(newest);
  ASSERT_TRUE(contents.ok());
  {
    auto f = Env::Default()->NewWritableFile(newest);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(
        f.value()->Append(contents.value().substr(0, 30)).ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  auto latest = mgr.LoadLatest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().epoch, 1);
}

TEST(CheckpointManagerTest, SaveIsAtomicUnderEveryFailurePoint) {
  const TrainerCheckpoint old_ckpt = MakeCheckpoint(1, 21);
  const TrainerCheckpoint new_ckpt = MakeCheckpoint(2, 22);

  // Learn the op count of one clean save.
  int total_ops = 0;
  {
    CheckpointOptions opts;
    opts.dir = ScratchDir("atomic_probe");
    FaultInjectionEnv probe(Env::Default());
    opts.env = &probe;
    CheckpointManager mgr(opts);
    ASSERT_TRUE(mgr.Save(new_ckpt).ok());
    total_ops = probe.ops_attempted();
    ASSERT_GT(total_ops, 2);
  }

  for (int k = 0; k <= total_ops; ++k) {
    CheckpointOptions opts;
    opts.dir = ScratchDir("atomic_sweep");
    opts.retain = 10;
    CheckpointManager setup(opts);
    ASSERT_TRUE(setup.Init().ok());
    ASSERT_TRUE(setup.Save(old_ckpt).ok());

    FaultInjectionEnv env(Env::Default());
    env.set_fail_after(k);
    env.set_truncate_on_failure(true);
    CheckpointOptions fopts = opts;
    fopts.env = &env;
    CheckpointManager faulty(fopts);
    const Status st = faulty.Save(new_ckpt);

    // Whatever happened, a restarted process must recover a fully valid
    // checkpoint — the old one, or the new one if the rename completed.
    auto latest = setup.LoadLatest();
    ASSERT_TRUE(latest.ok())
        << "crash at op " << k << ": " << latest.status().ToString();
    const bool is_old = SameCheckpoint(latest.value(), old_ckpt);
    const bool is_new = SameCheckpoint(latest.value(), new_ckpt);
    EXPECT_TRUE(is_old || is_new) << "crash at op " << k;
    if (st.ok()) {
      EXPECT_TRUE(is_new) << "crash at op " << k;
    }
  }
}

TEST(CheckpointManagerTest, EveryZeroWritesOnlyTheFinalSnapshot) {
  // 0 means "no periodic snapshots" here as on the distributed
  // coordinator; the manager used to clamp it to 1, a file every epoch.
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 5;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;
  CheckpointOptions copts;
  copts.dir = ScratchDir("every_zero");
  copts.every = 0;
  copts.retain = 10;
  CheckpointManager mgr(copts);
  ASSERT_TRUE(mgr.Init().ok());
  TcssTrainer trainer(w.data, w.train, cfg);
  TrainOptions topts;
  topts.checkpoints = &mgr;
  ASSERT_TRUE(trainer.Train(topts, nullptr).ok());
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(copts.dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"ckpt-000005.tckp"}));
}

// Shard-aware naming (CheckpointOptions::shard/num_shards): every worker
// of a distributed run shares one directory, yet each manager sees only
// files carrying its own "-s<s>of<N>" tag.
TEST(ShardNamingTest, ShardsShareADirectoryWithoutClobbering) {
  CheckpointOptions base;
  base.dir = ScratchDir("shards");
  base.every = 1;
  base.retain = 10;
  base.num_shards = 2;

  CheckpointOptions o0 = base, o1 = base;
  o0.shard = 0;
  o1.shard = 1;
  CheckpointManager m0(o0), m1(o1);
  ASSERT_TRUE(m0.Init().ok());
  ASSERT_TRUE(m1.Init().ok());

  // Same epochs, different payloads: distinct file names keep them apart.
  ASSERT_TRUE(m0.Save(MakeCheckpoint(1, 100)).ok());
  ASSERT_TRUE(m1.Save(MakeCheckpoint(1, 200)).ok());
  ASSERT_TRUE(m0.Save(MakeCheckpoint(2, 101)).ok());

  EXPECT_EQ(m0.ListEpochs(), (std::vector<int>{1, 2}));
  EXPECT_EQ(m1.ListEpochs(), (std::vector<int>{1}));

  auto l0 = m0.LoadLatest();
  auto l1 = m1.LoadLatest();
  ASSERT_TRUE(l0.ok());
  ASSERT_TRUE(l1.ok());
  EXPECT_TRUE(SameCheckpoint(l0.value(), MakeCheckpoint(2, 101)));
  EXPECT_TRUE(SameCheckpoint(l1.value(), MakeCheckpoint(1, 200)));

  // The recovery protocol loads a *specific* common epoch per shard.
  auto e1 = m1.LoadEpoch(1);
  ASSERT_TRUE(e1.ok());
  EXPECT_TRUE(SameCheckpoint(e1.value(), MakeCheckpoint(1, 200)));
  EXPECT_EQ(m1.LoadEpoch(2).status().code(), StatusCode::kIOError);

  // The names on disk are the documented scheme, and both tags coexist.
  EXPECT_TRUE(std::filesystem::exists(base.dir + "/ckpt-000002-s0of2.tckp"));
  EXPECT_TRUE(std::filesystem::exists(base.dir + "/ckpt-000001-s1of2.tckp"));
}

TEST(ShardNamingTest, DefaultShardKeepsLegacyNamesAndIgnoresShardFiles) {
  CheckpointOptions copts;
  copts.dir = ScratchDir("shard_legacy");
  copts.every = 1;
  CheckpointManager legacy(copts);
  ASSERT_TRUE(legacy.Init().ok());
  ASSERT_TRUE(legacy.Save(MakeCheckpoint(3, 7)).ok());
  EXPECT_TRUE(std::filesystem::exists(copts.dir + "/ckpt-000003.tckp"));

  // A sharded manager pointed at the same directory sees nothing...
  CheckpointOptions sopts = copts;
  sopts.shard = 1;
  sopts.num_shards = 2;
  CheckpointManager sharded(sopts);
  ASSERT_TRUE(sharded.Init().ok());
  EXPECT_TRUE(sharded.ListEpochs().empty());
  EXPECT_EQ(sharded.LoadLatest().status().code(), StatusCode::kNotFound);

  // ...and after it saves, the legacy manager still sees only its file.
  ASSERT_TRUE(sharded.Save(MakeCheckpoint(5, 8)).ok());
  EXPECT_EQ(legacy.ListEpochs(), (std::vector<int>{3}));
}

TEST(ResumeTest, KillAndResumeIsBitIdentical) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 12;
  cfg.hausdorff_pool = 64;
  cfg.max_friend_pois = 32;
  cfg.hausdorff_users_per_epoch = 32;

  // Reference: uninterrupted 12-epoch run.
  FactorModel reference;
  {
    TcssTrainer trainer(w.data, w.train, cfg);
    auto result = trainer.Train();
    ASSERT_TRUE(result.ok());
    reference = result.MoveValue();
  }

  // Run with checkpoints every 5 epochs, then simulate a crash after
  // epoch 10 by deleting everything the crashed process would not yet
  // have written (the final epoch-12 checkpoint).
  CheckpointOptions copts;
  copts.dir = ScratchDir("kill_resume");
  copts.every = 5;
  copts.retain = 10;
  CheckpointManager mgr(copts);
  ASSERT_TRUE(mgr.Init().ok());
  {
    TcssTrainer trainer(w.data, w.train, cfg);
    TrainOptions topts;
    topts.checkpoints = &mgr;
    auto result = trainer.Train(topts, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(mgr.ListEpochs(), (std::vector<int>{5, 10, 12}));
  }
  // Keep the deleted snapshot's bytes: the resumed run must rewrite every
  // one of them (model, Adam moments and step, epoch, Hausdorff rotation,
  // sampler counter, lr_scale).
  const std::string final_ckpt = copts.dir + "/ckpt-000012.tckp";
  auto final_bytes = Env::Default()->ReadFileToString(final_ckpt);
  ASSERT_TRUE(final_bytes.ok());
  ASSERT_TRUE(Env::Default()->DeleteFile(final_ckpt).ok());

  // Resume in a fresh trainer: must pick up at epoch 11 and land on
  // exactly the same floats as the uninterrupted run.
  {
    TcssTrainer trainer(w.data, w.train, cfg);
    TrainOptions topts;
    topts.checkpoints = &mgr;
    topts.resume = true;
    int first_epoch = 0;
    auto result = trainer.Train(
        topts, [&first_epoch](const EpochStats& s, const FactorModel&) {
          if (first_epoch == 0) first_epoch = s.epoch;
        });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(first_epoch, 11);
    const FactorModel& resumed = result.value();
    EXPECT_EQ(MaxAbsDiff(resumed.u1, reference.u1), 0.0);
    EXPECT_EQ(MaxAbsDiff(resumed.u2, reference.u2), 0.0);
    EXPECT_EQ(MaxAbsDiff(resumed.u3, reference.u3), 0.0);
    ASSERT_EQ(resumed.h.size(), reference.h.size());
    for (size_t t = 0; t < reference.h.size(); ++t) {
      EXPECT_EQ(resumed.h[t], reference.h[t]) << "h[" << t << "]";
    }
  }
  auto rewritten = Env::Default()->ReadFileToString(final_ckpt);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), final_bytes.value())
      << "the resumed run saved a different final state";
  auto final_state = ParseCheckpoint(rewritten.value());
  ASSERT_TRUE(final_state.ok());
  EXPECT_NE(final_state.value().hausdorff_rotation, 0u)
      << "lambda > 0 must leave a non-zero minibatch rotation to compare";
}

TEST(ResumeTest, ResumeWithEmptyDirColdStarts) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 3;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;
  CheckpointOptions copts;
  copts.dir = ScratchDir("resume_empty");
  CheckpointManager mgr(copts);
  ASSERT_TRUE(mgr.Init().ok());
  TcssTrainer trainer(w.data, w.train, cfg);
  TrainOptions topts;
  topts.checkpoints = &mgr;
  topts.resume = true;
  int first_epoch = 0;
  auto result = trainer.Train(
      topts, [&first_epoch](const EpochStats& s, const FactorModel&) {
        if (first_epoch == 0) first_epoch = s.epoch;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(first_epoch, 1);
}

TEST(ResumeTest, ResumeWithoutCheckpointsIsRejected) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 2;
  TcssTrainer trainer(w.data, w.train, cfg);
  TrainOptions topts;
  topts.resume = true;
  auto result = trainer.Train(topts, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResumeTest, MismatchedCheckpointShapeIsRejected) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 2;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;
  CheckpointOptions copts;
  copts.dir = ScratchDir("resume_shape");
  CheckpointManager mgr(copts);
  ASSERT_TRUE(mgr.Init().ok());
  ASSERT_TRUE(mgr.Save(MakeCheckpoint(1, 9)).ok());  // tiny 5x4x6 model
  TcssTrainer trainer(w.data, w.train, cfg);
  TrainOptions topts;
  topts.checkpoints = &mgr;
  topts.resume = true;
  auto result = trainer.Train(topts, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DivergenceGuardTest, AbsurdLearningRateReturnsNotConverged) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 20;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;
  cfg.learning_rate = 1e80;  // Adam steps land the factors at ~1e80

  TcssTrainer trainer(w.data, w.train, cfg);
  auto result = trainer.Train();  // default guards: 3 retries, 0.5 backoff
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotConverged);
  EXPECT_NE(result.status().message().find("divergence"), std::string::npos);
}

TEST(DivergenceGuardTest, RollbackWithStrongBackoffRecovers) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 8;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;
  cfg.learning_rate = 1e80;

  TcssTrainer trainer(w.data, w.train, cfg);
  TrainOptions topts;
  topts.divergence.max_retries = 2;
  // One backoff lands at a sane LR of 0.1.
  topts.divergence.lr_backoff = 1e-81;
  int max_rollbacks = 0;
  double last_lr = 0.0;
  auto result = trainer.Train(
      topts, [&](const EpochStats& s, const FactorModel&) {
        max_rollbacks = std::max(max_rollbacks, s.rollbacks);
        last_lr = s.lr;
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(max_rollbacks, 1);
  EXPECT_LT(last_lr, 1.0);  // backoff actually applied
  EXPECT_TRUE(AllFinite(result.value()));
}

TEST(DivergenceGuardTest, GradNormLimitTriggersGuard) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 10;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;
  TcssTrainer trainer(w.data, w.train, cfg);
  TrainOptions topts;
  topts.divergence.grad_norm_limit = 1e-12;  // impossible to satisfy
  topts.divergence.max_retries = 1;
  auto result = trainer.Train(topts, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotConverged);
}

TEST(ResilienceIntegrationTest, CrashDuringCheckpointSavePropagates) {
  // A checkpoint save that dies mid-write surfaces as an IOError from
  // Train, and the directory still holds only fully valid checkpoints.
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 6;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;

  CheckpointOptions copts;
  copts.dir = ScratchDir("crash_midtrain");
  copts.every = 2;
  copts.retain = 10;
  CheckpointManager setup(copts);
  ASSERT_TRUE(setup.Init().ok());

  // Learn the op count of one clean save, then aim the fault at the middle
  // of the *second* save the trainer issues (epoch 4).
  int per_save = 0;
  {
    CheckpointOptions popts;
    popts.dir = ScratchDir("crash_midtrain_probe");
    FaultInjectionEnv probe(Env::Default());
    popts.env = &probe;
    CheckpointManager pmgr(popts);
    ASSERT_TRUE(pmgr.Save(MakeCheckpoint(1, 33)).ok());
    per_save = probe.ops_attempted();
    ASSERT_GT(per_save, 2);
  }

  FaultInjectionEnv env(Env::Default());
  env.set_fail_after(per_save + per_save / 2);
  env.set_truncate_on_failure(true);
  CheckpointOptions fopts = copts;
  fopts.env = &env;
  CheckpointManager faulty(fopts);

  TcssTrainer trainer(w.data, w.train, cfg);
  TrainOptions topts;
  topts.checkpoints = &faulty;
  auto result = trainer.Train(topts, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);

  // Recovery sees the epoch-2 checkpoint, resumes, and finishes.
  auto latest = setup.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().epoch, 2);
  TcssTrainer trainer2(w.data, w.train, cfg);
  TrainOptions topts2;
  topts2.checkpoints = &setup;
  topts2.resume = true;
  auto result2 = trainer2.Train(topts2, nullptr);
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  EXPECT_TRUE(AllFinite(result2.value()));
}

}  // namespace
}  // namespace tcss
