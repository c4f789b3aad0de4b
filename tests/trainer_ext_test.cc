// Tests of the trainer extensions: temporal smoothness regularization,
// the learning-rate step schedule, and the lambda-scaling contract
// between the Hausdorff loss value and its gradients.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "core/spectral_init.h"
#include "core/trainer.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "linalg/vector_ops.h"
#include "obs/metrics.h"

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

// Mean cyclic roughness of the time factors: sum_k ||u3_k - u3_{k+1}||^2.
double TimeRoughness(const FactorModel& m) {
  double s = 0.0;
  const size_t K = m.u3.rows();
  for (size_t k = 0; k < K; ++k) {
    for (size_t t = 0; t < m.rank(); ++t) {
      const double d = m.u3(k, t) - m.u3((k + 1) % K, t);
      s += d * d;
    }
  }
  return s;
}

TEST(TemporalSmoothnessTest, ReducesTimeFactorRoughness) {
  World w = MakeWorld();
  TcssConfig base;
  base.epochs = 120;
  base.hausdorff = HausdorffMode::kNone;
  base.lambda = 0.0;

  TcssConfig smooth = base;
  smooth.temporal_smoothness = 5.0;

  TcssTrainer rough_trainer(w.data, w.train, base);
  TcssTrainer smooth_trainer(w.data, w.train, smooth);
  auto rough = rough_trainer.Train();
  auto smoothed = smooth_trainer.Train();
  ASSERT_TRUE(rough.ok());
  ASSERT_TRUE(smoothed.ok());
  EXPECT_LT(TimeRoughness(smoothed.value()),
            0.8 * TimeRoughness(rough.value()));
}

TEST(TemporalSmoothnessTest, PenaltyValueIsReportedInEpochStats) {
  // Train() must surface the temporal-smoothness penalty it adds to the
  // gradient as stats.loss_ts (it was silently discarded once).
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 3;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;
  cfg.temporal_smoothness = 5.0;

  TcssTrainer trainer(w.data, w.train, cfg);
  double reported = -1.0;
  FactorModel before;
  bool captured = false;
  auto result = trainer.Train(
      [&](const EpochStats& s, const FactorModel& m) {
        if (s.epoch == 1) {
          reported = s.loss_ts;
          before = m;  // post-step model; stats refer to the pre-step one
          captured = true;
        }
        EXPECT_GT(s.loss_ts, 0.0) << "epoch " << s.epoch;
        EXPECT_TRUE(std::isfinite(s.TotalLoss()));
      });
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(captured);
  EXPECT_GT(reported, 0.0);

  // Cross-check the epoch-2 value exactly: recompute the penalty on the
  // model the callback saw after epoch 1.
  double recomputed = 0.0;
  {
    FactorGrads scratch(before);
    scratch.Zero();
    recomputed = AddTemporalSmoothnessGrad(
        before.u3, cfg.temporal_smoothness, &scratch.u3);
  }
  double epoch2 = -1.0;
  TcssTrainer trainer2(w.data, w.train, cfg);
  auto result2 = trainer2.Train(
      [&epoch2](const EpochStats& s, const FactorModel&) {
        if (s.epoch == 2) epoch2 = s.loss_ts;
      });
  ASSERT_TRUE(result2.ok());
  EXPECT_DOUBLE_EQ(epoch2, recomputed);
}

TEST(TemporalSmoothnessTest, GradientMatchesNumerical) {
  // Directly validate AddTemporalSmoothnessGrad's analytic gradient
  // against a numerical derivative of the penalty.
  World w = MakeWorld();

  Rng rng(5);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(w.train.dim_i(), 3, &rng, 0.3);
  m.u2 = Matrix::GaussianRandom(w.train.dim_j(), 3, &rng, 0.3);
  m.u3 = Matrix::GaussianRandom(w.train.dim_k(), 3, &rng, 0.3);
  m.h = {1.0, 1.0, 1.0};

  FactorGrads g(m);
  g.Zero();
  const double base_loss = AddTemporalSmoothnessGrad(m.u3, 2.0, &g.u3);
  EXPECT_GT(base_loss, 0.0);
  const double eps = 1e-6;
  for (size_t k = 0; k < m.u3.rows(); ++k) {
    for (size_t t = 0; t < 3; ++t) {
      const double orig = m.u3(k, t);
      FactorGrads dummy(m);
      m.u3(k, t) = orig + eps;
      const double up = AddTemporalSmoothnessGrad(m.u3, 2.0, &dummy.u3);
      m.u3(k, t) = orig - eps;
      const double down = AddTemporalSmoothnessGrad(m.u3, 2.0, &dummy.u3);
      m.u3(k, t) = orig;
      EXPECT_NEAR(g.u3(k, t), (up - down) / (2 * eps), 1e-5);
    }
  }
  // The penalty never touches the other factors.
  EXPECT_DOUBLE_EQ(g.u1.MaxAbs(), 0.0);
  EXPECT_DOUBLE_EQ(g.u2.MaxAbs(), 0.0);
}

TEST(LambdaScalingTest, AppliedExactlyOnceInTotalLoss) {
  // Regression: ComputeWithGrads returns the raw extrapolated Hausdorff
  // value and bakes lambda only into the gradients; the trainer must
  // multiply the value by lambda exactly once when reporting loss_l1.
  // (It used to report the raw value, so TotalLoss disagreed with the
  // gradients by a factor of 1/lambda on the L1 head.)
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 1;
  cfg.hausdorff_pool = 48;
  cfg.max_friend_pois = 24;
  cfg.hausdorff_users_per_epoch = 0;  // full batch: rotation-invariant

  double reported = -1.0;
  TcssTrainer trainer(w.data, w.train, cfg);
  auto result = trainer.Train(
      [&reported](const EpochStats& s, const FactorModel&) {
        if (s.epoch == 1) reported = s.loss_l1;
      });
  ASSERT_TRUE(result.ok());
  ASSERT_GT(reported, 0.0);

  // Recompute epoch 1's L1 head independently: same init model, a fresh
  // loss object at rotation 0.
  auto init = InitializeFactors(w.train, cfg);
  ASSERT_TRUE(init.ok());
  SocialHausdorffLoss loss(w.data, w.train, cfg);
  const double raw =
      loss.ComputeWithGrads(init.value(), cfg.lambda, nullptr);
  EXPECT_DOUBLE_EQ(reported, cfg.lambda * raw);
}

TEST(LambdaScalingTest, HausdorffGradientMatchesNumerical) {
  // The loss the trainer monitors is lambda * ComputeWithGrads(...); the
  // accumulated gradients must be the derivative of exactly that — a
  // doubled lambda (or a second lambda application anywhere) would show
  // up as a 2x mismatch here.
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.hausdorff_pool = 32;
  cfg.max_friend_pois = 16;
  cfg.hausdorff_users_per_epoch = 0;  // full batch: rotation-invariant
  SocialHausdorffLoss loss(w.data, w.train, cfg);
  ASSERT_GT(loss.num_eligible_users(), 0u);

  Rng rng(17);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(w.train.dim_i(), 3, &rng, 0.3);
  m.u2 = Matrix::GaussianRandom(w.train.dim_j(), 3, &rng, 0.3);
  m.u3 = Matrix::GaussianRandom(w.train.dim_k(), 3, &rng, 0.3);
  m.h = {1.0, 1.0, 1.0};

  const double lambda = cfg.lambda;
  FactorGrads g(m);
  g.Zero();
  const double raw = loss.ComputeWithGrads(m, lambda, &g);
  ASSERT_GT(raw, 0.0);

  // Doubling lambda leaves the returned value unchanged and scales the
  // gradients exactly twofold.
  FactorGrads g2(m);
  g2.Zero();
  EXPECT_DOUBLE_EQ(loss.ComputeWithGrads(m, 2.0 * lambda, &g2), raw);
  for (size_t j = 0; j < m.u2.rows(); ++j) {
    for (size_t t = 0; t < 3; ++t) {
      EXPECT_DOUBLE_EQ(g2.u2(j, t), 2.0 * g.u2(j, t));
    }
  }

  // Central differences of f(m) = lambda * ComputeWithGrads(m) over the
  // POI factors (the head the Hausdorff distance acts on).
  const double eps = 1e-6;
  for (size_t j = 0; j < std::min<size_t>(6, m.u2.rows()); ++j) {
    for (size_t t = 0; t < 3; ++t) {
      const double orig = m.u2(j, t);
      m.u2(j, t) = orig + eps;
      const double up = lambda * loss.ComputeWithGrads(m, lambda, nullptr);
      m.u2(j, t) = orig - eps;
      const double down =
          lambda * loss.ComputeWithGrads(m, lambda, nullptr);
      m.u2(j, t) = orig;
      EXPECT_NEAR(g.u2(j, t), (up - down) / (2 * eps), 1e-5)
          << "u2(" << j << "," << t << ")";
    }
  }
}

TEST(LrScheduleTest, StepFactorAppliesLateInTraining) {
  // Indirect but observable: with a brutal step factor the late epochs
  // barely change the model, so the final factors of a run with
  // lr_step_factor ~ 0 match the 60%-epoch snapshot closely.
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 50;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;
  cfg.lr_step_factor = 1e-6;

  Matrix snapshot;
  TcssTrainer trainer(w.data, w.train, cfg);
  auto result = trainer.Train(
      [&snapshot, &cfg](const EpochStats& s, const FactorModel& m) {
        if (s.epoch == cfg.epochs * 3 / 5) snapshot = m.u1;
      });
  ASSERT_TRUE(result.ok());
  ASSERT_GT(snapshot.rows(), 0u);
  EXPECT_LT(MaxAbsDiff(result.value().u1, snapshot), 1e-3);
}

// --- Graceful-stop flag (TrainOptions::stop) ----------------------------

TEST(GracefulStopTest, StopFlagEndsTrainingCleanlyAtThatEpoch) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 200;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;

  std::atomic<bool> stop{false};
  TrainOptions opts;
  opts.stop = &stop;
  int last_epoch = 0;
  TcssTrainer trainer(w.data, w.train, cfg);
  auto result =
      trainer.Train(opts, [&](const EpochStats& s, const FactorModel&) {
        last_epoch = s.epoch;
        if (s.epoch == 7) stop.store(true);  // "SIGINT" after epoch 7
      });
  // A stopped run is a *successful* shorter run: ok status, usable model.
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(last_epoch, 7);
  EXPECT_GT(result.value().rank(), 0u);
}

TEST(GracefulStopTest, StopWritesFinalCheckpointAndResumeContinues) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 30;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;

  CheckpointOptions copts;
  copts.dir = ::testing::TempDir() + "/stop_ckpt";
  std::filesystem::remove_all(copts.dir);  // stale runs must not leak in
  copts.every = 0;  // no periodic snapshots: only the stop path writes
  CheckpointManager ckpts(copts);
  ASSERT_TRUE(ckpts.Init().ok());

  std::atomic<bool> stop{false};
  TrainOptions opts;
  opts.checkpoints = &ckpts;
  opts.stop = &stop;
  TcssTrainer trainer(w.data, w.train, cfg);
  auto stopped =
      trainer.Train(opts, [&](const EpochStats& s, const FactorModel&) {
        if (s.epoch == 5) stop.store(true);
      });
  ASSERT_TRUE(stopped.ok());

  // The interruption point was persisted through the atomic path.
  auto ckpt = ckpts.LoadLatest();
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt.value().epoch, 5);

  // --resume picks up from epoch 5 and runs to completion, matching the
  // uninterrupted run bit-for-bit (the resume-determinism contract).
  TrainOptions resume_opts;
  resume_opts.checkpoints = &ckpts;
  resume_opts.resume = true;
  int first_resumed_epoch = 0;
  TcssTrainer resumed_trainer(w.data, w.train, cfg);
  auto resumed = resumed_trainer.Train(
      resume_opts, [&](const EpochStats& s, const FactorModel&) {
        if (first_resumed_epoch == 0) first_resumed_epoch = s.epoch;
      });
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(first_resumed_epoch, 6);

  TcssTrainer straight_trainer(w.data, w.train, cfg);
  auto straight = straight_trainer.Train();
  ASSERT_TRUE(straight.ok());
  EXPECT_EQ(MaxAbsDiff(resumed.value().u1, straight.value().u1), 0.0);
  EXPECT_EQ(MaxAbsDiff(resumed.value().u2, straight.value().u2), 0.0);
  EXPECT_EQ(MaxAbsDiff(resumed.value().u3, straight.value().u3), 0.0);
}

// `tcss train --resume` sets require_checkpoint: a resume that finds no
// loadable checkpoint must fail loudly instead of silently cold-starting
// (the CLI turns this status into a nonzero exit + diagnostic).
TEST(RequireCheckpointTest, ResumeWithEmptyDirFailsPrecondition) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 2;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;

  CheckpointOptions copts;
  copts.dir = ::testing::TempDir() + "/require_empty";
  std::filesystem::remove_all(copts.dir);
  std::filesystem::create_directories(copts.dir);
  CheckpointManager ckpts(copts);
  ASSERT_TRUE(ckpts.Init().ok());

  TrainOptions opts;
  opts.checkpoints = &ckpts;
  opts.resume = true;
  opts.require_checkpoint = true;
  TcssTrainer trainer(w.data, w.train, cfg);
  auto result = trainer.Train(opts, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // The diagnostic must name the directory the user pointed at.
  EXPECT_NE(result.status().message().find(copts.dir), std::string::npos)
      << result.status().ToString();
}

TEST(RequireCheckpointTest, ResumeWithOnlyCorruptCheckpointsFails) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 2;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;

  CheckpointOptions copts;
  copts.dir = ::testing::TempDir() + "/require_corrupt";
  std::filesystem::remove_all(copts.dir);
  std::filesystem::create_directories(copts.dir);
  for (const char* name : {"ckpt-000003.tckp", "ckpt-000007.tckp"}) {
    std::ofstream f(copts.dir + "/" + name, std::ios::binary);
    f << "garbage that is no checkpoint\n";
  }
  CheckpointManager ckpts(copts);
  ASSERT_TRUE(ckpts.Init().ok());

  TrainOptions opts;
  opts.checkpoints = &ckpts;
  opts.resume = true;
  opts.require_checkpoint = true;
  TcssTrainer trainer(w.data, w.train, cfg);
  auto result = trainer.Train(opts, nullptr);
  ASSERT_FALSE(result.ok());
  // Damage is IOError (distinct from the FailedPrecondition of "nothing
  // there at all") and names the corruption, so the operator can tell a
  // wiped directory from a mangled one.
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("corrupt"), std::string::npos)
      << result.status().ToString();

  // Even without the strict flag a damaged directory must not silently
  // cold-start: corrupt-everywhere is an error on any resume.
  opts.require_checkpoint = false;
  TcssTrainer lenient(w.data, w.train, cfg);
  auto still_bad = lenient.Train(opts, nullptr);
  ASSERT_FALSE(still_bad.ok());
  EXPECT_EQ(still_bad.status().code(), StatusCode::kIOError);
}

TEST(GracefulStopTest, NullStopAndNeverTrippedFlagChangeNothing) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 10;
  cfg.hausdorff = HausdorffMode::kNone;
  cfg.lambda = 0.0;

  std::atomic<bool> never{false};
  TrainOptions with_flag;
  with_flag.stop = &never;
  TcssTrainer a(w.data, w.train, cfg);
  TcssTrainer b(w.data, w.train, cfg);
  auto with = a.Train(with_flag, nullptr);
  auto without = b.Train();
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(MaxAbsDiff(with.value().u1, without.value().u1), 0.0);
}

// Spectral init is a timed trainer stage: one train.stage.init_ms sample
// per Train() that initializes, and train.init.unconverged_modes counts the
// modes whose eigensolve stopped at its iteration cap.
TEST(InitStageTest, SpectralInitRecordsStageTimeAndUnconvergedModes) {
  World w = MakeWorld();
  TcssConfig cfg;
  cfg.epochs = 1;
  SpectralInitStats stats;
  auto init = InitializeFactors(w.train, cfg, &stats);
  ASSERT_TRUE(init.ok());
  uint64_t unconverged = 0;
  for (int mode = 0; mode < 3; ++mode) {
    EXPECT_GT(stats.iterations[mode], 0) << "mode " << mode;
    EXPECT_LE(stats.iterations[mode], 300) << "mode " << mode;
    EXPECT_EQ(stats.converged[mode], stats.iterations[mode] < 300)
        << "mode " << mode;
    if (!stats.converged[mode]) ++unconverged;
  }

  obs::MetricRegistry* reg = obs::MetricRegistry::Global();
  obs::Histogram* init_ms = reg->GetHistogram("train.stage.init_ms");
  obs::Counter* modes = reg->GetCounter("train.init.unconverged_modes");
  const uint64_t samples_before = init_ms->Snapshot().count;
  const uint64_t modes_before = modes->Value();
  TcssTrainer trainer(w.data, w.train, cfg);
  ASSERT_TRUE(trainer.Train().ok());
  EXPECT_EQ(init_ms->Snapshot().count, samples_before + 1);
  EXPECT_EQ(modes->Value(), modes_before + unconverged);

  // A warm start skips init, and with it the stage.
  TrainOptions options;
  options.warm_start = &init.value();
  ASSERT_TRUE(trainer.Train(options, nullptr).ok());
  EXPECT_EQ(init_ms->Snapshot().count, samples_before + 1);
}

// Train refuses an unfinalized tensor, also on a warm start, which skips
// spectral init's own check.
TEST(UnfinalizedTensorTest, TrainReturnsInvalidArgument) {
  World w = MakeWorld();
  SparseTensor raw(w.train.dim_i(), w.train.dim_j(), w.train.dim_k());
  for (const TensorEntry& e : w.train.entries()) {
    ASSERT_TRUE(raw.Add(e.i, e.j, e.k, e.value).ok());
  }
  TcssConfig cfg;
  cfg.init = InitMethod::kRandom;
  TcssTrainer trainer(w.data, raw, cfg);
  EXPECT_EQ(trainer.Train().status().code(), StatusCode::kInvalidArgument);
  const FactorModel warm = InitializeFactors(w.train, cfg).MoveValue();
  TrainOptions options;
  options.warm_start = &warm;
  EXPECT_EQ(trainer.Train(options, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tcss
