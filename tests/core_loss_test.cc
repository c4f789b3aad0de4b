#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/spectral_init.h"
#include "core/whole_data_loss.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "linalg/subspace_iteration.h"
#include "tensor/gram_operator.h"

namespace tcss {
namespace {

SparseTensor RandomTensor(size_t I, size_t J, size_t K, size_t nnz,
                          uint64_t seed) {
  SparseTensor t(I, J, K);
  Rng rng(seed);
  for (size_t n = 0; n < nnz; ++n) {
    EXPECT_TRUE(
        t.Add(rng.UniformInt(I), rng.UniformInt(J), rng.UniformInt(K)).ok());
  }
  EXPECT_TRUE(t.Finalize().ok());
  return t;
}

FactorModel RandomModel(size_t I, size_t J, size_t K, size_t r,
                        uint64_t seed) {
  Rng rng(seed);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(I, r, &rng, 0.3);
  m.u2 = Matrix::GaussianRandom(J, r, &rng, 0.3);
  m.u3 = Matrix::GaussianRandom(K, r, &rng, 0.3);
  m.h.resize(r);
  for (auto& h : m.h) h = rng.Gaussian(1.0, 0.2);
  return m;
}

TEST(FactorModelTest, PredictMatchesHandComputation) {
  FactorModel m;
  m.u1 = Matrix::FromRows({{1, 2}});
  m.u2 = Matrix::FromRows({{3, 4}});
  m.u3 = Matrix::FromRows({{5, 6}});
  m.h = {0.5, 2.0};
  // 0.5*1*3*5 + 2*2*4*6 = 7.5 + 96 = 103.5
  EXPECT_DOUBLE_EQ(m.Predict(0, 0, 0), 103.5);
}

TEST(FactorModelTest, CpIsSpecialCaseWithUnitH) {
  // With h = 1, Eq 6 reduces to the CP model of Eq 1.
  FactorModel m = RandomModel(3, 4, 5, 2, 1);
  m.h = {1.0, 1.0};
  double cp = 0.0;
  for (size_t t = 0; t < 2; ++t) {
    cp += m.u1(1, t) * m.u2(2, t) * m.u3(3, t);
  }
  EXPECT_NEAR(m.Predict(1, 2, 3), cp, 1e-12);
}

// --- The paper's Remark 1: Eq 15 == Eq 14 --------------------------------

class RewrittenEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RewrittenEquivalenceTest, LossValuesIdentical) {
  Rng rng(100 + GetParam());
  const size_t I = 4 + rng.UniformInt(6);
  const size_t J = 4 + rng.UniformInt(6);
  const size_t K = 3 + rng.UniformInt(5);
  SparseTensor x = RandomTensor(I, J, K, I * J, 200 + GetParam());
  FactorModel m = RandomModel(I, J, K, 3, 300 + GetParam());
  const double wp = 0.99, wn = 0.01;
  NaiveLoss naive(wp, wn);
  RewrittenLoss rewritten(wp, wn);
  const double a = naive.Compute(m, x);
  const double b = rewritten.Compute(m, x);
  EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::fabs(a)));
}

TEST_P(RewrittenEquivalenceTest, GradientsIdentical) {
  Rng rng(400 + GetParam());
  const size_t I = 5, J = 6, K = 4;
  SparseTensor x = RandomTensor(I, J, K, 25, 500 + GetParam());
  FactorModel m = RandomModel(I, J, K, 3, 600 + GetParam());
  NaiveLoss naive(0.95, 0.05);
  RewrittenLoss rewritten(0.95, 0.05);
  FactorGrads ga(m), gb(m);
  ga.Zero();
  gb.Zero();
  (void)naive.ComputeWithGrads(m, x, &ga);
  (void)rewritten.ComputeWithGrads(m, x, &gb);
  EXPECT_LT(MaxAbsDiff(ga.u1, gb.u1), 1e-9);
  EXPECT_LT(MaxAbsDiff(ga.u2, gb.u2), 1e-9);
  EXPECT_LT(MaxAbsDiff(ga.u3, gb.u3), 1e-9);
  for (size_t t = 0; t < m.h.size(); ++t) {
    EXPECT_NEAR(ga.h[t], gb.h[t], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewrittenEquivalenceTest,
                         ::testing::Range(0, 8));

TEST(RewrittenLossTest, GradientMatchesNumerical) {
  SparseTensor x = RandomTensor(4, 5, 3, 15, 1);
  FactorModel m = RandomModel(4, 5, 3, 2, 2);
  RewrittenLoss loss(0.9, 0.1);
  FactorGrads g(m);
  g.Zero();
  (void)loss.ComputeWithGrads(m, x, &g);

  const double eps = 1e-6;
  auto check = [&](double* param, double analytic) {
    const double orig = *param;
    *param = orig + eps;
    const double up = loss.Compute(m, x);
    *param = orig - eps;
    const double down = loss.Compute(m, x);
    *param = orig;
    EXPECT_NEAR(analytic, (up - down) / (2 * eps),
                1e-4 * std::max(1.0, std::fabs(analytic)));
  };
  for (size_t i = 0; i < m.u1.size(); ++i) check(m.u1.data() + i, g.u1.data()[i]);
  for (size_t i = 0; i < m.u2.size(); ++i) check(m.u2.data() + i, g.u2.data()[i]);
  for (size_t i = 0; i < m.u3.size(); ++i) check(m.u3.data() + i, g.u3.data()[i]);
  for (size_t t = 0; t < m.h.size(); ++t) check(&m.h[t], g.h[t]);
}

TEST(WholeDataLossTest, ZeroModelLossEqualsWeightedPositives) {
  SparseTensor x = RandomTensor(6, 6, 4, 20, 3);
  FactorModel m;
  m.u1 = Matrix(6, 2);
  m.u2 = Matrix(6, 2);
  m.u3 = Matrix(4, 2);
  m.h = {1.0, 1.0};
  RewrittenLoss loss(0.99, 0.01);
  // All predictions are 0, so L2 = sum over positives of w+ * 1.
  EXPECT_NEAR(loss.Compute(m, x), 0.99 * static_cast<double>(x.nnz()),
              1e-12);
}

TEST(NegativeSamplingLossTest, SamplesChangeAcrossCalls) {
  SparseTensor x = RandomTensor(8, 8, 4, 30, 4);
  FactorModel m = RandomModel(8, 8, 4, 2, 5);
  NegativeSamplingLoss loss(0.99, 0.01, 7);
  const double a = loss.Compute(m, x);
  const double b = loss.Compute(m, x);
  // Different sampled negatives give (almost surely) different values.
  EXPECT_NE(a, b);
}

TEST(NegativeSamplingLossTest, PositivePartMatchesNaivePositivePart) {
  SparseTensor x = RandomTensor(6, 6, 3, 18, 6);
  // Model predicting exactly 0 -> sampled negatives contribute 0 and the
  // loss reduces to w+ * nnz (same positive part as the whole-data loss).
  FactorModel m;
  m.u1 = Matrix(6, 2);
  m.u2 = Matrix(6, 2);
  m.u3 = Matrix(3, 2);
  m.h = {1.0, 1.0};
  NegativeSamplingLoss loss(0.95, 0.05, 8);
  EXPECT_NEAR(loss.Compute(m, x), 0.95 * static_cast<double>(x.nnz()),
              1e-12);
}

// --- Under-draw rescaling regressions (PR 5) -----------------------------
//
// A near-dense tensor exhausts the rejection guard before the sampler
// collects its full quota of negatives; the implementation then rescales
// the w- term by want/drawn to keep it an unbiased estimate. Pin that
// behavior with a tensor holding exactly ONE unobserved cell: every drawn
// negative is that cell, so the rescaled term must equal
// want * w_neg * y*^2 no matter how many draws actually landed.
TEST(NegativeSamplingLossTest, UnderDrawRescalesToFullQuota) {
  const size_t I = 5, J = 5, K = 4;
  SparseTensor x(I, J, K);
  for (uint32_t i = 0; i < I; ++i) {
    for (uint32_t j = 0; j < J; ++j) {
      for (uint32_t k = 0; k < K; ++k) {
        if (i == 2 && j == 3 && k == 1) continue;  // the one unobserved cell
        ASSERT_TRUE(x.Add(i, j, k).ok());
      }
    }
  }
  ASSERT_TRUE(x.Finalize().ok());
  FactorModel m = RandomModel(I, J, K, 2, 42);
  const double w_neg = 0.25;
  const double y_star = m.Predict(2, 3, 1);
  const size_t want = x.nnz();  // 99 positives -> 99-negative quota

  // w_pos = 0 isolates the w- term.
  NegativeSamplingLoss loss(/*w_pos=*/0.0, w_neg, /*seed=*/9);
  ::testing::internal::CaptureStderr();
  FactorGrads grads(m);
  const double value = loss.ComputeWithGrads(m, x, &grads);
  const std::string log = ::testing::internal::GetCapturedStderr();

  // The guard must actually have been exhausted (1 unobserved cell in 100
  // vs a 50x-quota guard), otherwise this test is not exercising the
  // rescale path at all.
  ASSERT_NE(log.find("under-drew"), std::string::npos) << log;
  const double want_loss =
      static_cast<double>(want) * w_neg * y_star * y_star;
  EXPECT_NEAR(value, want_loss, 1e-12 * std::abs(want_loss));

  // Gradient of the isolated w- term wrt h_t at the single negative cell:
  // want * 2 * w_neg * y* * (u1 u2 u3)_t.
  for (size_t t = 0; t < m.rank(); ++t) {
    const double expect = static_cast<double>(want) * 2.0 * w_neg * y_star *
                          m.u1(2, t) * m.u2(3, t) * m.u3(1, t);
    EXPECT_NEAR(grads.h[t], expect, 1e-12 * std::abs(expect));
  }
}

TEST(NegativeSamplingLossTest, FullyObservedTensorTerminatesWithZeroDraws) {
  // Zero unobserved cells: the rejection loop cannot draw anything; it
  // must hit the guard, leave the w- term at zero (no 0/0 rescale), and
  // return just the positive part.
  SparseTensor x(2, 2, 2);
  for (uint32_t i = 0; i < 2; ++i) {
    for (uint32_t j = 0; j < 2; ++j) {
      for (uint32_t k = 0; k < 2; ++k) ASSERT_TRUE(x.Add(i, j, k).ok());
    }
  }
  ASSERT_TRUE(x.Finalize().ok());
  FactorModel m = RandomModel(2, 2, 2, 2, 7);
  NegativeSamplingLoss sampled(0.5, 0.25, /*seed=*/3);
  NaiveLoss positives_only(0.5, /*w_neg=*/0.0);
  ::testing::internal::CaptureStderr();
  const double value = sampled.Compute(m, x);
  ::testing::internal::GetCapturedStderr();  // swallow the warning
  EXPECT_DOUBLE_EQ(value, positives_only.Compute(m, x));
}

TEST(NegativeSamplingLossTest, SamplerStateReplayIsExact) {
  // Pinning sampler_state replays the identical negative set: same loss
  // and same gradients, bit for bit — across calls and across instances.
  SparseTensor x = RandomTensor(6, 7, 5, 30, 17);
  FactorModel m = RandomModel(6, 7, 5, 3, 18);
  NegativeSamplingLoss a(0.9, 0.1, /*seed=*/5);
  a.set_sampler_state(11);
  FactorGrads ga(m);
  const double va = a.ComputeWithGrads(m, x, &ga);
  EXPECT_EQ(a.sampler_state(), 12u);  // the call advanced the counter

  NegativeSamplingLoss b(0.9, 0.1, /*seed=*/5);
  b.set_sampler_state(11);
  FactorGrads gb(m);
  const double vb = b.ComputeWithGrads(m, x, &gb);
  EXPECT_EQ(va, vb);
  EXPECT_EQ(MaxAbsDiff(ga.u1, gb.u1), 0.0);
  EXPECT_EQ(MaxAbsDiff(ga.u2, gb.u2), 0.0);
  EXPECT_EQ(MaxAbsDiff(ga.u3, gb.u3), 0.0);
  for (size_t t = 0; t < m.rank(); ++t) EXPECT_EQ(ga.h[t], gb.h[t]);

  // A different state draws a different set.
  NegativeSamplingLoss c(0.9, 0.1, /*seed=*/5);
  c.set_sampler_state(12);
  EXPECT_NE(c.Compute(m, x), va);
}

TEST(WholeDataLossTest, FactoryRespectsConfig) {
  TcssConfig cfg;
  cfg.loss_mode = LossMode::kRewritten;
  EXPECT_STREQ(WholeDataLoss::Create(cfg)->name(), "rewritten");
  cfg.loss_mode = LossMode::kNaive;
  EXPECT_STREQ(WholeDataLoss::Create(cfg)->name(), "naive");
  cfg.loss_mode = LossMode::kNegativeSampling;
  EXPECT_STREQ(WholeDataLoss::Create(cfg)->name(), "negative-sampling");
}

TEST(AccumulateEntryGradTest, MatchesNumericalDerivativeOfPredict) {
  FactorModel m = RandomModel(3, 3, 3, 2, 9);
  FactorGrads g(m);
  g.Zero();
  // d(Predict)/d(params), i.e. upstream gradient 1.0.
  AccumulateEntryGrad(m, 1, 2, 0, 1.0, &g);
  const double eps = 1e-7;
  auto numeric = [&](double* p) {
    const double orig = *p;
    *p = orig + eps;
    const double up = m.Predict(1, 2, 0);
    *p = orig - eps;
    const double down = m.Predict(1, 2, 0);
    *p = orig;
    return (up - down) / (2 * eps);
  };
  for (size_t t = 0; t < 2; ++t) {
    EXPECT_NEAR(g.u1(1, t), numeric(&m.u1(1, t)), 1e-6);
    EXPECT_NEAR(g.u2(2, t), numeric(&m.u2(2, t)), 1e-6);
    EXPECT_NEAR(g.u3(0, t), numeric(&m.u3(0, t)), 1e-6);
    EXPECT_NEAR(g.h[t], numeric(&m.h[t]), 1e-6);
  }
  // Untouched rows get no gradient.
  EXPECT_DOUBLE_EQ(g.u1(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.u2(0, 0), 0.0);
}

// --- Spectral initialization ----------------------------------------------

TEST(SpectralInitTest, ShapesAndMeanScaling) {
  SparseTensor x = RandomTensor(12, 10, 6, 60, 10);
  TcssConfig cfg;
  cfg.rank = 4;
  cfg.init = InitMethod::kSpectral;
  auto init = InitializeFactors(x, cfg);
  ASSERT_TRUE(init.ok()) << init.status().ToString();
  const FactorModel& m = init.value();
  EXPECT_EQ(m.u1.rows(), 12u);
  EXPECT_EQ(m.u2.rows(), 10u);
  EXPECT_EQ(m.u3.rows(), 6u);
  EXPECT_EQ(m.rank(), 4u);
  for (double h : m.h) EXPECT_DOUBLE_EQ(h, 1.0);
  // Sign alignment makes the mean prediction over observed entries
  // positive (the factors keep the eigenvector scale; no rescaling).
  double mean = 0.0;
  for (const auto& e : x.entries()) mean += m.Predict(e.i, e.j, e.k);
  mean /= static_cast<double>(x.nnz());
  EXPECT_GT(mean, 0.0);
}

TEST(SpectralInitTest, RankLargerThanModeDimIsPadded) {
  SparseTensor x = RandomTensor(10, 9, 3, 40, 11);  // K=3 < rank
  TcssConfig cfg;
  cfg.rank = 5;
  auto init = InitializeFactors(x, cfg);
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(init.value().u3.cols(), 5u);
}

TEST(SpectralInitTest, RandomAndOneHotVariants) {
  SparseTensor x = RandomTensor(8, 8, 4, 30, 12);
  for (InitMethod method : {InitMethod::kRandom, InitMethod::kOneHot}) {
    TcssConfig cfg;
    cfg.rank = 3;
    cfg.init = method;
    auto init = InitializeFactors(x, cfg);
    ASSERT_TRUE(init.ok());
    EXPECT_GT(init.value().u1.FrobeniusNorm(), 0.0);
  }
}

TEST(SpectralInitTest, DeterministicForSeed) {
  SparseTensor x = RandomTensor(10, 10, 5, 50, 13);
  TcssConfig cfg;
  cfg.rank = 3;
  auto a = InitializeFactors(x, cfg);
  auto b = InitializeFactors(x, cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(MaxAbsDiff(a.value().u1, b.value().u1), 1e-15);
}

// Each mode's eigensolve as InitializeFactors runs it, on the gowalla
// preset that `tcss train` sees: it converges inside the cap, within
// sin 1e-5 of the subspace a tol-1e-13 solve finds (the Frobenius norm
// below bounds the sine of the largest principal angle from above).
TEST(SpectralInitTest, EigensolvesConvergeCloseToTightSolves) {
  auto data =
      GenerateSyntheticLbsn(PresetConfig(SyntheticPreset::kGowallaLike, 1.0));
  ASSERT_TRUE(data.ok());
  const TrainTestSplit split = SplitCheckins(data.value(), 0.8, 42);
  auto train = BuildCheckinTensor(data.value(), split.train,
                                  TimeGranularity::kMonthOfYear);
  ASSERT_TRUE(train.ok());
  const TcssConfig cfg;
  for (int mode = 0; mode < 3; ++mode) {
    SCOPED_TRACE(testing::Message() << "mode " << mode);
    ModeGramOperator gram(train.value(), mode, /*zero_diagonal=*/true);
    double sigma = 0.0;
    for (double d : gram.Diagonal()) sigma = std::max(sigma, d);
    ShiftedOperator shifted(&gram, sigma);
    const size_t r = std::min(cfg.rank, train.value().dim(mode));
    SubspaceIterationOptions opts;
    opts.seed = cfg.seed + static_cast<uint64_t>(mode) * 7920;
    auto eig = SubspaceEigen(shifted, r, opts);
    opts.tol = 1e-13;
    auto tight = SubspaceEigen(shifted, r, opts);
    ASSERT_TRUE(eig.ok());
    ASSERT_TRUE(tight.ok());
    EXPECT_TRUE(eig.value().converged);
    ASSERT_TRUE(tight.value().converged);
    for (size_t t = 0; t < r; ++t) {
      EXPECT_NEAR(eig.value().values[t], tight.value().values[t],
                  1e-10 * tight.value().values[t]);
    }
    const Matrix& v = eig.value().vectors;
    const Matrix& ref = tight.value().vectors;
    Matrix outside = v;
    outside.Add(MatMul(ref, MatTMul(ref, v)), -1.0);
    EXPECT_LT(outside.FrobeniusNorm(), 1e-5);
  }
}

TEST(SpectralInitTest, RequiresFinalizedTensor) {
  SparseTensor x(4, 4, 4);
  TcssConfig cfg;
  EXPECT_FALSE(InitializeFactors(x, cfg).ok());
}

}  // namespace
}  // namespace tcss
