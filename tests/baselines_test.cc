#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "baselines/cp_als.h"
#include "baselines/lfbca.h"
#include "baselines/mcco.h"
#include "baselines/pure_svd.h"
#include "baselines/registry.h"
#include "baselines/tucker_hooi.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "eval/ranking_protocol.h"
#include "linalg/svd.h"

namespace tcss {
namespace {

struct World {
  Dataset data;
  SparseTensor train;
  std::vector<TensorCell> test_cells;
};

const World& SharedWorld() {
  static World* world = [] {
    auto data = GenerateSyntheticLbsn(
        PresetConfig(SyntheticPreset::kGowallaLike, 0.25));
    EXPECT_TRUE(data.ok());
    TrainTestSplit split = SplitCheckins(data.value(), 0.8, 42);
    auto train = BuildCheckinTensor(data.value(), split.train,
                                    TimeGranularity::kMonthOfYear);
    EXPECT_TRUE(train.ok());
    return new World{data.MoveValue(), train.MoveValue(),
                     EventsToCells(split.test,
                                   TimeGranularity::kMonthOfYear)};
  }();
  return *world;
}

TEST(RegistryTest, AllModelsConstructible) {
  for (const auto& name : RegisteredModelNames()) {
    auto model = MakeModel(name);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name().rfind(name, 0), 0u) << name;
  }
  EXPECT_EQ(MakeModel("NoSuchModel"), nullptr);
  EXPECT_EQ(RegisteredModelNames().size(), 13u);
}

// Every registered baseline must fit without error and beat chance on the
// shared synthetic world (chance Hit@10 is ~0.10).
class EveryModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryModelTest, FitsAndBeatsChance) {
  const World& w = SharedWorld();
  auto model = MakeModel(GetParam(), 7);
  ASSERT_NE(model, nullptr);
  ASSERT_TRUE(
      model->Fit({&w.data, &w.train, TimeGranularity::kMonthOfYear, 7}).ok())
      << GetParam();
  RankingProtocolOptions opts;
  RankingMetrics m =
      EvaluateRanking(*model, w.data.num_pois(), w.test_cells, opts);
  EXPECT_GT(m.hit_at_k, 0.16) << GetParam();
  EXPECT_GT(m.mrr, 0.055) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Models, EveryModelTest,
    ::testing::Values("MCCO", "PureSVD", "STRNN", "STAN", "STGN", "CP",
                      "Tucker", "P-Tucker", "NCF", "NTM", "CoSTCo",
                      "Popularity", "UserKNN", "GeoMF"));

TEST(CpAlsTest, RecoversTrueLowRankTensor) {
  // Build a tensor that *is* rank-2 (entries from a CP model) and check
  // that CP-ALS reaches a near-perfect fit on the observed entries.
  Rng rng(1);
  const size_t I = 12, J = 10, K = 6, r = 2;
  Matrix a = Matrix::GaussianRandom(I, r, &rng, 1.0);
  Matrix b = Matrix::GaussianRandom(J, r, &rng, 1.0);
  Matrix c = Matrix::GaussianRandom(K, r, &rng, 1.0);
  SparseTensor x(I, J, K);
  for (uint32_t i = 0; i < I; ++i)
    for (uint32_t j = 0; j < J; ++j)
      for (uint32_t k = 0; k < K; ++k) {
        double v = 0;
        for (size_t t = 0; t < r; ++t) v += a(i, t) * b(j, t) * c(k, t);
        ASSERT_TRUE(x.Add(i, j, k, v).ok());
      }
  ASSERT_TRUE(x.Finalize(/*binary=*/false).ok());

  CpAls::Options opts;
  opts.rank = 2;
  opts.sweeps = 40;
  CpAls model(opts);
  Dataset dummy;  // CP ignores side information
  ASSERT_TRUE(model.Fit({&dummy, &x, TimeGranularity::kMonthOfYear, 1}).ok());
  double err = 0.0, norm = 0.0;
  for (const auto& e : x.entries()) {
    const double d = model.Score(e.i, e.j, e.k) - e.value;
    err += d * d;
    norm += e.value * e.value;
  }
  EXPECT_LT(std::sqrt(err / norm), 1e-4);
}

// Every MTTKRP, Gram and Cholesky solve of CP-ALS is thread-count
// invariant, so the fitted scores are too, byte for byte.
TEST(CpAlsTest, FitIsBitIdenticalAcrossThreadCounts) {
  const World& w = SharedWorld();
  // Large enough for the sharded MTTKRP path.
  ASSERT_GE(w.train.nnz() * CpAls::Options().rank, size_t{1} << 14);
  auto scores_at = [&](int threads) {
    SetGlobalThreads(threads);
    CpAls model;
    EXPECT_TRUE(model.Fit({&w.data, &w.train}).ok());
    std::vector<double> scores;
    for (uint32_t i = 0; i < w.train.dim_i(); ++i)
      for (uint32_t j = 0; j < w.train.dim_j(); ++j)
        for (uint32_t k = 0; k < w.train.dim_k(); ++k)
          scores.push_back(model.Score(i, j, k));
    return scores;
  };
  const std::vector<double> serial = scores_at(1);
  for (int threads : {2, 8}) {
    const std::vector<double> got = scores_at(threads);
    ASSERT_EQ(got.size(), serial.size());
    EXPECT_EQ(std::memcmp(got.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << threads << " threads";
  }
  SetGlobalThreads(1);
}

TEST(CpAlsTest, FitRejectsUnfinalizedTensor) {
  SparseTensor x(3, 3, 3);
  ASSERT_TRUE(x.Add(0, 1, 2, 1.0).ok());
  CpAls model;
  EXPECT_EQ(model.Fit({nullptr, &x}).code(), StatusCode::kInvalidArgument);
}

TEST(TuckerHooiTest, FactorsAreOrthonormalAndFitIsReasonable) {
  const World& w = SharedWorld();
  TuckerHooi::Options opts;
  opts.rank1 = opts.rank2 = 6;
  opts.rank3 = 6;
  TuckerHooi model(opts);
  ASSERT_TRUE(
      model.Fit({&w.data, &w.train, TimeGranularity::kMonthOfYear, 1}).ok());
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix& f = model.factor(mode);
    EXPECT_LT(MaxAbsDiff(Gram(f), Matrix::Identity(f.cols())), 1e-8);
  }
  // Mean score on positives clearly above mean score overall.
  double pos = 0.0;
  for (const auto& e : w.train.entries()) pos += model.Score(e.i, e.j, e.k);
  pos /= static_cast<double>(w.train.nnz());
  EXPECT_GT(pos, 0.1);
}

TEST(PureSvdTest, MatchesDenseSvdScores) {
  // On a tiny tensor, PureSVD's implicit SVD must agree with a dense SVD
  // of the collapsed user-POI matrix.
  SparseTensor x(5, 4, 3);
  Rng rng(3);
  for (int n = 0; n < 12; ++n) {
    (void)x.Add(rng.UniformInt(5), rng.UniformInt(4), rng.UniformInt(3));
  }
  ASSERT_TRUE(x.Finalize().ok());
  Matrix dense(5, 4);
  for (const auto& e : x.entries()) dense(e.i, e.j) = 1.0;

  PureSvd::Options opts;
  opts.rank = 3;
  PureSvd model(opts);
  Dataset dummy;
  ASSERT_TRUE(model.Fit({&dummy, &x, TimeGranularity::kMonthOfYear, 1}).ok());

  auto svd = ComputeTruncatedSvd(dense, 3);
  ASSERT_TRUE(svd.ok());
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      double expect = 0.0;
      for (size_t t = 0; t < 3; ++t) {
        expect += svd.value().u(i, t) * svd.value().s[t] * svd.value().v(j, t);
      }
      EXPECT_NEAR(model.Score(i, j, 0), expect, 1e-6);
      // Time index must not matter.
      EXPECT_DOUBLE_EQ(model.Score(i, j, 0), model.Score(i, j, 2));
    }
  }
}

TEST(MccoTest, CompletesRankOneMatrix) {
  // Observed entries: a random ~2/3 sample of an all-ones matrix;
  // soft-impute should push the *unobserved* cells well above zero.
  // (A structured mask like a checkerboard would be adversarial: the
  // checkerboard itself is a nuclear-norm-tied completion.)
  SparseTensor x(6, 6, 1);
  Rng mask_rng(9);
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = 0; j < 6; ++j) {
      if (mask_rng.Uniform() < 0.67) {
        ASSERT_TRUE(x.Add(i, j, 0).ok());
      }
    }
  }
  ASSERT_TRUE(x.Finalize().ok());
  Mcco::Options opts;
  opts.max_rank = 3;
  opts.tau = 0.3;
  opts.iterations = 40;
  Mcco model(opts);
  Dataset dummy;
  ASSERT_TRUE(model.Fit({&dummy, &x, TimeGranularity::kMonthOfYear, 1}).ok());
  double unobserved = 0.0;
  int n = 0;
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = 0; j < 6; ++j) {
      if (!x.Contains(i, j, 0)) {
        unobserved += model.Score(i, j, 0);
        ++n;
      }
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(unobserved / n, 0.5);
}

TEST(LfbcaTest, RevisitDampingDemotesVisitedPois) {
  const World& w = SharedWorld();
  Lfbca::Options damped_opts;
  Lfbca::Options open_opts;
  open_opts.revisit_damping = 1.0;
  Lfbca damped(damped_opts), open(open_opts);
  ASSERT_TRUE(
      damped.Fit({&w.data, &w.train, TimeGranularity::kMonthOfYear, 1}).ok());
  ASSERT_TRUE(
      open.Fit({&w.data, &w.train, TimeGranularity::kMonthOfYear, 1}).ok());
  // On visited POIs the damped score is strictly smaller.
  const auto& e = w.train.entries().front();
  EXPECT_LT(damped.Score(e.i, e.j, 0), open.Score(e.i, e.j, 0));
  // Ranking with damping (new-location recommendation) scores worse on a
  // revisit-heavy test set - the faithful behaviour of the original LFBCA.
  RankingProtocolOptions opts;
  auto md = EvaluateRanking(damped, w.data.num_pois(), w.test_cells, opts);
  auto mo = EvaluateRanking(open, w.data.num_pois(), w.test_cells, opts);
  EXPECT_LT(md.hit_at_k, mo.hit_at_k);
}

TEST(RegistryTest, ExtraModelsConstructible) {
  for (const auto& name : ExtraModelNames()) {
    auto model = MakeModel(name);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
  }
}

TEST(BaselineTest, FitRejectsNullTensor) {
  for (const auto& name : RegisteredModelNames()) {
    auto model = MakeModel(name);
    EXPECT_FALSE(model->Fit({nullptr, nullptr}).ok()) << name;
  }
}

}  // namespace
}  // namespace tcss
