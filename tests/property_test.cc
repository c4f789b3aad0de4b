// Property-based differential-oracle suite (ctest label `proptest`,
// DESIGN.md §9): every optimized kernel and loss is checked against the
// naive reference implementations in src/proptest/oracles.* over seeded
// random inputs, plus metamorphic laws (permutation equivariance, scaling
// homogeneity, fold-in reproduction) and central-difference gradient
// checks. tools/check.sh runs this suite plain, under ASan/UBSan, and
// under TSan (the multi-threaded kernel-equality properties).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/fold_in.h"
#include "core/incremental_fold_in.h"
#include "core/model_io.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "data/time_binning.h"
#include "eval/chronological.h"
#include "stream/delta_buffer.h"
#include "core/hausdorff_loss.h"
#include "core/recommend.h"
#include "core/whole_data_loss.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "proptest/generators.h"
#include "proptest/oracles.h"
#include "linalg/simd.h"
#include "proptest/prop.h"
#include "tensor/mttkrp.h"

namespace tcss {
namespace {

using proptest::CentralDifferenceGrads;
using proptest::GenFactorModel;
using proptest::GenInteriorFactorModel;
using proptest::GenLbsnCase;
using proptest::GenRank;
using proptest::GenSparseTensor;
using proptest::GenTensorOptions;
using proptest::LbsnCase;
using proptest::OracleDenseLoss;
using proptest::OracleFoldIn;
using proptest::OracleGram;
using proptest::OracleHausdorffUser;
using proptest::OracleMatMul;
using proptest::OracleMatTMul;
using proptest::OracleMttkrp;
using proptest::OracleTopK;
using proptest::Prop;
using proptest::PropOptions;
using proptest::PropReport;
using proptest::RelDiff;
using proptest::RelMaxDiff;

/// Restores the single-threaded global pool however a predicate exits.
struct ThreadGuard {
  ~ThreadGuard() { SetGlobalThreads(1); }
};

// ---------------------------------------------------------------------------
// Framework self-tests
// ---------------------------------------------------------------------------

TEST(PropFramework, PassingPropertyRunsAllCases) {
  auto gen = [](uint64_t seed, uint32_t size) {
    Rng rng(seed);
    return rng.UniformInt(size + 1);
  };
  auto pred = [](const uint64_t& v, std::string*) { return v <= 1u << 20; };
  PropReport report = Prop::Check<uint64_t>("always-true", 64, gen, pred);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.cases_run, 64);
}

TEST(PropFramework, CaseSeedsAndSizesAreDeterministic) {
  const uint64_t s0 = proptest::DeriveCaseSeed(123, 0);
  EXPECT_EQ(s0, proptest::DeriveCaseSeed(123, 0));
  EXPECT_NE(s0, proptest::DeriveCaseSeed(123, 1));
  EXPECT_NE(s0, proptest::DeriveCaseSeed(124, 0));
  for (uint32_t max : {1u, 2u, 7u, 64u}) {
    const uint32_t size = proptest::SizeForSeed(s0, max);
    EXPECT_GE(size, 1u);
    EXPECT_LE(size, max);
    EXPECT_EQ(size, proptest::SizeForSeed(s0, max));
  }
}

// Acceptance property: a forced failure prints a TCSS_PROPTEST_SEED line
// that deterministically reproduces the same shrunk counterexample.
TEST(PropFramework, ForcedFailurePrintsSeedThatReplaysShrunkCase) {
  using Case = std::vector<uint64_t>;
  auto gen = [](uint64_t seed, uint32_t size) {
    Rng rng(seed);
    Case v(size);
    for (uint64_t& x : v) x = rng.UniformInt(1000);
    return v;
  };
  // Always-false predicate with an input-dependent message, so "the same
  // counterexample" is observable through the report.
  auto pred = [](const Case& v, std::string* msg) {
    *msg = StrFormat("len=%zu head=%llu", v.size(),
                     static_cast<unsigned long long>(v.empty() ? 0 : v[0]));
    return false;
  };

  ::testing::internal::CaptureStderr();
  PropReport report = Prop::Check<Case>("forced-failure", 50, gen, pred);
  const std::string log = ::testing::internal::GetCapturedStderr();

  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.shrunk_size, 1u);  // halving all the way down
  EXPECT_NE(log.find("FALSIFIED forced-failure"), std::string::npos) << log;
  const std::string repro_line =
      "TCSS_PROPTEST_SEED=" + std::to_string(report.fail_seed);
  EXPECT_NE(log.find(repro_line), std::string::npos) << log;

  // Replay through the environment variable: one case, same seed, same
  // initial size, identical shrunk counterexample.
  ASSERT_EQ(setenv("TCSS_PROPTEST_SEED",
                   std::to_string(report.fail_seed).c_str(), 1),
            0);
  ::testing::internal::CaptureStderr();
  PropReport replay = Prop::Check<Case>("forced-failure", 50, gen, pred);
  ::testing::internal::GetCapturedStderr();
  unsetenv("TCSS_PROPTEST_SEED");

  ASSERT_FALSE(replay.ok);
  EXPECT_EQ(replay.fail_seed, report.fail_seed);
  EXPECT_EQ(replay.fail_size, report.fail_size);
  EXPECT_EQ(replay.shrunk_size, report.shrunk_size);
  EXPECT_EQ(replay.message, report.message);
}

TEST(PropFramework, ShrinkingStopsAtSmallestFailingSize) {
  auto gen = [](uint64_t, uint32_t size) { return size; };
  // Fails for size >= 3: shrinking should land exactly on 3 (not below).
  auto pred = [](const uint32_t& size, std::string* msg) {
    if (size < 3) return true;
    *msg = StrFormat("size=%u", size);
    return false;
  };
  ::testing::internal::CaptureStderr();
  PropOptions opts;
  opts.max_size = 64;
  PropReport report = Prop::Check<uint32_t>("shrink-floor", 200, gen, pred,
                                            opts);
  ::testing::internal::GetCapturedStderr();
  ASSERT_FALSE(report.ok);
  EXPECT_GE(report.shrunk_size, 3u);
  EXPECT_LT(report.shrunk_size, 6u);  // halving cannot overshoot 2x
}

// ---------------------------------------------------------------------------
// Whole-data loss vs the dense Eq 14 oracle
// ---------------------------------------------------------------------------

struct LossCase {
  SparseTensor x;
  FactorModel model;
  double w_pos = 0.0, w_neg = 0.0;
  bool binary = true;
};

LossCase MakeLossCase(uint64_t seed, uint32_t size, bool force_real = false) {
  Rng rng(seed);
  LossCase c;
  c.binary = force_real ? false : rng.Bernoulli(0.6);
  GenTensorOptions topts;
  topts.binary = c.binary;
  c.x = GenSparseTensor(&rng, size, topts);
  const size_t rank = GenRank(&rng, size);
  c.model =
      GenFactorModel(&rng, c.x.dim_i(), c.x.dim_j(), c.x.dim_k(), rank);
  c.w_pos = rng.Uniform(0.5, 1.0);
  c.w_neg = rng.Uniform(0.001, 0.5);
  return c;
}

// Acceptance property: RewrittenLoss (Eq 15, Gram-rewritten whole-data
// term) equals the literal dense Eq 14 enumeration — value and every
// gradient entry — to <= 1e-10 relative error over >= 100 random configs.
TEST(DifferentialLoss, RewrittenMatchesDenseOracle) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeLossCase(seed, size);
  };
  auto pred = [](const LossCase& c, std::string* msg) {
    RewrittenLoss loss(c.w_pos, c.w_neg);
    FactorGrads got(c.model), want(c.model);
    const double got_loss = loss.ComputeWithGrads(c.model, c.x, &got);
    const double want_loss =
        OracleDenseLoss(c.model, c.x, c.w_pos, c.w_neg, &want);
    const double value_err = RelDiff(got_loss, want_loss);
    const double grad_err = RelMaxDiff(got, want);
    if (value_err > 1e-10 || grad_err > 1e-10) {
      *msg = StrFormat(
          "dims %zux%zux%zu r=%zu nnz=%zu: value err %.3e (rewritten "
          "%.17g vs dense %.17g), grad err %.3e",
          c.x.dim_i(), c.x.dim_j(), c.x.dim_k(), c.model.rank(), c.x.nnz(),
          value_err, got_loss, want_loss, grad_err);
      return false;
    }
    // The value-only entry point must agree with the gradient path.
    if (loss.Compute(c.model, c.x) != got_loss) {
      *msg = "Compute() != ComputeWithGrads() value";
      return false;
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 10;
  PropReport report =
      Prop::Check<LossCase>("rewritten-vs-dense-oracle", 120, gen, pred,
                            opts);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_GE(report.cases_run, 100);
}

// NaiveLoss walks the same cells as the oracle in the same order, just
// with a sorted-cursor membership test instead of per-cell binary search —
// the two must agree bit for bit.
TEST(DifferentialLoss, NaiveMatchesDenseOracleExactly) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeLossCase(seed, size);
  };
  auto pred = [](const LossCase& c, std::string* msg) {
    NaiveLoss loss(c.w_pos, c.w_neg);
    FactorGrads got(c.model), want(c.model);
    const double got_loss = loss.ComputeWithGrads(c.model, c.x, &got);
    const double want_loss =
        OracleDenseLoss(c.model, c.x, c.w_pos, c.w_neg, &want);
    if (got_loss != want_loss || RelMaxDiff(got, want) != 0.0) {
      *msg = StrFormat("naive %.17g vs dense %.17g, grad err %.3e",
                       got_loss, want_loss, RelMaxDiff(got, want));
      return false;
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 8;
  PropReport report = Prop::Check<LossCase>("naive-vs-dense-oracle", 60,
                                            gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// ---------------------------------------------------------------------------
// Dense kernels vs triple-loop oracles, at 1 / 2 / 8 threads
// ---------------------------------------------------------------------------

struct KernelCase {
  Matrix a, b;  // gemm inputs: a (m x p), b (p x n)
  Matrix c;     // MatTMul partner of a: (m x q), so a^T c is (p x q)
  SparseTensor x;
  Matrix factors[3];
};

KernelCase MakeKernelCase(uint64_t seed, uint32_t size) {
  Rng rng(seed);
  KernelCase c;
  // Half the cases are tall-skinny: many rows against the narrow widths
  // of subspace iteration (r + 4 = 14 at the default rank) and the L2
  // head (r = 10), below, at and past one 16-column tile.
  const bool tall = rng.Bernoulli(0.5);
  const size_t widths[] = {1, 10, 13, 14, 15, 17};
  auto width = [&]() -> size_t {
    return tall ? widths[rng.UniformInt(6)] : 1 + rng.UniformInt(size);
  };
  const size_t m = 1 + rng.UniformInt(tall ? 16 * size : size);
  const size_t p = width();
  const size_t n = width();
  c.a = Matrix::GaussianRandom(m, p, &rng);
  c.b = Matrix::GaussianRandom(p, n, &rng);
  c.c = Matrix::GaussianRandom(m, width(), &rng);
  // Dense-ish tensor so nnz * r crosses the parallel-MTTKRP threshold at
  // full budget while small budgets still exercise the serial path.
  const size_t dim_i = 1 + rng.UniformInt(size);
  const size_t dim_j = 1 + rng.UniformInt(size);
  const size_t dim_k = 1 + rng.UniformInt(std::min<uint32_t>(size, 8));
  SparseTensor x(dim_i, dim_j, dim_k);
  const size_t target = rng.UniformInt(32 * size + 1);
  for (size_t e = 0; e < target; ++e) {
    (void)x.Add(static_cast<uint32_t>(rng.UniformInt(dim_i)),
                static_cast<uint32_t>(rng.UniformInt(dim_j)),
                static_cast<uint32_t>(rng.UniformInt(dim_k)),
                rng.Uniform(0.1, 2.0));
  }
  (void)x.Finalize(rng.Bernoulli(0.5));
  c.x = std::move(x);
  const size_t rank = 1 + rng.UniformInt(8);
  c.factors[0] = Matrix::GaussianRandom(dim_i, rank, &rng);
  c.factors[1] = Matrix::GaussianRandom(dim_j, rank, &rng);
  c.factors[2] = Matrix::GaussianRandom(dim_k, rank, &rng);
  return c;
}

// gemm / Gram accumulate every output element in ascending-k order on both
// the optimized (i-k-j, zero-skipping, row-sharded) and the oracle
// (i-j-k dot product) path, so they must match exactly — at any thread
// count. MTTKRP contracts in a different order (CSF tree walk vs dense
// grid), so it gets a tight tolerance against the oracle plus exact
// equality across thread counts.
TEST(DifferentialKernels, GemmGramMttkrpMatchOraclesAtManyThreads) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeKernelCase(seed, size);
  };
  auto pred = [](const KernelCase& c, std::string* msg) {
    ThreadGuard guard;
    const Matrix want_mm = OracleMatMul(c.a, c.b);
    const Matrix want_mtm = OracleMatTMul(c.a, c.c);
    const Matrix want_gram = OracleGram(c.a);
    Matrix want_mttkrp[3];
    for (int mode = 0; mode < 3; ++mode) {
      want_mttkrp[mode] = OracleMttkrp(c.x, c.factors, mode);
    }
    Matrix serial_mttkrp[3];
    for (int threads : {1, 2, 8}) {
      SetGlobalThreads(threads);
      if (MaxAbsDiff(MatMul(c.a, c.b), want_mm) != 0.0) {
        *msg = StrFormat("MatMul != oracle at %d threads", threads);
        return false;
      }
      if (MaxAbsDiff(MatTMul(c.a, c.c), want_mtm) != 0.0) {
        *msg = StrFormat("MatTMul != oracle at %d threads", threads);
        return false;
      }
      if (MaxAbsDiff(Gram(c.a), want_gram) != 0.0) {
        *msg = StrFormat("Gram != oracle at %d threads", threads);
        return false;
      }
      for (int mode = 0; mode < 3; ++mode) {
        const Matrix got = Mttkrp(c.x, c.factors, mode);
        const double err = RelMaxDiff(got, want_mttkrp[mode]);
        if (err > 1e-12) {
          *msg = StrFormat("Mttkrp mode %d vs oracle err %.3e at %d "
                           "threads (nnz=%zu)",
                           mode, err, threads, c.x.nnz());
          return false;
        }
        if (threads == 1) {
          serial_mttkrp[mode] = got;
        } else if (MaxAbsDiff(got, serial_mttkrp[mode]) != 0.0) {
          *msg = StrFormat(
              "Mttkrp mode %d not thread-count invariant at %d threads",
              mode, threads);
          return false;
        }
      }
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 64;
  PropReport report = Prop::Check<KernelCase>(
      "kernels-vs-triple-loop", 24, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// ---------------------------------------------------------------------------
// Orthonormalize (subspace iteration's QR step) vs the strided left-looking
// Gram-Schmidt it replaced: same bytes, same status, same rng draws.
// ---------------------------------------------------------------------------

struct OrthoCase {
  Matrix a;
  uint64_t rng_seed = 0;
};

OrthoCase MakeOrthoCase(uint64_t seed, uint32_t size) {
  Rng rng(seed);
  OrthoCase c;
  const size_t m = 1 + rng.UniformInt(8 * size);
  const size_t n = 1 + rng.UniformInt(std::min<size_t>(m, 20));
  c.a = Matrix::GaussianRandom(m, n, &rng);
  // Rank deficiency takes the rng retry: a zero column, or a copy of an
  // earlier column that projects to rounding noise.
  if (n > 1 && rng.Bernoulli(0.4)) {
    const size_t j = 1 + rng.UniformInt(n - 1);
    const size_t src = rng.UniformInt(j);
    const bool zero = rng.Bernoulli(0.5);
    for (size_t i = 0; i < m; ++i) c.a(i, j) = zero ? 0.0 : c.a(i, src);
  }
  c.rng_seed = rng.Next();
  return c;
}

bool SameOrthonormalize(const Matrix& a, uint64_t rng_seed,
                        std::string* msg) {
  Matrix got = a;
  Matrix want = a;
  Rng got_rng(rng_seed);
  Rng want_rng(rng_seed);
  const Status got_st = Orthonormalize(&got, &got_rng);
  const Status want_st = proptest::ReferenceOrthonormalize(&want, &want_rng);
  if (got_st.ok() != want_st.ok()) {
    *msg = "status differs: " + got_st.ToString() + " vs " +
           want_st.ToString();
    return false;
  }
  if (got_st.ok() && !std::equal(got.data(), got.data() + got.size(),
                                 want.data())) {
    *msg = StrFormat("%zux%zu: bytes differ from the reference", a.rows(),
                     a.cols());
    return false;
  }
  if (got_rng.Next() != want_rng.Next()) {
    *msg = "rng draws differ";
    return false;
  }
  return true;
}

TEST(DifferentialQr, OrthonormalizeMatchesStridedReferenceBitwise) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeOrthoCase(seed, size);
  };
  auto pred = [](const OrthoCase& c, std::string* msg) {
    return SameOrthonormalize(c.a, c.rng_seed, msg);
  };
  PropOptions opts;
  opts.max_size = 64;
  PropReport report =
      Prop::Check<OrthoCase>("orthonormalize-vs-strided", 48, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(DifferentialQr, RankDeficientInputTakesTheSameRetry) {
  Rng rng(12);
  Matrix a = Matrix::GaussianRandom(40, 6, &rng);
  for (size_t i = 0; i < 40; ++i) {
    a(i, 2) = 0.0;          // dead column
    a(i, 4) = a(i, 1);      // dependent column
  }
  std::string msg;
  EXPECT_TRUE(SameOrthonormalize(a, 99, &msg)) << msg;
  // The retry really ran: it drew from the rng.
  Matrix q = a;
  Rng used(99);
  ASSERT_TRUE(Orthonormalize(&q, &used).ok());
  EXPECT_NE(used.Next(), Rng(99).Next());
  // Without an rng the same input fails in both.
  Matrix b = a;
  Matrix c = a;
  EXPECT_FALSE(Orthonormalize(&b, nullptr).ok());
  EXPECT_FALSE(proptest::ReferenceOrthonormalize(&c, nullptr).ok());
}

// ---------------------------------------------------------------------------
// CSF tensor: structure invariants and per-mode MTTKRP differentials
// (DESIGN.md §12). GenSparseTensor is biased toward the adversarial
// shapes that matter here: empty tensors, empty modes, singleton
// dimensions, duplicate-heavy coordinates (coalesced into long fibers),
// single-slice tensors.
// ---------------------------------------------------------------------------

struct CsfCase {
  SparseTensor x;
  Matrix factors[3];
};

CsfCase MakeCsfCase(uint64_t seed, uint32_t size) {
  Rng rng(seed);
  CsfCase c;
  GenTensorOptions topts;
  topts.binary = rng.Bernoulli(0.5);
  c.x = GenSparseTensor(&rng, size, topts);
  const size_t rank = GenRank(&rng, size);
  c.factors[0] = Matrix::GaussianRandom(c.x.dim(0), rank, &rng);
  c.factors[1] = Matrix::GaussianRandom(c.x.dim(1), rank, &rng);
  c.factors[2] = Matrix::GaussianRandom(c.x.dim(2), rank, &rng);
  return c;
}

// Finalize's CSF invariants: delimiter arrays are well-formed, the
// nonzeros are the tensor's own entries in strict (i, j, k) order, and
// the tree, walked in order, visits every entry once under the slice and
// fiber ids of its own i and j (which implies nnz conservation and
// per-level index ordering).
TEST(CsfProperties, StructureInvariantsHoldOnAdversarialTensors) {
  auto gen = [](uint64_t seed, uint32_t size) {
    Rng rng(seed);
    GenTensorOptions topts;
    topts.binary = rng.Bernoulli(0.5);
    return GenSparseTensor(&rng, size, topts);
  };
  auto pred = [](const SparseTensor& x, std::string* msg) {
    const CsfView csf = x.csf();
    const std::vector<TensorEntry>& entries = x.entries();
    if (csf.entry != entries.data()) {
      *msg = "CSF nonzeros are not the tensor's own entries";
      return false;
    }
    for (size_t e = 1; e < entries.size(); ++e) {
      const TensorEntry& a = entries[e - 1];
      const TensorEntry& b = entries[e];
      if (std::tie(a.i, a.j, a.k) >= std::tie(b.i, b.j, b.k)) {
        *msg = StrFormat("entries not strictly (i, j, k) sorted at %zu", e);
        return false;
      }
    }
    const size_t* ss = csf.slice_start;
    const size_t* fs = csf.fiber_start;
    const size_t fibers = x.num_fibers();
    if (ss[0] != 0 || ss[csf.num_slices] != fibers) {
      *msg = "slice_start delimiters malformed";
      return false;
    }
    if (fs[0] != 0 || fs[fibers] != x.nnz()) {
      *msg = "fiber_start delimiters malformed";
      return false;
    }
    // Every slice holds >= 1 fiber and every fiber >= 1 nonzero (empty
    // nodes would be dead weight the builder must not emit).
    for (size_t s = 0; s < csf.num_slices; ++s) {
      if (ss[s] >= ss[s + 1]) {
        *msg = StrFormat("empty slice %zu", s);
        return false;
      }
    }
    for (size_t f = 0; f < fibers; ++f) {
      if (fs[f] >= fs[f + 1]) {
        *msg = StrFormat("empty fiber %zu", f);
        return false;
      }
    }
    // Walking the tree in order must visit entry e as the e-th nonzero,
    // under the slice of its i and the fiber of its j; a slice id repeated
    // by the next slice, or a fiber id by the next fiber of its slice,
    // would split one slice or fiber in two.
    size_t e = 0;
    for (size_t s = 0; s < csf.num_slices; ++s) {
      if (s > 0 && csf.slice_id[s - 1] >= csf.slice_id[s]) {
        *msg = StrFormat("slice ids not increasing at %zu", s);
        return false;
      }
      for (size_t f = ss[s]; f < ss[s + 1]; ++f) {
        if (f > ss[s] && csf.fiber_id[f - 1] >= csf.fiber_id[f]) {
          *msg = StrFormat("fiber ids not increasing at %zu", f);
          return false;
        }
        for (size_t p = fs[f]; p < fs[f + 1]; ++p, ++e) {
          if (p != e || csf.slice_id[s] != entries[p].i ||
              csf.fiber_id[f] != entries[p].j) {
            *msg = StrFormat("tree walk diverges from COO at entry %zu", e);
            return false;
          }
        }
      }
    }
    if (e != x.nnz()) return false;
    // Pois(i) is the sorted distinct j of i's entries, and Entries(i) is
    // i's run of the tensor's own entries, for every i: users with no
    // entries, before the first slice, after the last one and past dim_i
    // included.
    for (uint32_t i = 0; i < x.dim_i() + 2; ++i) {
      std::vector<uint32_t> want;
      size_t first = entries.size(), count = 0;
      for (size_t p = 0; p < entries.size(); ++p) {
        if (entries[p].i != i) continue;
        want.push_back(entries[p].j);
        first = std::min(first, p);
        ++count;
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      const std::span<const uint32_t> got = x.Pois(i);
      if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
        *msg = StrFormat("Pois(%u) has %zu POIs, its entries %zu distinct", i,
                         got.size(), want.size());
        return false;
      }
      const std::span<const TensorEntry> slice = x.Entries(i);
      if (slice.size() != count ||
          (count > 0 && slice.data() != entries.data() + first)) {
        *msg = StrFormat("Entries(%u) has %zu entries, the tensor %zu", i,
                         slice.size(), count);
        return false;
      }
    }
    // Finalize trims the build slack.
    if (entries.capacity() != entries.size()) {
      *msg = StrFormat("entries hold capacity %zu for %zu",
                       entries.capacity(), entries.size());
      return false;
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 48;
  PropReport report = Prop::Check<SparseTensor>(
      "csf-structure-invariants", 80, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// A tensor's shape and the entries added to it, in order, before Finalize.
struct AddedEntries {
  size_t dims[3] = {0, 0, 0};
  bool binary = true;
  std::vector<TensorEntry> added;
};

AddedEntries MakeAddedEntries(uint64_t seed, uint32_t size) {
  Rng rng(seed);
  AddedEntries c;
  c.binary = rng.Bernoulli(0.5);
  for (size_t& dim : c.dims) {
    const double roll = rng.Uniform();
    dim = roll < 0.08 ? 0 : roll < 0.25 ? 1 : 1 + rng.UniformInt(size);
  }
  // Values whose sums depend on the order they are added in (1e16 + 1 -
  // 1e16), and signed zeros.
  constexpr double kValues[] = {1.0, -1.0, 1e16, -1e16, 0.1, 0.7, 0.0, -0.0};
  if (c.dims[0] > 0 && c.dims[1] > 0 && c.dims[2] > 0) {
    const size_t n = rng.UniformInt(6 * size + 1);
    for (size_t e = 0; e < n; ++e) {
      TensorEntry x;
      if (!c.added.empty() && rng.Bernoulli(0.4)) {
        x = c.added[rng.UniformInt(c.added.size())];
      } else {
        x.i = static_cast<uint32_t>(rng.UniformInt(c.dims[0]));
        x.j = static_cast<uint32_t>(rng.UniformInt(c.dims[1]));
        x.k = static_cast<uint32_t>(rng.UniformInt(c.dims[2]));
      }
      x.value = kValues[rng.UniformInt(std::size(kValues))];
      c.added.push_back(x);
    }
  }
  return c;
}

// Finalize against an insertion-order oracle: each distinct (i, j, k) in
// lexicographic order, its values summed in the order they were added
// (the first taken as is), clamped to 1 with zero sums dropped in a binary
// tensor; the entries' bits and their exact capacity must match, on
// binary and real tensors with empty modes, dim_k = 1 and empty slices.
TEST(CsfProperties, FinalizeSumsDuplicatesInInsertionOrder) {
  auto pred = [](const AddedEntries& c, std::string* msg) {
    SparseTensor x(c.dims[0], c.dims[1], c.dims[2]);
    for (const TensorEntry& e : c.added) {
      if (!x.Add(e.i, e.j, e.k, e.value).ok()) {
        *msg = "Add refused an in-range entry";
        return false;
      }
    }
    if (!x.Finalize(c.binary).ok()) {
      *msg = "Finalize failed";
      return false;
    }
    std::map<std::tuple<uint32_t, uint32_t, uint32_t>, double> sums;
    for (const TensorEntry& e : c.added) {
      const auto [it, fresh] = sums.try_emplace({e.i, e.j, e.k}, e.value);
      if (!fresh) it->second += e.value;
    }
    std::vector<TensorEntry> want;
    for (const auto& [ijk, sum] : sums) {
      if (c.binary && sum == 0.0) continue;
      const auto [i, j, k] = ijk;
      want.push_back({i, j, k, c.binary ? 1.0 : sum});
    }
    const std::vector<TensorEntry>& got = x.entries();
    if (got.size() != want.size()) {
      *msg = StrFormat("%zu entries, the oracle %zu", got.size(), want.size());
      return false;
    }
    for (size_t e = 0; e < got.size(); ++e) {
      if (std::tie(got[e].i, got[e].j, got[e].k) !=
              std::tie(want[e].i, want[e].j, want[e].k) ||
          std::memcmp(&got[e].value, &want[e].value, sizeof(double)) != 0) {
        *msg = StrFormat("entry %zu is (%u,%u,%u) %a, the oracle's (%u,%u,%u) "
                         "%a", e, got[e].i, got[e].j, got[e].k, got[e].value,
                         want[e].i, want[e].j, want[e].k, want[e].value);
        return false;
      }
    }
    if (got.capacity() != got.size()) {
      *msg = StrFormat("entries hold capacity %zu for %zu", got.capacity(),
                       got.size());
      return false;
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 48;
  PropReport report = Prop::Check<AddedEntries>(
      "finalize-insertion-order", 120, MakeAddedEntries, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// All three CSF MTTKRP modes against the dense triple-loop oracle, on the
// same adversarial tensor family.
TEST(CsfProperties, MttkrpAllModesMatchDenseOracle) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeCsfCase(seed, size);
  };
  auto pred = [](const CsfCase& c, std::string* msg) {
    for (int mode = 0; mode < 3; ++mode) {
      const Matrix got = Mttkrp(c.x, c.factors, mode);
      const Matrix want = OracleMttkrp(c.x, c.factors, mode);
      const double err = RelMaxDiff(got, want);
      if (err > 1e-12) {
        *msg = StrFormat("CSF mode %d vs dense %.3e (nnz=%zu, %zux%zux%zu)",
                         mode, err, c.x.nnz(), c.x.dim(0), c.x.dim(1),
                         c.x.dim(2));
        return false;
      }
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 32;
  PropReport report = Prop::Check<CsfCase>(
      "csf-mttkrp-vs-dense", 48, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// The scalar and native kernel builds must return the same bytes for
// the dense products, at 1/2/8 threads (the vectorized build only
// vectorizes across independent output elements, never within a
// per-element reduction chain — DESIGN.md §12).
TEST(CsfProperties, SimdOffVsNativeBitIdenticalAtManyThreads) {
  struct SimdGuard {
    ~SimdGuard() {
      SetGlobalThreads(1);
      SetSimdMode(ResolveSimdMode(std::getenv("TCSS_SIMD")));
    }
  };
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeKernelCase(seed, size);
  };
  auto pred = [](const KernelCase& c, std::string* msg) {
    SimdGuard guard;
    for (int threads : {1, 2, 8}) {
      SetGlobalThreads(threads);
      SetSimdMode(SimdMode::kScalar);
      const Matrix mm = MatMul(c.a, c.b);
      const Matrix mtm = MatTMul(c.a, c.c);
      const Matrix gram = Gram(c.a);
      SetSimdMode(SimdMode::kNative);
      if (MaxAbsDiff(MatMul(c.a, c.b), mm) != 0.0 ||
          MaxAbsDiff(MatTMul(c.a, c.c), mtm) != 0.0 ||
          MaxAbsDiff(Gram(c.a), gram) != 0.0) {
        *msg = StrFormat("dense kernel scalar != native at %d threads",
                         threads);
        return false;
      }
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 48;
  PropReport report = Prop::Check<KernelCase>(
      "simd-off-vs-native-bitwise", 24, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// ---------------------------------------------------------------------------
// Central-difference gradient checks for every registered loss term
// ---------------------------------------------------------------------------

double GradCheckTolerance() { return 2e-5; }

TEST(GradientCheck, RewrittenLoss) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeLossCase(seed, size);
  };
  auto pred = [](const LossCase& c, std::string* msg) {
    RewrittenLoss loss(c.w_pos, c.w_neg);
    FactorGrads analytic(c.model);
    loss.ComputeWithGrads(c.model, c.x, &analytic);
    FactorGrads fd = CentralDifferenceGrads(
        [&](const FactorModel& m) {
          RewrittenLoss f(c.w_pos, c.w_neg);
          return f.Compute(m, c.x);
        },
        c.model, 1e-5);
    const double err = RelMaxDiff(analytic, fd);
    if (err > GradCheckTolerance()) {
      *msg = StrFormat("rewritten grad vs FD err %.3e", err);
      return false;
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 6;
  PropReport report =
      Prop::Check<LossCase>("rewritten-grad-fd", 30, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(GradientCheck, NaiveLoss) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeLossCase(seed, size);
  };
  auto pred = [](const LossCase& c, std::string* msg) {
    NaiveLoss loss(c.w_pos, c.w_neg);
    FactorGrads analytic(c.model);
    loss.ComputeWithGrads(c.model, c.x, &analytic);
    FactorGrads fd = CentralDifferenceGrads(
        [&](const FactorModel& m) {
          NaiveLoss f(c.w_pos, c.w_neg);
          return f.Compute(m, c.x);
        },
        c.model, 1e-5);
    const double err = RelMaxDiff(analytic, fd);
    if (err > GradCheckTolerance()) {
      *msg = StrFormat("naive grad vs FD err %.3e", err);
      return false;
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 5;
  PropReport report =
      Prop::Check<LossCase>("naive-grad-fd", 20, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// The sampled loss is only differentiable with the sampler frozen:
// pinning sampler_state before every evaluation makes each call draw the
// identical negative set, so central differences see a smooth function.
TEST(GradientCheck, NegativeSamplingLossWithPinnedSampler) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeLossCase(seed, size);
  };
  auto pred = [](const LossCase& c, std::string* msg) {
    NegativeSamplingLoss loss(c.w_pos, c.w_neg, /*seed=*/0x5eed);
    FactorGrads analytic(c.model);
    loss.set_sampler_state(7);
    loss.ComputeWithGrads(c.model, c.x, &analytic);
    FactorGrads fd = CentralDifferenceGrads(
        [&loss, &c](const FactorModel& m) {
          loss.set_sampler_state(7);
          return loss.Compute(m, c.x);
        },
        c.model, 1e-5);
    const double err = RelMaxDiff(analytic, fd);
    if (err > GradCheckTolerance()) {
      *msg = StrFormat("negative-sampling grad vs FD err %.3e", err);
      return false;
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 6;
  PropReport report = Prop::Check<LossCase>("negative-sampling-grad-fd", 20,
                                            gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

struct HausdorffCase {
  LbsnCase lbsn;
  FactorModel model;
  TcssConfig config;
};

HausdorffCase MakeHausdorffCase(uint64_t seed, uint32_t size) {
  Rng rng(seed);
  HausdorffCase c;
  c.lbsn = GenLbsnCase(&rng, size);
  const size_t rank = GenRank(&rng, size);
  c.model = GenInteriorFactorModel(&rng, c.lbsn.train.dim_i(),
                                   c.lbsn.train.dim_j(),
                                   c.lbsn.train.dim_k(), rank);
  c.config.seed = seed ^ 0x4a05dull;
  c.config.use_location_entropy = true;
  c.config.alpha = rng.Bernoulli(0.5) ? -1.0 : -2.0;
  // Mix the paper-exact full pool with capped subsampled pools.
  c.config.hausdorff_pool = rng.Bernoulli(0.5) ? 0 : 1 + rng.UniformInt(8);
  c.config.max_friend_pois = rng.Bernoulli(0.5) ? 0 : 1 + rng.UniformInt(8);
  return c;
}

std::vector<uint32_t> EligibleUsers(const SocialHausdorffLoss& loss,
                                    size_t num_users) {
  std::vector<uint32_t> out;
  for (uint32_t u = 0; u < num_users; ++u) {
    if (!loss.candidate_pool(u).empty() && !loss.friend_pois(u).empty()) {
      out.push_back(u);
    }
  }
  return out;
}

TEST(GradientCheck, SocialHausdorffLossWithEntropyWeights) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeHausdorffCase(seed, size);
  };
  size_t nonvacuous = 0;
  auto pred = [&nonvacuous](const HausdorffCase& c, std::string* msg) {
    SocialHausdorffLoss loss(c.lbsn.data, c.lbsn.train, c.config);
    const std::vector<uint32_t> eligible =
        EligibleUsers(loss, c.lbsn.data.num_users());
    if (eligible.empty()) return true;  // vacuous case
    ++nonvacuous;
    // Check up to two eligible users (FD costs #params evaluations each).
    for (size_t n = 0; n < std::min<size_t>(2, eligible.size()); ++n) {
      const uint32_t user = eligible[n];
      FactorGrads analytic(c.model);
      loss.ComputeForUser(c.model, user, &analytic, /*grad_scale=*/1.0);
      FactorGrads fd = CentralDifferenceGrads(
          [&loss, user](const FactorModel& m) {
            return loss.ComputeForUser(m, user, nullptr, 0.0);
          },
          c.model, 1e-5);
      const double err = RelMaxDiff(analytic, fd);
      if (err > 5e-4) {
        *msg = StrFormat("hausdorff grad vs FD err %.3e for user %u", err,
                         user);
        return false;
      }
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 7;
  PropReport report = Prop::Check<HausdorffCase>("hausdorff-grad-fd", 20,
                                                 gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
  // Guard against a vacuous pass: the generator must produce users with
  // both a candidate pool and friend POIs in a healthy share of cases.
  EXPECT_GE(nonvacuous, 5u);
}

// ---------------------------------------------------------------------------
// Social Hausdorff value vs brute force
// ---------------------------------------------------------------------------

TEST(DifferentialHausdorff, MatchesBruteForcePerUserAndInFull) {
  auto gen = [](uint64_t seed, uint32_t size) {
    return MakeHausdorffCase(seed, size);
  };
  size_t checked_users = 0;
  auto pred = [&checked_users](const HausdorffCase& c, std::string* msg) {
    SocialHausdorffLoss loss(c.lbsn.data, c.lbsn.train, c.config);
    const std::vector<uint32_t> eligible =
        EligibleUsers(loss, c.lbsn.data.num_users());
    checked_users += eligible.size();
    double sum = 0.0;
    for (uint32_t user : eligible) {
      const double got = loss.ComputeForUser(c.model, user, nullptr, 0.0);
      const double want = OracleHausdorffUser(loss, c.lbsn.data, c.model,
                                              user);
      // The optimized path caches distances as floats; the oracle uses
      // double haversine throughout, hence the loose tolerance.
      const double err = RelDiff(got, want);
      if (err > 1e-4) {
        *msg = StrFormat("user %u: impl %.12g vs brute force %.12g "
                         "(err %.3e, alpha=%g)",
                         user, got, want, err, c.config.alpha);
        return false;
      }
      sum += got;
    }
    if (RelDiff(loss.ComputeFull(c.model), sum) > 1e-12) {
      *msg = "ComputeFull != sum of ComputeForUser";
      return false;
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 10;
  PropReport report = Prop::Check<HausdorffCase>("hausdorff-vs-brute-force",
                                                 40, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_GE(checked_users, 20u);  // vacuity guard
}

// ---------------------------------------------------------------------------
// Metamorphic laws
// ---------------------------------------------------------------------------

// Relabeling users/POIs/time bins (and permuting the matching factor rows)
// must not change the loss, and must permute the gradient rows the same
// way. Catches any hidden dependence on index order (cursors, shard
// boundaries, coalescing).
TEST(Metamorphic, LossPermutationEquivariance) {
  struct Case {
    LossCase base;
    int mode = 0;
    std::vector<uint32_t> perm;  // perm[old] = new
  };
  auto gen = [](uint64_t seed, uint32_t size) {
    Rng rng(seed);
    Case c;
    c.base = MakeLossCase(rng.Next(), size);
    c.mode = static_cast<int>(rng.UniformInt(3));
    const size_t n = c.base.x.dim(c.mode);
    c.perm.resize(n);
    for (size_t i = 0; i < n; ++i) c.perm[i] = static_cast<uint32_t>(i);
    rng.Shuffle(&c.perm);
    return c;
  };
  auto pred = [](const Case& c, std::string* msg) {
    const LossCase& b = c.base;
    // Permuted tensor: coordinates of the chosen mode are relabeled.
    SparseTensor px(b.x.dim_i(), b.x.dim_j(), b.x.dim_k());
    for (const TensorEntry& e : b.x.entries()) {
      uint32_t idx[3] = {e.i, e.j, e.k};
      idx[c.mode] = c.perm[idx[c.mode]];
      (void)px.Add(idx[0], idx[1], idx[2], e.value);
    }
    // Entries are already coalesced, so re-finalizing only re-sorts; keep
    // real values intact by finalizing non-binary.
    (void)px.Finalize(/*binary=*/false);
    // Permuted model: row perm[i] of the permuted factor = row i.
    FactorModel pm = b.model;
    const Matrix* sources[3] = {&b.model.u1, &b.model.u2, &b.model.u3};
    Matrix* targets[3] = {&pm.u1, &pm.u2, &pm.u3};
    for (size_t i = 0; i < c.perm.size(); ++i) {
      for (size_t t = 0; t < b.model.rank(); ++t) {
        (*targets[c.mode])(c.perm[i], t) = (*sources[c.mode])(i, t);
      }
    }

    RewrittenLoss loss(b.w_pos, b.w_neg);
    FactorGrads g(b.model), pg(pm);
    const double v = loss.ComputeWithGrads(b.model, b.x, &g);
    const double pv = loss.ComputeWithGrads(pm, px, &pg);
    if (RelDiff(v, pv) > 1e-11) {
      *msg = StrFormat("mode %d permutation changed the loss: %.17g vs "
                       "%.17g",
                       c.mode, v, pv);
      return false;
    }
    // Gradient rows of the permuted mode are relabeled; others unchanged.
    const Matrix* got[3] = {&pg.u1, &pg.u2, &pg.u3};
    const Matrix* want[3] = {&g.u1, &g.u2, &g.u3};
    for (int m = 0; m < 3; ++m) {
      for (size_t i = 0; i < want[m]->rows(); ++i) {
        const size_t pi = (m == c.mode) ? c.perm[i] : i;
        for (size_t t = 0; t < b.model.rank(); ++t) {
          if (RelDiff((*got[m])(pi, t), (*want[m])(i, t)) > 1e-11) {
            *msg = StrFormat("grad mode %d row %zu not equivariant", m, i);
            return false;
          }
        }
      }
    }
    for (size_t t = 0; t < b.model.rank(); ++t) {
      if (RelDiff(pg.h[t], g.h[t]) > 1e-11) {
        *msg = "h gradient not permutation invariant";
        return false;
      }
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 9;
  PropReport report =
      Prop::Check<Case>("loss-permutation-equivariance", 60, gen, pred,
                        opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// Scaling every tensor value and h by the same power of two scales the
// loss by c^2 (factor gradients by c^2, h gradients by c) — exactly, since
// power-of-two scaling is lossless in floating point.
TEST(Metamorphic, LossValueScalingHomogeneity) {
  struct Case {
    LossCase base;
    double c = 2.0;
  };
  auto gen = [](uint64_t seed, uint32_t size) {
    Rng rng(seed);
    Case c;
    c.base = MakeLossCase(rng.Next(), size, /*force_real=*/true);
    const double choices[3] = {0.5, 2.0, 4.0};
    c.c = choices[rng.UniformInt(3)];
    return c;
  };
  auto pred = [](const Case& cse, std::string* msg) {
    const LossCase& b = cse.base;
    const double c = cse.c;
    SparseTensor sx(b.x.dim_i(), b.x.dim_j(), b.x.dim_k());
    for (const TensorEntry& e : b.x.entries()) {
      (void)sx.Add(e.i, e.j, e.k, e.value * c);
    }
    (void)sx.Finalize(/*binary=*/false);
    FactorModel sm = b.model;
    for (double& h : sm.h) h *= c;

    for (const bool rewritten : {true, false}) {
      std::unique_ptr<WholeDataLoss> loss, sloss;
      if (rewritten) {
        loss = std::make_unique<RewrittenLoss>(b.w_pos, b.w_neg);
        sloss = std::make_unique<RewrittenLoss>(b.w_pos, b.w_neg);
      } else {
        loss = std::make_unique<NaiveLoss>(b.w_pos, b.w_neg);
        sloss = std::make_unique<NaiveLoss>(b.w_pos, b.w_neg);
      }
      FactorGrads g(b.model), sg(sm);
      const double v = loss->ComputeWithGrads(b.model, b.x, &g);
      const double sv = sloss->ComputeWithGrads(sm, sx, &sg);
      if (sv != c * c * v) {
        *msg = StrFormat("%s: loss(c*X, c*h) = %.17g != c^2 * %.17g",
                         rewritten ? "rewritten" : "naive", sv, v);
        return false;
      }
      FactorGrads expect(b.model);
      expect.AddAndZero(&g);
      expect.u1.Scale(c * c);
      expect.u2.Scale(c * c);
      expect.u3.Scale(c * c);
      for (double& h : expect.h) h *= c;
      if (RelMaxDiff(sg, expect) != 0.0) {
        *msg = StrFormat("%s: gradients not exactly homogeneous",
                         rewritten ? "rewritten" : "naive");
        return false;
      }
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 8;
  PropReport report = Prop::Check<Case>("loss-scaling-homogeneity", 40, gen,
                                        pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// ---------------------------------------------------------------------------
// Fold-in vs dense-grid oracle, and the reproduction law
// ---------------------------------------------------------------------------

TEST(DifferentialFoldIn, MatchesDenseGridOracleAndReproducesItsRow) {
  struct Case {
    FactorModel model;
    std::vector<TensorCell> obs;
    FoldInOptions opts;
    uint32_t user = 0;
  };
  auto gen = [](uint64_t seed, uint32_t size) {
    Rng rng(seed);
    Case c;
    const size_t dim_i = 1 + rng.UniformInt(size);
    const size_t dim_j = 1 + rng.UniformInt(size);
    const size_t dim_k = 1 + rng.UniformInt(std::min<uint32_t>(size, 6));
    const size_t rank = GenRank(&rng, size);
    c.model = GenFactorModel(&rng, dim_i, dim_j, dim_k, rank);
    c.user = static_cast<uint32_t>(rng.UniformInt(dim_i));
    c.opts.w_pos = rng.Uniform(0.5, 1.0);
    c.opts.w_neg = rng.Uniform(0.01, 0.5);
    // A solid ridge keeps the normal equations well-conditioned, so the
    // two solvers (Gram-rewritten vs dense-grid LHS) agree tightly.
    c.opts.ridge = 1e-2;
    // Distinct observed (j, k) cells (the serving path dedupes cells too).
    const size_t grid = dim_j * dim_k;
    const size_t num_obs = rng.UniformInt(std::min<size_t>(grid, 8) + 1);
    for (size_t flat : rng.SampleWithoutReplacement(grid, num_obs)) {
      c.obs.push_back({c.user, static_cast<uint32_t>(flat / dim_k),
                       static_cast<uint32_t>(flat % dim_k)});
    }
    return c;
  };
  auto pred = [](const Case& c, std::string* msg) {
    Result<std::vector<double>> got = FoldInUser(c.model, c.obs, c.opts);
    Result<std::vector<double>> want = OracleFoldIn(c.model, c.obs, c.opts);
    if (got.ok() != want.ok()) {
      *msg = "FoldInUser and oracle disagree on solvability";
      return false;
    }
    if (!got.ok()) return true;
    for (size_t t = 0; t < c.model.rank(); ++t) {
      const double err = RelDiff(got.value()[t], want.value()[t]);
      if (err > 1e-7) {
        *msg = StrFormat("fold-in embedding[%zu]: %.12g vs oracle %.12g "
                         "(err %.3e)",
                         t, got.value()[t], want.value()[t], err);
        return false;
      }
    }
    // Reproduction law: a user whose factor row already is the ridge
    // solution for its observations is reproduced — fold-in is a pure
    // function of (U2, U3, h, obs), and scoring through the embedding
    // equals the model's own prediction.
    FactorModel trained = c.model;
    for (size_t t = 0; t < trained.rank(); ++t) {
      trained.u1(c.user, t) = got.value()[t];
    }
    Result<std::vector<double>> again =
        FoldInUser(trained, c.obs, c.opts);
    if (!again.ok() || again.value() != got.value()) {
      *msg = "re-fold-in of the trained row did not reproduce it";
      return false;
    }
    for (uint32_t j = 0; j < trained.u2.rows(); ++j) {
      for (uint32_t k = 0; k < trained.u3.rows(); ++k) {
        if (trained.Predict(c.user, j, k) !=
            FoldInScore(trained, got.value(), j, k)) {
          *msg = StrFormat("Predict != FoldInScore at (%u, %u)", j, k);
          return false;
        }
      }
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 10;
  PropReport report =
      Prop::Check<Case>("fold-in-vs-dense-grid", 60, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// ---------------------------------------------------------------------------
// Top-k recommendation vs full-sort oracle
// ---------------------------------------------------------------------------

/// Scores quantized to quarters so ties are everywhere — the interesting
/// part of top-k selection.
class QuantizedRecommender : public Recommender {
 public:
  explicit QuantizedRecommender(const FactorModel* model) : model_(model) {}
  std::string name() const override { return "quantized"; }
  Status Fit(const TrainContext&) override { return Status::OK(); }
  double Score(uint32_t i, uint32_t j, uint32_t k) const override {
    return std::floor(model_->Predict(i, j, k) * 4.0) / 4.0;
  }

 private:
  const FactorModel* model_;
};

TEST(DifferentialTopK, MatchesFullSortOracle) {
  struct Case {
    SparseTensor train;
    FactorModel model;
    TopKOptions opts;
    uint32_t user = 0, time_bin = 0;
    bool null_train = false;
  };
  auto gen = [](uint64_t seed, uint32_t size) {
    Rng rng(seed);
    Case c;
    GenTensorOptions topts;
    topts.allow_empty_modes = false;  // need a valid user/time index
    c.train = GenSparseTensor(&rng, size, topts);
    const size_t rank = GenRank(&rng, size);
    c.model = GenFactorModel(&rng, c.train.dim_i(), c.train.dim_j(),
                             c.train.dim_k(), rank);
    c.user = static_cast<uint32_t>(rng.UniformInt(c.train.dim_i()));
    c.time_bin = static_cast<uint32_t>(rng.UniformInt(c.train.dim_k()));
    const size_t num_pois = c.train.dim_j();
    c.opts.k = rng.UniformInt(num_pois + 3);
    c.opts.exclude_visited = rng.Bernoulli(0.4);
    c.null_train = c.opts.exclude_visited && rng.Bernoulli(0.25);
    if (rng.Bernoulli(0.5)) {
      // Candidate lists with duplicates and out-of-range ids; sometimes
      // every candidate is out of range (the all-excluded case).
      const bool all_invalid = rng.Bernoulli(0.2);
      const size_t len = rng.UniformInt(2 * num_pois + 2);
      for (size_t n = 0; n < len; ++n) {
        const uint32_t j = static_cast<uint32_t>(
            all_invalid ? num_pois + rng.UniformInt(5)
                        : rng.UniformInt(num_pois + 3));
        c.opts.candidates.push_back(j);
      }
      if (c.opts.candidates.empty()) {
        // An empty list means "all POIs"; force at least one entry so
        // this branch really tests candidate filtering.
        c.opts.candidates.push_back(
            static_cast<uint32_t>(rng.UniformInt(num_pois)));
      }
    }
    if (rng.Bernoulli(0.3)) {
      // A user with no entries, when the tensor has one: nothing to
      // exclude.
      std::vector<uint8_t> has_entries(c.train.dim_i(), 0);
      for (const TensorEntry& e : c.train.entries()) has_entries[e.i] = 1;
      std::vector<uint32_t> idle;
      for (uint32_t i = 0; i < has_entries.size(); ++i) {
        if (!has_entries[i]) idle.push_back(i);
      }
      if (!idle.empty()) c.user = idle[rng.UniformInt(idle.size())];
    }
    return c;
  };
  auto pred = [](const Case& c, std::string* msg) {
    QuantizedRecommender rec(&c.model);
    const SparseTensor* train = c.null_train ? nullptr : &c.train;
    const std::vector<Recommendation> got = TopKRecommendations(
        rec, c.user, c.time_bin, c.train.dim_j(), c.opts, train);
    const std::vector<Recommendation> want = OracleTopK(
        rec, c.user, c.time_bin, c.train.dim_j(), c.opts, train);
    if (got.size() != want.size()) {
      *msg = StrFormat("top-k size %zu vs oracle %zu (k=%zu, J=%zu)",
                       got.size(), want.size(), c.opts.k, c.train.dim_j());
      return false;
    }
    for (size_t n = 0; n < got.size(); ++n) {
      if (got[n].poi != want[n].poi || got[n].score != want[n].score) {
        *msg = StrFormat("top-k[%zu] = (%u, %.12g) vs oracle (%u, %.12g)",
                         n, got[n].poi, got[n].score, want[n].poi,
                         want[n].score);
        return false;
      }
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 16;
  PropReport report =
      Prop::Check<Case>("top-k-vs-full-sort", 80, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// ---------------------------------------------------------------------------
// Streaming properties (DESIGN.md §14)
// ---------------------------------------------------------------------------

// The seeded drift-stream generator: sound events, reproducible from the
// seed, and actually drifting — the early and late POI histograms must
// differ when the popular window shifts, otherwise the chronological
// evaluation in stream_test would be measuring nothing.
TEST(StreamProperties, DriftStreamGeneratorIsSoundReproducibleAndDrifting) {
  auto gen = [](uint64_t seed, uint32_t size) {
    DriftStreamConfig cfg;
    cfg.seed = seed;
    cfg.num_users = 5 + size;
    cfg.num_pois = 20 + 2 * size;
    cfg.num_events = 400 + 20 * size;
    return cfg;
  };
  auto pred = [](const DriftStreamConfig& cfg, std::string* msg) {
    auto a = GenerateDriftStream(cfg);
    auto b = GenerateDriftStream(cfg);
    if (!a.ok() || !b.ok()) {
      *msg = "generator failed on a valid config";
      return false;
    }
    const auto& ea = a.value().checkins();
    const auto& eb = b.value().checkins();
    if (ea.size() != cfg.num_events || ea.size() != eb.size()) {
      *msg = StrFormat("event count %zu (twin %zu) != %zu", ea.size(),
                       eb.size(), cfg.num_events);
      return false;
    }
    const int64_t start = FromCivil(cfg.year, 1, 1);
    const int64_t end = FromCivil(cfg.year + 1, 1, 1);
    std::vector<double> early(cfg.num_pois, 0.0), late(cfg.num_pois, 0.0);
    for (size_t e = 0; e < ea.size(); ++e) {
      if (ea[e].user != eb[e].user || ea[e].poi != eb[e].poi ||
          ea[e].timestamp != eb[e].timestamp) {
        *msg = StrFormat("event %zu differs between same-seed runs", e);
        return false;
      }
      if (ea[e].user >= cfg.num_users || ea[e].poi >= cfg.num_pois ||
          ea[e].timestamp < start || ea[e].timestamp >= end) {
        *msg = StrFormat("event %zu out of bounds (u=%u j=%u ts=%lld)", e,
                         ea[e].user, ea[e].poi,
                         static_cast<long long>(ea[e].timestamp));
        return false;
      }
      if (4 * e < ea.size()) early[ea[e].poi] += 1.0;
      if (4 * e >= 3 * ea.size()) late[ea[e].poi] += 1.0;
    }
    double tv = 0.0, ne = 0.0, nl = 0.0;
    for (double v : early) ne += v;
    for (double v : late) nl += v;
    for (size_t j = 0; j < cfg.num_pois; ++j) {
      tv += std::abs(early[j] / ne - late[j] / nl);
    }
    tv *= 0.5;
    if (tv < 0.05) {
      *msg = StrFormat("no drift: early/late TV distance %.4f", tv);
      return false;
    }
    // The chronological split partitions the stream at a clean instant.
    ChronoSplit split = ChronologicalSplit(ea, 0.7);
    if (split.before.size() + split.after.size() != ea.size()) {
      *msg = "chronological split lost events";
      return false;
    }
    for (const auto& ev : split.before) {
      if (ev.timestamp >= split.cutoff_ts) {
        *msg = "before-side event at or after the cutoff";
        return false;
      }
    }
    for (const auto& ev : split.after) {
      if (ev.timestamp < split.cutoff_ts) {
        *msg = "after-side event before the cutoff";
        return false;
      }
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 16;
  PropReport report = Prop::Check<DriftStreamConfig>(
      "drift-stream-soundness", 12, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

// Metamorphic batching law: delivering the same check-ins as one batch or
// as many batches (with snapshots, solves and queries interleaved) must
// not change anything downstream — the delta snapshot, the fold-in
// embeddings (bitwise), and the refined model bytes are all invariant to
// how the stream was chunked.
TEST(StreamProperties, OneBatchVsManyBatchesIsByteIdentical) {
  struct Case {
    DriftStreamConfig cfg;
    std::vector<CheckInEvent> extra;
    size_t chunks = 1;
  };
  auto gen = [](uint64_t seed, uint32_t size) {
    Case c;
    c.cfg.seed = seed;
    c.cfg.num_users = 6 + size / 2;
    c.cfg.num_pois = 8 + size;
    c.cfg.num_events = 60 + 5 * size;
    Rng rng(seed ^ 0xABCDEF);
    const int64_t start = FromCivil(c.cfg.year, 1, 1);
    const size_t n = 10 + 3 * size;
    for (size_t e = 0; e < n; ++e) {
      c.extra.push_back(
          {static_cast<uint32_t>(rng.UniformInt(c.cfg.num_users)),
           static_cast<uint32_t>(rng.UniformInt(c.cfg.num_pois)),
           start + static_cast<int64_t>(rng.UniformInt(300 * 86400))});
    }
    c.chunks = 1 + rng.UniformInt(5);
    return c;
  };
  auto pred = [](const Case& c, std::string* msg) {
    auto data = GenerateDriftStream(c.cfg);
    if (!data.ok()) {
      *msg = "generator failed";
      return false;
    }
    const TimeGranularity g = TimeGranularity::kMonthOfYear;
    auto model = std::make_shared<const FactorModel>([&] {
      // Any valid model works for the fold-in half of the law.
      Rng mr(c.cfg.seed);
      FactorModel m;
      m.u2 = Matrix(c.cfg.num_pois, 3);
      m.u3 = Matrix(12, 3);
      for (size_t j = 0; j < m.u2.rows(); ++j) {
        for (size_t t = 0; t < 3; ++t) m.u2(j, t) = mr.Uniform();
      }
      for (size_t k = 0; k < 12; ++k) {
        for (size_t t = 0; t < 3; ++t) m.u3(k, t) = mr.Uniform();
      }
      m.h = {1.0, 0.8, 0.6};
      return m;
    }());

    // One batch.
    DeltaBuffer one(c.cfg.num_users, c.cfg.num_pois);
    IncrementalFoldIn inc_one;
    inc_one.BindModel(model, 1);
    for (const auto& ev : c.extra) {
      if (!one.Append(ev.user, ev.poi, ev.timestamp).ok()) {
        *msg = "valid event rejected";
        return false;
      }
      inc_one.Append(ev.user, ev.poi, TimeBin(ev.timestamp, g));
    }

    // Many batches, with snapshots and solves interleaved.
    DeltaBuffer many(c.cfg.num_users, c.cfg.num_pois);
    IncrementalFoldIn inc_many;
    inc_many.BindModel(model, 1);
    const size_t per = (c.extra.size() + c.chunks - 1) / c.chunks;
    for (size_t b = 0; b < c.chunks; ++b) {
      for (size_t e = b * per;
           e < std::min(c.extra.size(), (b + 1) * per); ++e) {
        const auto& ev = c.extra[e];
        if (!many.Append(ev.user, ev.poi, ev.timestamp).ok()) {
          *msg = "valid event rejected in chunked delivery";
          return false;
        }
        inc_many.Append(ev.user, ev.poi, TimeBin(ev.timestamp, g));
      }
      (void)many.Snapshot();                       // observer, not mutator
      (void)inc_many.Embedding(c.extra[0].user);   // interleaved solve
    }

    const auto sa = one.Snapshot(), sb = many.Snapshot();
    if (sa.size() != sb.size()) {
      *msg = StrFormat("snapshot sizes differ: %zu vs %zu", sa.size(),
                       sb.size());
      return false;
    }
    for (size_t e = 0; e < sa.size(); ++e) {
      if (sa[e].user != sb[e].user || sa[e].poi != sb[e].poi ||
          sa[e].timestamp != sb[e].timestamp) {
        *msg = StrFormat("snapshot event %zu differs", e);
        return false;
      }
    }
    for (uint32_t u = 0; u < c.cfg.num_users; ++u) {
      const std::vector<double>* ea = inc_one.Embedding(u);
      const std::vector<double>* eb = inc_many.Embedding(u);
      if ((ea == nullptr) != (eb == nullptr)) {
        *msg = StrFormat("user %u solvable in one chunking only", u);
        return false;
      }
      if (ea == nullptr) continue;
      for (size_t t = 0; t < ea->size(); ++t) {
        if ((*ea)[t] != (*eb)[t]) {  // bitwise, not approximate
          *msg = StrFormat("user %u embedding differs at [%zu]", u, t);
          return false;
        }
      }
    }

    // Delta-merged refinement: identical model bytes.
    std::vector<CheckInEvent> merged_a = data.value().checkins();
    for (const auto& ev : sa) merged_a.push_back(ev);
    std::vector<CheckInEvent> merged_b = data.value().checkins();
    for (const auto& ev : sb) merged_b.push_back(ev);
    auto ta = BuildCheckinTensor(data.value(), merged_a, g);
    auto tb = BuildCheckinTensor(data.value(), merged_b, g);
    if (!ta.ok() || !tb.ok()) {
      *msg = "merged tensor build failed";
      return false;
    }
    // The refinement StreamingEngine::Refine runs: a bounded TcssTrainer
    // pass over the merged tensor.
    TcssConfig rcfg;
    rcfg.rank = 3;
    rcfg.epochs = 2;
    auto ma = TcssTrainer(data.value(), ta.value(), rcfg).Train();
    auto mb = TcssTrainer(data.value(), tb.value(), rcfg).Train();
    if (!ma.ok() || !mb.ok()) {
      *msg = "refinement failed";
      return false;
    }
    if (SerializeFactorModel(ma.value()) != SerializeFactorModel(mb.value())) {
      *msg = "refined model bytes differ between chunkings";
      return false;
    }
    return true;
  };
  PropOptions opts;
  opts.max_size = 12;
  PropReport report = Prop::Check<Case>(
      "stream-batch-split-invariance", 8, gen, pred, opts);
  EXPECT_TRUE(report.ok) << report.message;
}

}  // namespace
}  // namespace tcss
