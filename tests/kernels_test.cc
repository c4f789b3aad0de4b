// Kernel-dispatch suite (label "kernels"): the TCSS_SIMD dispatch seam,
// bitwise equivalence of the scalar and native kernel builds across
// thread counts, the CSF MTTKRP across thread counts, the mirrored Gram,
// the CSF entry kernel of RewrittenLoss (against a per-entry reference),
// the social Hausdorff kernels (each table entry scalar == native,
// bitwise; ComputeForUser against the scalar reference it replaced: the
// value bitwise, gradients within 1e-12 relative), the chord-form
// distance block (scalar == native, and
// HausdorffDistanceBlock == float(HaversineKm) over 1M pairs, both
// bitwise), the exact top-k scan's f32 panel kernel (scalar == native,
// bitwise), and spectral init (each column of the block Gram apply ==
// the single-vector reference, and InitializeFactors bytes invariant to
// the table and the thread count). tools/check.sh runs this suite in the
// plain stage under both TCSS_SIMD=off and TCSS_SIMD=native, and again
// under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/hausdorff_loss.h"
#include "core/spectral_init.h"
#include "core/whole_data_loss.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/tensor_builder.h"
#include "data/time_binning.h"
#include "geo/haversine.h"
#include "linalg/kernel_table.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "obs/metrics.h"
#include "proptest/oracles.h"
#include "tensor/gram_operator.h"
#include "tensor/mttkrp.h"
#include "tensor/sparse_tensor.h"

namespace tcss {
namespace {

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

bool BitIdentical(const FactorGrads& a, const FactorGrads& b) {
  return a.h == b.h && BitIdentical(a.u1, b.u1) && BitIdentical(a.u2, b.u2) &&
         BitIdentical(a.u3, b.u3);
}

double RelMaxDiff(const Matrix& a, const Matrix& b) {
  double err = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a.data()[i] - b.data()[i]);
    const double scale = std::max(1.0, std::fabs(b.data()[i]));
    err = std::max(err, d / scale);
  }
  return err;
}

/// RAII: restore threads and the env-resolved SIMD mode when a test ends.
struct KernelGuard {
  ~KernelGuard() {
    SetGlobalThreads(1);
    SetSimdMode(ResolveSimdMode(std::getenv("TCSS_SIMD")));
  }
};

SparseTensor RandomTensor(size_t I, size_t J, size_t K, size_t nnz,
                          uint64_t seed, bool binary = false) {
  Rng rng(seed);
  SparseTensor x(I, J, K);
  for (size_t e = 0; e < nnz; ++e) {
    (void)x.Add(static_cast<uint32_t>(rng.UniformInt(I)),
                static_cast<uint32_t>(rng.UniformInt(J)),
                static_cast<uint32_t>(rng.UniformInt(K)),
                rng.Uniform(0.1, 2.0));
  }
  EXPECT_TRUE(x.Finalize(binary).ok());
  return x;
}

FactorModel RandomModel(size_t I, size_t J, size_t K, size_t r,
                        uint64_t seed) {
  Rng rng(seed);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(I, r, &rng, 0.3);
  m.u2 = Matrix::GaussianRandom(J, r, &rng, 0.3);
  m.u3 = Matrix::GaussianRandom(K, r, &rng, 0.3);
  m.h.resize(r);
  for (double& h : m.h) h = rng.Uniform(0.5, 1.5);
  return m;
}

// --------------------------------------------------------------------------
// Dispatch guard: the dispatcher must never silently fall back to scalar
// when the vectorized build is compiled in and the CPU supports it.
// --------------------------------------------------------------------------

TEST(SimdDispatchTest, NativeNeverSilentlyFallsBackWhenAvailable) {
  if (!SimdNativeCompiledIn()) {
    GTEST_SKIP() << "vectorized kernel build not compiled in "
                 << "(toolchain lacks -fopenmp-simd, or coverage build)";
  }
  if (!SimdNativeSupportedByCpu()) {
    GTEST_SKIP() << "CPU lacks the compiled ISA (AVX2)";
  }
  // With the native build available, both the explicit request and the
  // unset default must resolve to kNative — resolving to kScalar here is
  // exactly the silent fallback this guard exists to catch.
  EXPECT_EQ(ResolveSimdMode("native"), SimdMode::kNative);
  EXPECT_EQ(ResolveSimdMode(nullptr), SimdMode::kNative);
  EXPECT_EQ(ResolveSimdMode(""), SimdMode::kNative);
}

TEST(SimdDispatchTest, ExplicitModesResolveAsDocumented) {
  EXPECT_EQ(ResolveSimdMode("off"), SimdMode::kScalar);
  EXPECT_EQ(ResolveSimdMode("scalar"), SimdMode::kScalar);
  // Unknown values warn and resolve like unset.
  EXPECT_EQ(ResolveSimdMode("bogus"), ResolveSimdMode(nullptr));
  EXPECT_STREQ(SimdModeName(SimdMode::kScalar), "scalar");
  EXPECT_STREQ(SimdModeName(SimdMode::kNative), "native");
}

TEST(SimdDispatchTest, SetSimdModeSelectsTable) {
  KernelGuard guard;
  SetSimdMode(SimdMode::kScalar);
  EXPECT_EQ(&ActiveKernels(), &ScalarKernelTable());
  SetSimdMode(SimdMode::kNative);
  EXPECT_EQ(&ActiveKernels(), &NativeKernelTable());
}

// --------------------------------------------------------------------------
// Scalar vs native: bitwise-identical kernels at 1/2/8 threads
// --------------------------------------------------------------------------

TEST(KernelEquivalenceTest, DenseKernelsBitIdenticalScalarVsNative) {
  KernelGuard guard;
  Rng rng(41);
  // Shapes straddle kKc = 64 tiling and the 4-way k-block remainders.
  // The tall-skinny ones (many rows, 1-17 columns) are subspace
  // iteration's q^T A q and A q W and the L2 head's rank-r products:
  // every width below, at and just past one 16-column tile, so the
  // masked partial-width tiles meet a tall input. n = 16, 32 and 48 end
  // in an exactly 16-wide tile, the unmasked instance, with odd row
  // counts so the one-row tile runs too; 300 x 130 x 14 reads its
  // unpacked b across three k tiles.
  const size_t shapes[][3] = {
      {1, 1, 1},      {3, 5, 7},      {64, 64, 64},   {65, 67, 33},
      {200, 130, 17}, {1000, 14, 14}, {777, 10, 10},  {513, 13, 1},
      {640, 15, 17},  {301, 17, 13},  {1200, 1, 14},  {901, 14, 15},
      {161, 71, 16},  {99, 33, 32},   {67, 129, 48},  {300, 130, 14}};
  for (const auto& s : shapes) {
    const Matrix a = Matrix::GaussianRandom(s[0], s[1], &rng);
    const Matrix b = Matrix::GaussianRandom(s[1], s[2], &rng);
    const Matrix c = Matrix::GaussianRandom(s[0], s[2], &rng);
    for (int threads : {1, 2, 8}) {
      SetGlobalThreads(threads);
      SetSimdMode(SimdMode::kScalar);
      const Matrix mm_s = MatMul(a, b);
      const Matrix mtm_s = MatTMul(a, c);
      const Matrix gram_s = Gram(a);
      SetSimdMode(SimdMode::kNative);
      EXPECT_TRUE(BitIdentical(mm_s, MatMul(a, b)))
          << s[0] << "x" << s[1] << "x" << s[2] << " @" << threads;
      EXPECT_TRUE(BitIdentical(mtm_s, MatTMul(a, c)))
          << s[0] << "x" << s[1] << "x" << s[2] << " @" << threads;
      EXPECT_TRUE(BitIdentical(gram_s, Gram(a)))
          << s[0] << "x" << s[1] << "x" << s[2] << " @" << threads;
    }
  }
}

/// The ranks of the entry loop's tests: every register panel width and
/// tail below 16 lanes, one full panel, and two and three panels.
constexpr size_t kEntryRanks[] = {1, 2, 3, 4, 5, 7, 10, 16, 17, 33};

TEST(KernelEquivalenceTest, RewrittenLossBitIdenticalScalarVsNative) {
  KernelGuard guard;
  const SparseTensor x = RandomTensor(25, 20, 8, 1500, 21);
  for (size_t r : kEntryRanks) {
    const FactorModel m = RandomModel(25, 20, 8, r, 22 + r);
    RewrittenLoss loss(0.95, 0.05);
    for (int threads : {1, 2, 8}) {
      SetGlobalThreads(threads);
      SetSimdMode(SimdMode::kScalar);
      FactorGrads gs(m);
      const double ls = loss.ComputeWithGrads(m, x, &gs);
      SetSimdMode(SimdMode::kNative);
      FactorGrads gn(m);
      const double ln = loss.ComputeWithGrads(m, x, &gn);
      EXPECT_EQ(ls, ln) << "r=" << r << " @" << threads;
      EXPECT_TRUE(BitIdentical(gs, gn)) << "r=" << r << " @" << threads;
    }
  }
}

// --------------------------------------------------------------------------
// CSF MTTKRP: thread-count invariance
// --------------------------------------------------------------------------

TEST(CsfKernelsTest, MttkrpThreadCountInvariantPerMode) {
  KernelGuard guard;
  const SparseTensor x = RandomTensor(50, 40, 12, 4000, 5);
  Rng rng(6);
  const size_t r = 8;
  Matrix factors[3] = {Matrix::GaussianRandom(50, r, &rng),
                       Matrix::GaussianRandom(40, r, &rng),
                       Matrix::GaussianRandom(12, r, &rng)};
  for (int mode = 0; mode < 3; ++mode) {
    SetGlobalThreads(1);
    const Matrix serial = Mttkrp(x, factors, mode);
    for (int threads : {2, 8}) {
      SetGlobalThreads(threads);
      EXPECT_TRUE(BitIdentical(serial, Mttkrp(x, factors, mode)))
          << "mode " << mode << " @" << threads;
    }
  }
}

// --------------------------------------------------------------------------
// Satellite regression: mirrored Gram stays bitwise-equal to the full
// rectangle it replaced, and exactly symmetric.
// --------------------------------------------------------------------------

TEST(GramMirrorTest, EqualsFullRectangleBitwise) {
  KernelGuard guard;
  Rng rng(31);
  const std::pair<size_t, size_t> shapes[] = {
      {7, 3}, {200, 32}, {65, 64}, {1, 5}};
  for (const auto& shape : shapes) {
    const Matrix a =
        Matrix::GaussianRandom(shape.first, shape.second, &rng);
    for (int threads : {1, 2, 8}) {
      SetGlobalThreads(threads);
      const Matrix g = Gram(a);
      const Matrix full = MatTMul(a, a);
      EXPECT_TRUE(BitIdentical(g, full))
          << shape.first << "x" << shape.second << " @" << threads;
      for (size_t i = 0; i < g.rows(); ++i) {
        for (size_t j = 0; j < i; ++j) {
          ASSERT_EQ(g(i, j), g(j, i)) << i << "," << j;
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// The CSF entry kernel over SparseTensor::csf() matches a direct
// per-entry reference, value and gradients.
// --------------------------------------------------------------------------

TEST(RewrittenCsfTest, EntryLossMatchesPerEntryReference) {
  KernelGuard guard;
  const SparseTensor x = RandomTensor(12, 10, 6, 200, 35);
  const FactorModel m = RandomModel(12, 10, 6, 4, 36);
  const double wp = 0.93, wn = 0.07;
  const CsfView v = x.csf();
  const double got = ActiveKernels().csf_rewritten_entries(
      v, m.u1.data(), m.u2.data(), m.u3.data(), m.h.data(), m.rank(), wp,
      wn, nullptr, nullptr, nullptr, nullptr, 0, v.num_slices);
  double want = 0.0;
  for (const TensorEntry& e : x.entries()) {
    const double y = m.Predict(e.i, e.j, e.k);
    want += (wp - wn) * y * y - 2.0 * wp * e.value * y +
            wp * e.value * e.value;
  }
  EXPECT_NEAR(got, want, 1e-10 * std::max(1.0, std::fabs(want)));
}

FactorGrads NoisyGrads(const FactorModel& m, uint64_t seed) {
  Rng rng(seed);
  FactorGrads g(m);
  g.u1 = Matrix::GaussianRandom(m.u1.rows(), m.u1.cols(), &rng, 0.1);
  g.u2 = Matrix::GaussianRandom(m.u2.rows(), m.u2.cols(), &rng, 0.1);
  g.u3 = Matrix::GaussianRandom(m.u3.rows(), m.u3.cols(), &rng, 0.1);
  for (double& v : g.h) v = rng.Uniform(-0.1, 0.1);
  return g;
}

/// Byte equality: unlike ==, it tells -0.0 from +0.0 and NaN from NaN.
template <typename T>
bool SameBytes(const T* a, const T* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

bool SameBytes(const FactorGrads& a, const FactorGrads& b) {
  return a.h.size() == b.h.size() &&
         SameBytes(a.h.data(), b.h.data(), a.h.size()) &&
         a.u1.size() == b.u1.size() &&
         SameBytes(a.u1.data(), b.u1.data(), a.u1.size()) &&
         a.u2.size() == b.u2.size() &&
         SameBytes(a.u2.data(), b.u2.data(), a.u2.size()) &&
         a.u3.size() == b.u3.size() &&
         SameBytes(a.u3.data(), b.u3.data(), a.u3.size());
}

TEST(RewrittenCsfTest, GradsMatchCooEntryLoop) {
  KernelGuard guard;
  const SparseTensor x = RandomTensor(14, 11, 7, 300, 37);
  const double wp = 0.9, wn = 0.1;
  const CsfView v = x.csf();
  const size_t mid = v.num_slices / 2;
  for (size_t r : kEntryRanks) {
    const FactorModel m = RandomModel(14, 11, 7, r, 38 + r);
    // Pre-filled gradients: the kernel adds to what the rows it keeps in
    // registers held before the call.
    const FactorGrads start = NoisyGrads(m, 39 + r);
    auto entries = [&](FactorGrads* g, size_t s_begin, size_t s_end) {
      return ActiveKernels().csf_rewritten_entries(
          v, m.u1.data(), m.u2.data(), m.u3.data(), m.h.data(), m.rank(), wp,
          wn, g->u1.data(), g->u2.data(), g->u3.data(), g->h.data(), s_begin,
          s_end);
    };
    FactorGrads got = start;
    const double loss = entries(&got, 0, v.num_slices);
    // Two shards in a row continue every chain: the same bytes.
    FactorGrads split = start;
    const double loss_split =
        entries(&split, 0, mid) + entries(&split, mid, v.num_slices);
    EXPECT_TRUE(SameBytes(got, split)) << "r=" << r;
    EXPECT_NEAR(loss, loss_split, 1e-12 * std::fabs(loss)) << "r=" << r;
    const double value = ActiveKernels().csf_rewritten_entries(
        v, m.u1.data(), m.u2.data(), m.u3.data(), m.h.data(), m.rank(), wp,
        wn, nullptr, nullptr, nullptr, nullptr, 0, v.num_slices);
    EXPECT_TRUE(SameBytes(&value, &loss, 1)) << "r=" << r;
    FactorGrads want = start;
    for (const TensorEntry& e : x.entries()) {
      const double y = m.Predict(e.i, e.j, e.k);
      const double g = 2.0 * (wp - wn) * y - 2.0 * wp * e.value;
      AccumulateEntryGrad(m, e.i, e.j, e.k, g, &want);
    }
    EXPECT_LE(RelMaxDiff(got.u1, want.u1), 1e-12) << "r=" << r;
    EXPECT_LE(RelMaxDiff(got.u2, want.u2), 1e-12) << "r=" << r;
    EXPECT_LE(RelMaxDiff(got.u3, want.u3), 1e-12) << "r=" << r;
    for (size_t t = 0; t < m.h.size(); ++t) {
      EXPECT_NEAR(got.h[t], want.h[t],
                  1e-12 * std::max(1.0, std::fabs(want.h[t])))
          << "r=" << r;
    }
  }
}

// --------------------------------------------------------------------------
// Social Hausdorff kernels: every KernelTable entry scalar == native, bit
// for bit, and ComputeForUser against proptest::ReferenceHausdorffUser (the
// scalar body the kernels replaced): the value bit for bit, the four
// gradient blocks within 1e-12 relative (the fused soft-min sweep
// reassociates dL/dp).
// --------------------------------------------------------------------------

/// RelMaxDiff over the four blocks.
double RelMaxDiff(const FactorGrads& a, const FactorGrads& b) {
  const Matrix ha = Matrix::FromRows({a.h});
  const Matrix hb = Matrix::FromRows({b.h});
  return std::max({RelMaxDiff(a.u1, b.u1), RelMaxDiff(a.u2, b.u2),
                   RelMaxDiff(a.u3, b.u3), RelMaxDiff(ha, hb)});
}

/// A small LBSN: `pois` POIs around four cities, six users who are all
/// friends, 30 check-ins each spread over the twelve month bins. At 40
/// POIs there are enough distinct POIs that pools of 17 candidates and 17
/// friend (or own) POIs fill exactly; 200 POIs fill a pool past the
/// default 160.
struct HausdorffWorld {
  Dataset data;
  SparseTensor train;
};

HausdorffWorld MakeHausdorffWorld(uint64_t seed, size_t pois = 40) {
  Rng rng(seed);
  const size_t users = 6;
  SocialGraph social(users);
  for (uint32_t u = 0; u < users; ++u) {
    for (uint32_t v = u + 1; v < users; ++v) {
      EXPECT_TRUE(social.AddEdge(u, v).ok());
    }
  }
  EXPECT_TRUE(social.Finalize().ok());
  const GeoPoint cities[4] = {
      {40.7, -74.0}, {51.5, -0.1}, {35.7, 139.7}, {-33.9, 151.2}};
  std::vector<Poi> locations;
  for (size_t j = 0; j < pois; ++j) {
    const GeoPoint& c = cities[j % 4];
    locations.push_back({{c.lat + rng.Uniform(-0.2, 0.2),
                          c.lon + rng.Uniform(-0.2, 0.2)},
                         PoiCategory::kFood});
  }
  HausdorffWorld w{Dataset(users, locations, std::move(social)),
                   SparseTensor(users, pois, 12)};
  for (uint32_t u = 0; u < users; ++u) {
    for (int c = 0; c < 30; ++c) {
      const uint32_t j = static_cast<uint32_t>(rng.UniformInt(pois));
      const int month = 1 + static_cast<int>(rng.UniformInt(12));
      EXPECT_TRUE(w.data.AddCheckIn(u, j, FromCivil(2011, month, 3)).ok());
    }
  }
  for (const auto& c : w.data.checkins()) {
    EXPECT_TRUE(w.train
                    .Add(c.user, c.poi,
                         TimeBin(c.timestamp, TimeGranularity::kMonthOfYear))
                    .ok());
  }
  EXPECT_TRUE(w.train.Finalize().ok());
  return w;
}

/// Gaussian factors wide enough that predictions clamp at 0 and at
/// 1 - kHausdorffCapMargin as well as landing in between.
FactorModel WideModel(const SparseTensor& x, size_t r, uint64_t seed) {
  Rng rng(seed);
  FactorModel m;
  m.u1 = Matrix::GaussianRandom(x.dim_i(), r, &rng, 0.9);
  m.u2 = Matrix::GaussianRandom(x.dim_j(), r, &rng, 0.9);
  m.u3 = Matrix::GaussianRandom(x.dim_k(), r, &rng, 0.9);
  m.h.resize(r);
  for (double& h : m.h) h = rng.Uniform(0.5, 1.5);
  return m;
}

/// Pins every prediction of (user, poi) above the cap, so p = 1 exactly
/// and, with poi also in N(user), the pair (poi, poi) has f at the floor.
void Saturate(FactorModel* m, uint32_t user, uint32_t poi) {
  for (size_t t = 0; t < m->rank(); ++t) {
    m->h[t] = 1.0;
    m->u1(user, t) = 1.0;
    m->u2(poi, t) = 2.0;
  }
  for (size_t k = 0; k < m->u3.rows(); ++k) {
    for (size_t t = 0; t < m->rank(); ++t) m->u3(k, t) = 1.0;
  }
}

TEST(HausdorffKernelTest, ComputeForUserMatchesScalarReference) {
  KernelGuard guard;
  const HausdorffWorld w = MakeHausdorffWorld(91);
  const HausdorffWorld wide = MakeHausdorffWorld(92, 200);
  // Ranks 1..16 take the register-resident scatter (one to four lanes
  // groups of r); 17 takes the generic one. |S| = 170 runs the soft-min
  // strip from the heap, past ComputeForUser's stack buffer.
  const size_t ranks[] = {1, 3, 4, 10, 13, 16, 17};
  size_t cases = 0, users = 0, floored = 0;
  size_t low = 0, high = 0, interior = 0;
  double worst = 0.0;
  auto check = [&](const HausdorffWorld& world, size_t ns, size_t nn,
                   int variant) {
    TcssConfig cfg;
    cfg.seed = 1000 + cases;
    cfg.hausdorff_pool = ns;
    cfg.max_friend_pois = nn;
    cfg.alpha = (variant & 1) ? -0.5 : -1.0;
    cfg.use_location_entropy = (variant & 2) != 0;
    cfg.hausdorff =
        (variant & 4) ? HausdorffMode::kSelf : HausdorffMode::kSocial;
    const size_t r = ranks[cases % 7];
    ++cases;
    SocialHausdorffLoss loss(world.data, world.train, cfg);
    FactorModel model = WideModel(world.train, r, cases);
    // Saturate one POI of user 0 that is in both S and N.
    for (uint32_t j : loss.friend_pois(0)) {
      const auto& pool = loss.candidate_pool(0);
      if (std::find(pool.begin(), pool.end(), j) != pool.end()) {
        Saturate(&model, 0, j);
        ++floored;
        break;
      }
    }
    for (uint32_t u = 0; u < world.data.num_users(); ++u) {
      ASSERT_EQ(loss.candidate_pool(u).size(), ns);
      ASSERT_EQ(loss.friend_pois(u).size(), nn) << "user " << u;
      for (uint32_t j : loss.candidate_pool(u)) {
        for (uint32_t k = 0; k < 12; ++k) {
          const double y = model.Predict(u, j, k);
          low += y <= 0.0;
          high += y >= 1.0 - kHausdorffCapMargin;
          interior += y > 0.0 && y < 1.0 - kHausdorffCapMargin;
        }
      }
      const std::string what = StrFormat(
          "|S|=%zu |N|=%zu r=%zu alpha=%g entropy=%d self=%d user=%u", ns,
          nn, r, cfg.alpha, cfg.use_location_entropy ? 1 : 0,
          (variant & 4) ? 1 : 0, u);
      const double want_value = proptest::ReferenceHausdorffUser(
          loss, world.data, model, u, nullptr, 0.0);
      const FactorGrads start = NoisyGrads(model, cases * 31 + u);
      FactorGrads want = start;
      const double want_with_grads = proptest::ReferenceHausdorffUser(
          loss, world.data, model, u, &want, 0.7);
      std::vector<FactorGrads> got;
      for (SimdMode mode : {SimdMode::kScalar, SimdMode::kNative}) {
        SetSimdMode(mode);
        const double got_value = loss.ComputeForUser(model, u, nullptr, 0.0);
        got.push_back(start);
        const double got_with_grads =
            loss.ComputeForUser(model, u, &got.back(), 0.7);
        EXPECT_TRUE(SameBytes(&got_value, &want_value, 1))
            << what << " " << SimdModeName(mode) << ": " << got_value
            << " vs " << want_value;
        EXPECT_TRUE(SameBytes(&got_with_grads, &want_with_grads, 1))
            << what << " " << SimdModeName(mode);
        const double err = RelMaxDiff(got.back(), want);
        worst = std::max(worst, err);
        EXPECT_LE(err, 1e-12) << what << " " << SimdModeName(mode);
      }
      EXPECT_TRUE(SameBytes(got[0], got[1])) << what << " scalar vs native";
      ++users;
    }
  };
  const size_t sizes[] = {1, 3, 5, 17};
  for (size_t ns : sizes) {
    for (size_t nn : sizes) {
      for (int variant = 0; variant < 8; ++variant) check(w, ns, nn, variant);
    }
  }
  for (size_t nn : {size_t{2}, size_t{17}}) {
    for (int variant = 0; variant < 8; ++variant) {
      check(wide, 170, nn, variant);
    }
  }
  EXPECT_EQ(users, cases * w.data.num_users());
  // Vacuity guards: both clamps, the interior and the soft-min floor ran,
  // and the gradients are not all bitwise the reference's.
  EXPECT_GT(low, 0u);
  EXPECT_GT(high, 0u);
  EXPECT_GT(interior, 0u);
  EXPECT_GT(floored, cases / 2);
  EXPECT_GT(worst, 0.0);
}

/// Random inputs for one call of each Hausdorff table entry.
struct HausdorffKernelCase {
  size_t ns, nn, K, r;
  double alpha;
  std::vector<double> hu, u1, u2, u3, h, coef, dl_dp;
  std::vector<uint32_t> pois;
  std::vector<float> dist;
};

HausdorffKernelCase MakeKernelCase(uint64_t seed) {
  Rng rng(seed);
  HausdorffKernelCase c;
  // Every |N| mod 4; |S| = 163 is past ComputeForUser's stack strip.
  const size_t shapes[] = {1, 2, 3, 4, 5, 7, 16, 17, 33, 163};
  c.ns = shapes[rng.UniformInt(10)];
  c.nn = shapes[rng.UniformInt(9)];
  c.K = 1 + rng.UniformInt(13);
  c.r = 1 + rng.UniformInt(20);
  c.alpha = rng.Bernoulli(0.5) ? -1.0 : -0.5;
  const size_t J = c.ns + 3;
  auto fill = [&rng](std::vector<double>* v, size_t n, double lo, double hi) {
    v->resize(n);
    for (double& x : *v) x = rng.Uniform(lo, hi);
  };
  fill(&c.hu, c.r, -1.0, 1.5);
  fill(&c.u1, c.r, -1.0, 1.0);
  fill(&c.u2, J * c.r, -1.0, 1.0);
  fill(&c.u3, c.K * c.r, -1.0, 1.0);
  fill(&c.h, c.r, 0.5, 1.5);
  fill(&c.coef, c.nn, 0.0, 0.1);
  fill(&c.dl_dp, HausdorffLanes(c.ns), -1.0, 1.0);
  for (size_t a = 0; a < c.ns; ++a) {
    if (rng.Bernoulli(0.1)) c.dl_dp[a] = 0.0;  // skipped candidates
  }
  c.pois.resize(c.ns);
  for (size_t a = 0; a < c.ns; ++a) c.pois[a] = static_cast<uint32_t>(a + 3);
  c.dist.resize(c.ns * c.nn);
  for (float& d : c.dist) d = rng.Bernoulli(0.1) ? 0.0f : rng.Uniform(0, 90);
  if (rng.Bernoulli(0.3)) {
    // Candidate 0 (p = 1 below) at distance 0 from every friend POI: all
    // its pairs sit on the floor.
    std::fill(c.dist.begin(), c.dist.begin() + c.nn, 0.0f);
    c.dl_dp[0] = -0.0;
  }
  return c;
}

/// Whether candidate 0 (p = 1 in RunHausdorffKernels) has a pair on the
/// soft-min floor.
bool HasFlooredPair(const HausdorffKernelCase& c) {
  return std::find(c.dist.begin(), c.dist.begin() + c.nn, 0.0f) !=
         c.dist.begin() + c.nn;
}

/// Runs every Hausdorff entry of `kt` on `c` and returns the outputs
/// concatenated as bytes (the padding lanes are the caller's scratch and
/// are left out).
std::string RunHausdorffKernels(const KernelTable& kt,
                                const HausdorffKernelCase& c) {
  const size_t lanes = HausdorffLanes(c.ns);
  std::vector<double> p(lanes), dp_dy(lanes * c.K), work(4 * (c.r + c.K));
  std::vector<uint8_t> gate(lanes * c.K);
  kt.hausdorff_predict(c.hu.data(), c.u2.data(), c.pois.data(), c.ns,
                       c.u3.data(), c.K, c.r, 1.0 - kHausdorffCapMargin,
                       p.data(), dp_dy.data(), gate.data(), work.data());
  // A saturated candidate (p = 1) puts pairs at distance 0 on the floor.
  p[0] = 1.0;
  // The soft-min sweep value only, then with dL/dp: the sums must agree.
  const double inv_ns = 1.0 / static_cast<double>(c.ns);
  std::vector<double> s(c.nn), s_grads(c.nn), strip(8 * c.ns);
  kt.hausdorff_softmin(p.data(), c.dist.data(), c.ns, c.nn, 100.0,
                       kHausdorffSoftMinFloor, c.alpha, c.coef.data(), inv_ns,
                       s.data(), nullptr, nullptr);
  std::vector<double> dl_dp = c.dl_dp;
  kt.hausdorff_softmin(p.data(), c.dist.data(), c.ns, c.nn, 100.0,
                       kHausdorffSoftMinFloor, c.alpha, c.coef.data(), inv_ns,
                       s_grads.data(), dl_dp.data(), strip.data());
  EXPECT_TRUE(SameBytes(s.data(), s_grads.data(), c.nn))
      << kt.name << ": the sums depend on dl_dp";
  std::vector<double> gu1(c.r, 0.25), gu2(c.u2.size(), -0.5),
      gu3(c.u3.size(), 0.125), gh(c.r, -0.0);
  kt.hausdorff_scatter(c.u1.data(), c.u2.data(), c.u3.data(), c.h.data(),
                       c.r, c.pois.data(), c.ns, c.K, c.dl_dp.data(),
                       dp_dy.data(), gate.data(), 0.3, gu1.data(), gu2.data(),
                       gu3.data(), gh.data());
  std::string out;
  auto append = [&out](const void* data, size_t bytes) {
    out.append(static_cast<const char*>(data), bytes);
  };
  append(p.data(), c.ns * sizeof(double));
  for (size_t a = 0; a < c.ns; ++a) {
    for (size_t k = 0; k < c.K; ++k) {
      append(&dp_dy[HausdorffCell(a, k, c.K)], sizeof(double));
      append(&gate[HausdorffCell(a, k, c.K)], 1);
    }
  }
  append(s.data(), s.size() * sizeof(double));
  append(dl_dp.data(), c.ns * sizeof(double));
  append(gu1.data(), gu1.size() * sizeof(double));
  append(gu2.data(), gu2.size() * sizeof(double));
  append(gu3.data(), gu3.size() * sizeof(double));
  append(gh.data(), gh.size() * sizeof(double));
  return out;
}

TEST(HausdorffKernelTest, TableEntriesBitIdenticalScalarVsNative) {
  KernelGuard guard;
  const size_t kCases = 64;
  std::vector<HausdorffKernelCase> cases;
  for (size_t i = 0; i < kCases; ++i) cases.push_back(MakeKernelCase(500 + i));
  // Vacuity guards for the soft-min sweep: every |N| mod 4, both alphas, a
  // floored pair, and |S| past the stack strip.
  std::vector<size_t> residues(4, 0);
  size_t harmonic = 0, floored = 0, wide = 0;
  for (const HausdorffKernelCase& c : cases) {
    ++residues[c.nn % 4];
    harmonic += c.alpha == -1.0;
    floored += HasFlooredPair(c);
    wide += c.ns > 160;
  }
  for (size_t n : residues) EXPECT_GT(n, 0u);
  EXPECT_GT(harmonic, 0u);
  EXPECT_LT(harmonic, kCases);
  EXPECT_GT(floored, 0u);
  EXPECT_GT(wide, 0u);
  for (int threads : {1, 2, 8}) {
    SetGlobalThreads(threads);
    std::vector<uint8_t> same(kCases, 0);
    ParallelFor(kCases, 1, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        same[i] = RunHausdorffKernels(ScalarKernelTable(), cases[i]) ==
                  RunHausdorffKernels(NativeKernelTable(), cases[i]);
      }
    });
    for (size_t i = 0; i < kCases; ++i) {
      const HausdorffKernelCase& c = cases[i];
      EXPECT_TRUE(same[i]) << "case " << i << ": ns=" << c.ns
                           << " nn=" << c.nn << " K=" << c.K << " r=" << c.r
                           << " alpha=" << c.alpha << " @" << threads;
    }
  }
}

// The chord-form distance block: the table entry scalar == native, and
// HausdorffDistanceBlock == float(HaversineKm) under both tables.
// --------------------------------------------------------------------------

/// Unit vectors of `pts` as hausdorff_distances reads them (x, then y,
/// then z): NaN for a point outside [-90, 90] x [-180, 180], as
/// HausdorffDistanceBlock fills them, and for every `nan_every`-th point.
std::vector<double> UnitVectors(const std::vector<GeoPoint>& pts,
                                size_t nan_every) {
  const size_t n = pts.size();
  std::vector<double> v(3 * n, std::nan(""));
  for (size_t i = 0; i < n; ++i) {
    const GeoPoint& p = pts[i];
    if (!(p.lat >= -90.0 && p.lat <= 90.0 && p.lon >= -180.0 &&
          p.lon <= 180.0)) {
      continue;
    }
    const double lat = DegToRad(p.lat);
    const double lon = DegToRad(p.lon);
    v[i] = std::cos(lat) * std::cos(lon);
    v[n + i] = std::cos(lat) * std::sin(lon);
    v[2 * n + i] = std::sin(lat);
    if (nan_every != 0 && i % nan_every == nan_every - 1) v[i] = std::nan("");
  }
  return v;
}

/// `n` points: a city cluster (±0.5°) with exact duplicates, a few
/// sub-metre neighbours and, every ninth point, a far one (s >= 0.5).
std::vector<GeoPoint> KernelPoints(size_t n, Rng* rng) {
  std::vector<GeoPoint> pts;
  for (size_t i = 0; i < n; ++i) {
    if (i % 9 == 8) {
      pts.push_back({rng->Uniform(-60.0, -20.0), rng->Uniform(100.0, 160.0)});
    } else if (i % 7 == 6 && !pts.empty()) {
      pts.push_back(pts[rng->UniformInt(pts.size())]);
    } else if (i % 5 == 4 && !pts.empty()) {
      const GeoPoint& q = pts.back();
      pts.push_back({q.lat + rng->Uniform(-4e-6, 4e-6),
                     q.lon + rng->Uniform(-4e-6, 4e-6)});
    } else {
      pts.push_back({48.9 + rng->Uniform(-0.5, 0.5),
                     2.35 + rng->Uniform(-0.5, 0.5)});
    }
  }
  return pts;
}

TEST(HausdorffKernelTest, DistancesBitIdenticalScalarVsNative) {
  const size_t sizes[] = {1, 3, 4, 5, 17};
  std::vector<std::pair<size_t, size_t>> shapes = {{160, 96}};
  for (size_t ns : sizes) {
    for (size_t nn : sizes) shapes.emplace_back(ns, nn);
  }
  Rng rng(77);
  size_t kept = 0, listed = 0;
  // Vacuity guards for the rows' first columns: every residue mod 4, a
  // row that starts at its last column, and an empty row.
  std::vector<size_t> residues(4, 0);
  size_t last_only = 0, empty = 0;
  for (const auto& [ns, nn] : shapes) {
    const std::vector<double> s = UnitVectors(KernelPoints(ns, &rng), 13);
    const std::vector<double> n = UnitVectors(KernelPoints(nn, &rng), 11);
    const double two_r = 2.0 * kEarthRadiusKm;
    // Every row whole, then rows from first column 5a mod (|N| + 1).
    std::vector<uint32_t> firsts[2] = {std::vector<uint32_t>(ns, 0),
                                       std::vector<uint32_t>(ns)};
    for (size_t a = 0; a < ns; ++a) {
      const uint32_t f = static_cast<uint32_t>(5 * a % (nn + 1));
      firsts[1][a] = f;
      if (f < nn) ++residues[f % 4];
      last_only += f + 1 == nn;
      empty += f == nn;
    }
    for (const std::vector<uint32_t>& first : firsts) {
      std::vector<float> dist[2];
      std::vector<uint32_t> exact[2];
      const KernelTable* tables[2] = {&ScalarKernelTable(),
                                      &NativeKernelTable()};
      for (int t = 0; t < 2; ++t) {
        dist[t].assign(ns * nn, -7.0f);  // unwritten entries keep this
        exact[t].assign(ns * nn, 0);
        exact[t].resize(tables[t]->hausdorff_distances(
            s.data(), ns, n.data(), nn, first.data(), two_r, 1e-10, 1e-14,
            dist[t].data(), exact[t].data()));
      }
      const std::string what =
          StrFormat("|S|=%zu |N|=%zu first=%u..", ns, nn, first.back());
      EXPECT_TRUE(SameBytes(dist[0].data(), dist[1].data(), ns * nn))
          << what;
      EXPECT_EQ(exact[0], exact[1]) << what;
      EXPECT_TRUE(std::is_sorted(exact[0].begin(), exact[0].end())) << what;
      for (uint32_t e : exact[0]) {
        EXPECT_EQ(dist[0][e], -7.0f) << what;
        EXPECT_GE(e % nn, first[e / nn]) << what;
      }
      size_t covered = 0;
      for (size_t a = 0; a < ns; ++a) {
        covered += nn - first[a];
        for (size_t b = 0; b < first[a]; ++b) {
          EXPECT_EQ(dist[0][a * nn + b], -7.0f) << what << " pair " << a;
        }
      }
      listed += exact[0].size();
      kept += covered - exact[0].size();
    }
  }
  // Vacuity guards: both sides of the margin test ran.
  EXPECT_GT(kept, 10000u);
  EXPECT_GT(listed, 1000u);
  for (size_t r : residues) EXPECT_GT(r, 0u);
  EXPECT_GT(last_only, 0u);
  EXPECT_GT(empty, 0u);
}

TEST(HausdorffKernelTest, DistanceBlockSweepMatchesHaversineBitwise) {
  KernelGuard guard;
  Rng rng(2024);
  std::vector<GeoPoint> pts;
  // Uniform on the sphere.
  for (int i = 0; i < 300; ++i) {
    pts.push_back({std::asin(rng.Uniform(-1.0, 1.0)) * 180.0 / M_PI,
                   rng.Uniform(-180.0, 180.0)});
  }
  // Six city clusters of +-0.5 degrees, one on the antimeridian.
  const GeoPoint cities[] = {{40.7, -74.0}, {51.5, -0.1},  {35.7, 139.7},
                             {-33.9, 151.2}, {1.3, 103.8}, {-17.7, 179.6}};
  for (const GeoPoint& c : cities) {
    for (int i = 0; i < 40; ++i) {
      double lon = c.lon + rng.Uniform(-0.5, 0.5);
      if (lon > 180.0) lon -= 360.0;
      pts.push_back({c.lat + rng.Uniform(-0.5, 0.5), lon});
    }
  }
  // Groups of points under a metre apart (4e-6 degrees is ~0.45 m).
  for (int g = 0; g < 20; ++g) {
    const double lat = rng.Uniform(-80.0, 80.0);
    const double lon = rng.Uniform(-179.0, 179.0);
    for (int i = 0; i < 6; ++i) {
      pts.push_back({lat + rng.Uniform(-4e-6, 4e-6),
                     lon + rng.Uniform(-4e-6, 4e-6)});
    }
  }
  // Twins across lon +-180, and points a hair either side of it.
  for (int i = 0; i < 20; ++i) {
    const double lat = rng.Uniform(-89.0, 89.0);
    for (double lon : {180.0, -180.0, 179.9999999, -179.9999999}) {
      pts.push_back({lat, lon});
    }
  }
  // Both poles at several longitudes, and just off them.
  for (double lon : {-180.0, -97.5, 0.0, 45.0, 180.0}) {
    for (double lat : {90.0, -90.0, 89.9999999, -89.9999999}) {
      pts.push_back({lat, lon});
    }
  }
  // Near-antipodes: points, their antipodes and the antipodes nudged.
  for (int i = 0; i < 20; ++i) {
    const double lat = rng.Uniform(-89.0, 89.0);
    const double lon = rng.Uniform(-180.0, 0.0);
    pts.push_back({lat, lon});
    pts.push_back({-lat, lon + 180.0});
    pts.push_back({-lat + 1e-6, lon + 180.0 - 1e-6});
  }
  // Points outside csv_io's range and non-finite ones take HaversineKm
  // for every pair.
  pts.push_back({91.0, 10.0});
  pts.push_back({10.0, 200.0});
  pts.push_back({std::nan(""), 5.0});
  pts.push_back({5.0, INFINITY});
  // Exact duplicates of earlier points, until the sweep passes 1M pairs.
  while (pts.size() < 1040) pts.push_back(pts[rng.UniformInt(pts.size())]);

  std::vector<Poi> pois;
  for (const GeoPoint& p : pts) pois.push_back({p, PoiCategory::kFood});
  SocialGraph social(1);
  ASSERT_TRUE(social.Finalize().ok());
  const Dataset data(1, pois, std::move(social));
  std::vector<uint32_t> all(pts.size());
  for (uint32_t j = 0; j < all.size(); ++j) all[j] = j;
  // |N| = 1039 leaves a three-lane tail in each row.
  const std::vector<uint32_t> n_set(all.begin(), all.end() - 1);
  std::vector<uint32_t> shuffled = all;
  rng.Shuffle(&shuffled);
  const std::vector<uint32_t> s_small(shuffled.begin(), shuffled.begin() + 160);
  const std::vector<uint32_t> n_small(shuffled.begin() + 160,
                                      shuffled.begin() + 256);

  obs::MetricRegistry* reg = obs::MetricRegistry::Global();
  obs::Counter* pairs = reg->GetCounter("train.hausdorff.distance_pairs");
  obs::Counter* exact = reg->GetCounter("train.hausdorff.exact_pairs");
  size_t swept = 0;
  for (const auto& [s_set, nn_set] :
       {std::make_pair(all, n_set), std::make_pair(s_small, n_small)}) {
    const size_t ns = s_set.size(), nn = nn_set.size();
    // The block sends HaversineKm exactly the pairs the full kernel lists,
    // less the diagonal of each friend POI in S with a unit vector: the
    // mirror of a listed pair is listed too.
    auto unit_vectors = [&pts](const std::vector<uint32_t>& set) {
      std::vector<GeoPoint> picked;
      for (uint32_t j : set) picked.push_back(pts[j]);
      return UnitVectors(picked, 0);
    };
    const std::vector<double> su = unit_vectors(s_set);
    const std::vector<double> nu = unit_vectors(nn_set);
    const std::vector<uint32_t> from_zero(ns, 0);
    std::vector<float> full(ns * nn);
    std::vector<uint32_t> full_listed(ns * nn);
    size_t want_listed = ActiveKernels().hausdorff_distances(
        su.data(), ns, nu.data(), nn, from_zero.data(),
        2.0 * kEarthRadiusKm, 1e-10, 1e-14, full.data(), full_listed.data());
    for (size_t b = 0; b < nn; ++b) {
      const bool in_s = std::find(s_set.begin(), s_set.end(), nn_set[b]) !=
                        s_set.end();
      want_listed -= in_s && !std::isnan(nu[b]);
    }
    for (double d_max : {20000.0, 1.0}) {  // 1 km caps most row minima
      std::vector<float> want(ns * nn), want_min(ns);
      for (size_t a = 0; a < ns; ++a) {
        double best = d_max;
        for (size_t b = 0; b < nn; ++b) {
          const double d = HaversineKm(pts[s_set[a]], pts[nn_set[b]]);
          want[a * nn + b] = static_cast<float>(d);
          best = std::min(best, d);
        }
        want_min[a] = static_cast<float>(best);
      }
      for (SimdMode mode : {SimdMode::kScalar, SimdMode::kNative}) {
        SetSimdMode(mode);
        std::vector<float> dist(ns * nn), dmin(ns);
        const uint64_t pairs_before = pairs->Value();
        const uint64_t exact_before = exact->Value();
        HausdorffDistanceBlock(data, s_set, nn_set, d_max, dist.data(),
                               dmin.data());
        EXPECT_EQ(pairs->Value() - pairs_before, ns * nn);
        // Vacuity guards: pairs were kept and pairs were listed.
        const uint64_t listed = exact->Value() - exact_before;
        EXPECT_EQ(listed, want_listed) << SimdModeName(mode);
        EXPECT_GT(listed, 0u);
        EXPECT_LT(listed, ns * nn * 9 / 10);
        for (size_t i = 0; i < ns * nn; ++i) {
          ASSERT_TRUE(SameBytes(&dist[i], &want[i], 1))
              << SimdModeName(mode) << " pair " << pts[s_set[i / nn]].lat
              << "," << pts[s_set[i / nn]].lon << " / "
              << pts[nn_set[i % nn]].lat << "," << pts[nn_set[i % nn]].lon
              << ": " << dist[i] << " vs " << want[i];
        }
        EXPECT_TRUE(SameBytes(dmin.data(), want_min.data(), ns))
            << SimdModeName(mode) << " d_max " << d_max;
        swept += ns * nn;
      }
    }
  }
  EXPECT_GE(swept, 4u * 1000000u);  // >= 1M pairs per table and d_max
}

// The exact top-k scan's f32 panel kernel: scalar and native scores are
// bitwise equal for every shape (lane-group counts around the AVX2 body's
// eight-group stride, ranks 1..40), inside ParallelFor at 1/2/8 threads.
TEST(PanelKernelTest, PanelScoresBitIdenticalScalarVsNative) {
  KernelGuard guard;
  struct PanelCase {
    size_t groups = 0;
    size_t r = 0;
    std::vector<float> panel;
    std::vector<float> q;
  };
  const size_t kCases = 48;
  std::vector<PanelCase> cases(kCases);
  Rng rng(4242);
  for (size_t i = 0; i < kCases; ++i) {
    PanelCase& c = cases[i];
    c.groups = i < 20 ? i : 1 + rng.UniformInt(70);
    c.r = 1 + rng.UniformInt(40);
    c.panel.resize(c.groups * c.r * kPanelLanes);
    c.q.resize(c.r);
    for (float& v : c.panel) v = static_cast<float>(rng.Gaussian());
    for (float& v : c.q) v = static_cast<float>(rng.Gaussian() * 3.0);
    if (i % 7 == 3 && !c.panel.empty()) c.panel[0] = 1e-40f;  // subnormal
  }
  const auto scores = [](const KernelTable& kt, const PanelCase& c) {
    std::vector<float> out(c.groups * kPanelLanes, -1.0f);
    kt.panel_scores(c.panel.data(), c.groups, c.q.data(), c.r, out.data());
    return out;
  };
  for (int threads : {1, 2, 8}) {
    SetGlobalThreads(threads);
    std::vector<uint8_t> same(kCases, 0);
    ParallelFor(kCases, 1, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        const std::vector<float> a = scores(ScalarKernelTable(), cases[i]);
        const std::vector<float> b = scores(NativeKernelTable(), cases[i]);
        same[i] = a.size() == b.size() &&
                  (a.empty() || std::memcmp(a.data(), b.data(),
                                            a.size() * sizeof(float)) == 0);
      }
    });
    for (size_t i = 0; i < kCases; ++i) {
      EXPECT_TRUE(same[i]) << "case " << i << ": groups=" << cases[i].groups
                           << " r=" << cases[i].r << " @" << threads;
    }
  }
  // Spot-check the contract itself on one lane: a mul-then-add chain in
  // ascending t from zero.
  const PanelCase& c = cases[5];
  const std::vector<float> got = scores(ActiveKernels(), c);
  float want = 0.0f;
  for (size_t t = 0; t < c.r; ++t) {
    want = want + c.panel[(2 * c.r + t) * kPanelLanes + 3] * c.q[t];
  }
  EXPECT_EQ(std::memcmp(&got[2 * kPanelLanes + 3], &want, sizeof(float)), 0);
}

// --------------------------------------------------------------------------
// Block Gram apply (spectral init): each column of ModeGramOperator's block
// Apply is bitwise the single-vector operator it replaced, under both
// kernel tables and at 1/2/8 threads.
// --------------------------------------------------------------------------

// Tensor with untouched rows in every mode (indices drawn from a prefix of
// each dimension), singleton column groups, longer groups, and negative
// values.
SparseTensor GramTensor(uint64_t seed) {
  Rng rng(seed);
  SparseTensor x(23, 19, 7);
  for (size_t e = 0; e < 160; ++e) {
    const double v = rng.Uniform(0.1, 2.0) * (rng.Bernoulli(0.2) ? -1 : 1);
    (void)x.Add(static_cast<uint32_t>(rng.UniformInt(20)),
                static_cast<uint32_t>(rng.UniformInt(16)),
                static_cast<uint32_t>(rng.UniformInt(6)), v);
  }
  EXPECT_TRUE(x.Finalize(false).ok());
  return x;
}

TEST(GramBlockApplyTest, ColumnsMatchSingleVectorReferenceBitwise) {
  KernelGuard guard;
  const SparseTensor x = GramTensor(77);
  Rng rng(78);
  for (int mode = 0; mode < 3; ++mode) {
    for (bool zero_diag : {true, false}) {
      const ModeGramOperator op(x, mode, zero_diag);
      const size_t n = op.Dim();
      for (size_t b : {1, 3, 4, 14, 17, 37}) {
        Matrix block = Matrix::GaussianRandom(n, b, &rng);
        // An all-zero column (every group's s is zero) and, when there
        // is room, a column of -0.0.
        for (size_t i = 0; i < n; ++i) block(i, b / 2) = 0.0;
        if (b > 2) {
          for (size_t i = 0; i < n; ++i) block(i, b - 1) = -0.0;
        }
        std::vector<std::vector<double>> want(b);
        for (size_t c = 0; c < b; ++c) {
          want[c] = proptest::ReferenceGramApply(op, block.Column(c));
        }
        for (SimdMode simd : {SimdMode::kScalar, SimdMode::kNative}) {
          SetSimdMode(simd);
          for (int threads : {1, 2, 8}) {
            SetGlobalThreads(threads);
            Matrix got(n, b);
            op.Apply(block, &got);
            for (size_t c = 0; c < b; ++c) {
              const std::vector<double> col = got.Column(c);
              EXPECT_EQ(std::memcmp(col.data(), want[c].data(),
                                    n * sizeof(double)),
                        0)
                  << "mode " << mode << " zero_diag " << zero_diag << " b "
                  << b << " column " << c << " " << SimdModeName(simd)
                  << " @" << threads;
            }
          }
        }
      }
    }
  }
}

// Spectral init end to end: the factors are the same bytes under either
// kernel table and at any thread count.
TEST(SpectralInitTest, FactorsBitIdenticalAcrossSimdAndThreads) {
  KernelGuard guard;
  SyntheticConfig sc =
      PresetConfig(SyntheticPreset::kGowallaLike, /*scale=*/0.3);
  auto data = GenerateSyntheticLbsn(sc);
  ASSERT_TRUE(data.ok());
  const TrainTestSplit split = SplitCheckins(data.value(), 0.8, 5);
  auto tensor = BuildCheckinTensor(data.value(), split.train,
                                   TimeGranularity::kMonthOfYear);
  ASSERT_TRUE(tensor.ok());
  TcssConfig cfg;
  FactorModel want;
  bool first = true;
  for (SimdMode simd : {SimdMode::kScalar, SimdMode::kNative}) {
    SetSimdMode(simd);
    for (int threads : {1, 2, 8}) {
      SetGlobalThreads(threads);
      auto got = InitializeFactors(tensor.value(), cfg);
      ASSERT_TRUE(got.ok());
      if (first) {
        want = got.MoveValue();
        first = false;
        continue;
      }
      EXPECT_TRUE(BitIdentical(got.value().u1, want.u1) &&
                  BitIdentical(got.value().u2, want.u2) &&
                  BitIdentical(got.value().u3, want.u3) &&
                  got.value().h == want.h)
          << SimdModeName(simd) << " @" << threads;
    }
  }
}

}  // namespace
}  // namespace tcss
