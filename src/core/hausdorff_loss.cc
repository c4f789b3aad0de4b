#include "core/hausdorff_loss.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "geo/haversine.h"
#include "geo/location_entropy.h"
#include "linalg/kernel_table.h"
#include "obs/metrics.h"

namespace tcss {
namespace {

// Shorthands for the shared clamp constants declared in the header.
constexpr double kCapMargin = kHausdorffCapMargin;
constexpr double kFloorF = kHausdorffSoftMinFloor;

/// Per-thread working set of ComputeForUser, sized by Fit() and reused
/// across calls: buffers only ever grow, so steady-state training does no
/// heap allocation. Every buffer is written before it is read in a call.
struct UserScratch {
  std::vector<double> hu;       ///< h * U1[user], r
  std::vector<double> p;        ///< visit probabilities, lanes
  std::vector<double> dp_dy;    ///< lanes * K, HausdorffCell layout
  std::vector<uint8_t> gate;    ///< lanes * K, 1 = prediction unclamped
  std::vector<double> work;     ///< hausdorff_predict scratch, 4 (r + K)
  std::vector<double> s_alpha;  ///< soft-min sums, nn
  std::vector<double> coef;     ///< e_b / nn, nn
  std::vector<double> dl_dp;    ///< d(d_WH)/dp, lanes
  std::vector<float> dist;      ///< on-the-fly distance block, ns * nn
  std::vector<float> dmin;      ///< on-the-fly row minima, ns

  void Fit(size_t lanes, size_t nn, size_t K, size_t r, bool geometry) {
    Grow(&hu, r);
    Grow(&p, lanes);
    Grow(&dp_dy, lanes * K);
    Grow(&gate, lanes * K);
    Grow(&work, 4 * (r + K));
    Grow(&s_alpha, nn);
    Grow(&coef, nn);
    Grow(&dl_dp, lanes);
    if (geometry) {
      Grow(&dist, lanes * nn);
      Grow(&dmin, lanes);
    }
  }

  template <typename T>
  static void Grow(std::vector<T>* v, size_t n) {
    if (v->size() < n) v->resize(n);
  }
};

UserScratch& ThreadScratch() {
  thread_local UserScratch scratch;
  return scratch;
}

// Margin of the chord form, m = kChordAbsKm + kChordRel·d: it bounds
// |d − HaversineKm| for every pair the kernel keeps (s < 0.5, so both
// formulas see a half-chord below 0.5 + O(u)), given coordinates in
// csv_io's range, |lat| <= 90 and |lon| <= 180 degrees. u = 2^-53;
// ρ = R·u = 7.07e-13 km; libm's sin, cos and asin and the kernels' asin
// core are within one ulp (relative 2u); first-order terms only, the
// constants leave room for the rest.
//  1. DegToRad: x·π̂/180 with |π̂/π − 1| < u/2 is within 2.5u relative, so
//     both formulas read a latitude within 4u rad of the true one and the
//     chord fill a longitude within 8u rad. Moving a point by (δφ, δλ)
//     moves it at most R(|δφ| + |δλ|) on the sphere.
//  2. Chord form. Each fill coordinate (cos·cos, cos·sin, sin; 5u) puts
//     the unit vector within 5u of the exact vector of the converted
//     point P'. Differences, squares, two sums, sqrt and the halving give
//     s = s̃(1 ± 3.5u), s̃ within 5u of the exact half-chord of the P'
//     pair. asin's slope is at most 1.155 for s <= 0.5; the core adds 2u
//     and the product with 2R u: |d − D'| <= 11.6ρ + 7.1u·d. The P'
//     points are within 2·R(4u + 8u) of the true ones: |d − D| <= 35.6ρ
//     + 7.1u·d, D the exact distance.
//  3. HaversineKm reads the converted latitudes and dλ = DegToRad(λb −
//     λa), within 3.5u·2π < 22u of the true difference: it evaluates the
//     exact haversine of points within R(4u + 4u + 22u) = 30ρ of the true
//     ones. From those inputs: dφ (u), sin² (5u), cos·cos·sin·sin (11u),
//     the sum (12u), sqrt (7u), asin's slope times √h over asin(√h) <=
//     1.103 (7.7u), asin (2u) and 2R· (u): |H − D| <= 30ρ + 11.7u·D.
//  4. Together |d − H| <= 65.6ρ + 18.8u·d = 4.64e-11 km + 2.09e-15·d.
//     The kernel rounds d ∓ m once each (u·d) and m itself (2u·m), so it
//     needs kChordAbsKm > 4.7e-11 and kChordRel > 19.8u = 2.2e-15.
// Then fl(d − m) <= H <= fl(d + m), and rounding to float is monotone: if
// float(d − m) == float(d + m), float(H) is that float. It is never a
// signed zero, since d + m >= kChordAbsKm. Pairs with s >= 0.5 (d above
// ~6,670 km), NaN or d within m of a float boundary, d = 0 among them,
// take HaversineKm; points outside the range get NaN vectors, so all of
// their pairs do.
constexpr double kChordAbsKm = 1e-10;
constexpr double kChordRel = 1e-14;

/// Unit vector of `p` into x[i], x[i + stride], x[i + 2 stride]; NaN for
/// a point outside [-90, 90] x [-180, 180] (NaN and infinities included).
void FillUnitVector(const GeoPoint& p, double* x, size_t i, size_t stride) {
  if (!(p.lat >= -90.0 && p.lat <= 90.0 && p.lon >= -180.0 &&
        p.lon <= 180.0)) {
    x[i] = x[i + stride] = x[i + 2 * stride] = std::nan("");
    return;
  }
  const double lat = DegToRad(p.lat);
  const double lon = DegToRad(p.lon);
  const double c = std::cos(lat);
  x[i] = c * std::cos(lon);
  x[i + stride] = c * std::sin(lon);
  x[i + 2 * stride] = std::sin(lat);
}

/// `n` elements: `local` when they fit, else a block owned by `heap`.
template <typename T, size_t N>
T* Buffer(T (&local)[N], size_t n, std::unique_ptr<T[]>* heap) {
  if (n <= N) return local;
  heap->reset(new T[n]);
  return heap->get();
}

/// A set of POI ids in [0, J) from which the head's sorted lists are
/// read: Insert is a bit test-and-set, and Drain lists the members in
/// ascending order and empties the set. A second level of bits marks the
/// words in use, so Drain reads only those words and one summary word per
/// 4,096 POIs, never the whole J-bit set.
class PoiSet {
 public:
  explicit PoiSet(size_t num_pois)
      : words_((num_pois + 63) / 64), used_((words_.size() + 63) / 64) {}

  size_t size() const { return size_; }

  void Insert(uint32_t j) {
    // Branch-free: whether j is new is as unpredictable as the POI ids.
    const uint64_t bit = uint64_t{1} << (j & 63);
    uint64_t& word = words_[j >> 6];
    size_ += (word & bit) == 0;
    word |= bit;
    used_[j >> 12] |= uint64_t{1} << ((j >> 6) & 63);
  }

  void InsertAll(std::span<const uint32_t> pois) {
    for (const uint32_t j : pois) Insert(j);
  }

  /// Replaces *out with the members in ascending order; the set is empty
  /// after.
  void Drain(std::vector<uint32_t>* out) {
    out->clear();
    for (size_t u = 0; u < used_.size(); ++u) {
      for (uint64_t in_use = std::exchange(used_[u], 0); in_use != 0;
           in_use &= in_use - 1) {
        const size_t w = u * 64 + std::countr_zero(in_use);
        for (uint64_t bits = std::exchange(words_[w], 0); bits != 0;
             bits &= bits - 1) {
          out->push_back(static_cast<uint32_t>(w * 64) +
                         static_cast<uint32_t>(std::countr_zero(bits)));
        }
      }
    }
    size_ = 0;
  }

 private:
  std::vector<uint64_t> words_;  ///< bit j: POI j is a member
  std::vector<uint64_t> used_;   ///< bit w: words_[w] is nonzero
  size_t size_ = 0;
};

}  // namespace

void HausdorffDistanceBlock(const Dataset& data,
                            const std::vector<uint32_t>& s_set,
                            const std::vector<uint32_t>& n_set, double d_max,
                            float* dist, float* dmin) {
  const size_t ns = s_set.size();
  const size_t nn = n_set.size();
  TCSS_CHECK(ns * nn <= UINT32_MAX) << "distance block too large";
  // The call's unit vectors, row maps and pair list sit on the stack up to
  // the default pool (160) and friend-POI cap (96), larger blocks on the
  // heap. Heap buffers kept per thread or made per call moved catalog
  // peak_rss_mb by up to 4 MB either way from seed to seed (DESIGN.md
  // §12.1).
  double xyz_stack[3 * (160 + 96)];
  uint32_t map_stack[160 + 96];
  uint32_t listed_stack[160 * 96];
  std::unique_ptr<double[]> xyz_heap;
  std::unique_ptr<uint32_t[]> map_heap, listed_heap;
  double* const s_xyz = Buffer(xyz_stack, 3 * (ns + nn), &xyz_heap);
  double* const n_xyz = s_xyz + 3 * ns;
  uint32_t* const first = Buffer(map_stack, ns + nn, &map_heap);
  uint32_t* const row_of = first + ns;  // N's column -> its row in S
  uint32_t* const listed = Buffer(listed_stack, ns * nn, &listed_heap);
  constexpr uint32_t kNone = UINT32_MAX;
  for (size_t a = 0; a < ns; ++a) {
    FillUnitVector(data.poi(s_set[a]).location, s_xyz, a, ns);
    first[a] = 0;
  }
  // The pool holds the friends' POIs, so N's vectors are mostly S's:
  // copied where a merge of the two ascending lists finds them. Columns
  // [0, b0) all have rows, and with them form a symmetric block (DESIGN.md
  // §12.1): the row of column b starts at min(b + 1, b0), and the pairs
  // it leaves out are its diagonal and mirrors of pairs the kernel covers.
  size_t b0 = nn;
  for (size_t a = 0, b = 0; b < nn; ++b) {
    while (a < ns && s_set[a] < n_set[b]) ++a;
    if (a < ns && s_set[a] == n_set[b]) {
      for (size_t c = 0; c < 3; ++c) n_xyz[c * nn + b] = s_xyz[c * ns + a];
      row_of[b] = static_cast<uint32_t>(a);
      first[a] = static_cast<uint32_t>(std::min(b + 1, b0));
      ++a;
    } else {
      FillUnitVector(data.poi(n_set[b]).location, n_xyz, b, nn);
      row_of[b] = kNone;
      b0 = std::min(b0, b);
    }
  }
  const size_t covered_listed = ActiveKernels().hausdorff_distances(
      s_xyz, ns, n_xyz, nn, first, 2.0 * kEarthRadiusKm, kChordAbsKm,
      kChordRel, dist, listed);
  // HaversineKm for listed[from, to), each pair in its own orientation.
  auto exact_path = [&](size_t from, size_t to) {
    for (size_t e = from; e < to; ++e) {
      const size_t a = listed[e] / nn;
      const size_t b = listed[e] % nn;
      dist[listed[e]] = static_cast<float>(HaversineKm(
          data.poi(s_set[a]).location, data.poi(n_set[b]).location));
    }
  };
  exact_path(0, covered_listed);
  // Every covered pair is written now: mirror the left-out pairs from it,
  // write a POI in range against itself as +0.0, and list the rest: the
  // diagonal of a POI without a unit vector, and the mirror of each listed
  // pair, which HaversineKm then overwrites.
  size_t listed_count = covered_listed;
  for (size_t c = 0; c < nn; ++c) {
    const uint32_t a = row_of[c];
    if (a == kNone) continue;
    float* row = dist + a * nn;
    for (size_t b = 0; b < std::min(c, b0); ++b) {
      row[b] = dist[size_t{row_of[b]} * nn + c];
    }
    if (c >= b0) continue;  // its own column is covered
    if (std::isnan(s_xyz[a])) {
      listed[listed_count++] = static_cast<uint32_t>(a * nn + c);
    } else {
      row[c] = 0.0f;
    }
  }
  for (size_t e = 0; e < covered_listed; ++e) {
    const size_t a = listed[e] / nn;
    const size_t b = listed[e] % nn;
    // Only a row that starts one past its own column has mirrors.
    if (first[a] == 0 || row_of[first[a] - 1] != a || row_of[b] == kNone) {
      continue;
    }
    listed[listed_count++] =
        static_cast<uint32_t>(row_of[b] * nn + first[a] - 1);
  }
  exact_path(covered_listed, listed_count);
  // float(min(d_max, min_b d)) == min(float(d_max), min_b float(d)):
  // rounding is monotone and no distance is -0.0. A NaN distance never
  // wins (x < m is false, as in std::min), and the minimum of the rest
  // does not depend on the order, so eight running minima (independent
  // chains, which the compiler keeps in two vectors) give the same float.
  const float cap = static_cast<float>(d_max);
  for (size_t a = 0; a < ns; ++a) {
    const float* row = dist + a * nn;
    float m[8];
    std::fill(m, m + 8, cap);
    size_t b = 0;
    for (; b + 8 <= nn; b += 8) {
      for (size_t l = 0; l < 8; ++l) {
        m[l] = row[b + l] < m[l] ? row[b + l] : m[l];
      }
    }
    for (; b < nn; ++b) m[0] = std::min(m[0], row[b]);
    dmin[a] = *std::min_element(m, m + 8);
  }
  static obs::Counter* const pairs =
      obs::MetricRegistry::Global()->GetCounter(
          "train.hausdorff.distance_pairs");
  static obs::Counter* const exact_pairs =
      obs::MetricRegistry::Global()->GetCounter("train.hausdorff.exact_pairs");
  pairs->Add(ns * nn);
  exact_pairs->Add(listed_count);
}

SocialHausdorffLoss::SocialHausdorffLoss(const Dataset& data,
                                         const SparseTensor& train,
                                         const TcssConfig& config)
    : data_(&data), train_(&train), config_(config) {
  const size_t I = train.dim_i();
  const size_t J = train.dim_j();
  TCSS_CHECK(data.num_users() == I && data.num_pois() == J)
      << "dataset / tensor shape mismatch";

  // Entropy weights e_j = exp(-E_j), from the *train* tensor.
  if (config.use_location_entropy) {
    e_ = EntropyWeights(ComputeLocationEntropy(train));
  } else {
    e_.assign(J, 1.0);
  }

  d_max_ = MaxPairwiseDistanceKm(data.PoiLocations());
  if (d_max_ <= 0.0) d_max_ = 1.0;  // degenerate single-point geometry

  // N(v_i) and S(v_i) are read out of one POI set in ascending order and
  // stored at their exact sizes. All users share one Rng stream, in user
  // order: first the friend lists' subsampling shuffles, then the pools'
  // fill draws and shuffles.
  Rng rng(config.seed ^ 0x4a05d0u);
  PoiSet set(J);
  std::vector<uint32_t> list;
  // Keeps a uniform subset of `cap` of the ascending `list`: the first cap
  // after a shuffle, put back in ascending order.
  auto subsample = [&](size_t cap) {
    if (cap == 0 || list.size() <= cap) return;
    rng.Shuffle(&list);
    set.InsertAll(std::span<const uint32_t>(list).first(cap));
    set.Drain(&list);
  };
  // N(v_i): union of friends' train POIs (or own POIs in the Self
  // ablation), subsampled to max_friend_pois.
  friend_pois_.resize(I);
  for (uint32_t i = 0; i < I; ++i) {
    if (config_.hausdorff == HausdorffMode::kSelf) {
      set.InsertAll(train.Pois(i));
    } else {
      for (const uint32_t* f = data.social().NeighborsBegin(i);
           f != data.social().NeighborsEnd(i); ++f) {
        set.InsertAll(train.Pois(*f));
      }
    }
    set.Drain(&list);
    subsample(config_.max_friend_pois);
    friend_pois_[i].assign(list.begin(), list.end());
  }

  // S(v_i): the candidate pool.
  pool_.resize(I);
  for (uint32_t i = 0; i < I; ++i) {
    if (config_.hausdorff_pool == 0 || config_.hausdorff_pool >= J) {
      pool_[i].resize(J);
      for (uint32_t j = 0; j < J; ++j) pool_[i][j] = j;
    } else {
      set.InsertAll(train.Pois(i));
      set.InsertAll(friend_pois_[i]);
      // Fill the remainder with a uniform sample of other POIs so the loss
      // can also *suppress* far-away false positives.
      for (size_t guard = 0;
           set.size() < config_.hausdorff_pool && guard < 20 * J; ++guard) {
        set.Insert(static_cast<uint32_t>(rng.UniformInt(J)));
      }
      set.Drain(&list);
      subsample(config_.hausdorff_pool);
      pool_[i].assign(list.begin(), list.end());
    }
    if (!pool_[i].empty() && !friend_pois_[i].empty()) {
      eligible_.push_back(i);
    }
  }

  // Distance cache (see header). Budget: ~256 MB of floats.
  size_t cache_floats = 0;
  for (uint32_t i : eligible_) {
    cache_floats += pool_[i].size() * (friend_pois_[i].size() + 1);
  }
  use_cache_ = cache_floats * sizeof(float) <= (256u << 20);
  if (use_cache_) {
    dist_cache_.resize(I);
    dmin_cache_.resize(I);
    for (uint32_t i : eligible_) {
      dist_cache_[i].resize(pool_[i].size() * friend_pois_[i].size());
      dmin_cache_[i].resize(pool_[i].size());
      HausdorffDistanceBlock(data, pool_[i], friend_pois_[i], d_max_,
                             dist_cache_[i].data(), dmin_cache_[i].data());
    }
  }
  obs::MetricRegistry* reg = obs::MetricRegistry::Global();
  reg->GetGauge("train.hausdorff.dist_cache_on")->Set(use_cache_ ? 1.0 : 0.0);
  reg->GetGauge("train.hausdorff.dist_cache_bytes")
      ->Set(use_cache_ ? static_cast<double>(cache_floats * sizeof(float))
                       : 0.0);
}

double SocialHausdorffLoss::ComputeForUser(const FactorModel& model,
                                           uint32_t user, FactorGrads* grads,
                                           double grad_scale) const {
  const auto& s_set = pool_[user];
  const auto& n_set = friend_pois_[user];
  if (s_set.empty() || n_set.empty()) return 0.0;
  const size_t ns = s_set.size();
  const size_t nn = n_set.size();
  const size_t K = train_->dim_k();
  const size_t r = model.rank();
  const double alpha = config_.alpha;
  const KernelTable& kernels = ActiveKernels();
  UserScratch& w = ThreadScratch();
  w.Fit(HausdorffLanes(ns), nn, K, r, !use_cache_);

  // --- probabilities p_a and their per-bin partials dp_a/dy_{a,k} --------
  const double* u1 = model.u1.row(user);
  for (size_t t = 0; t < r; ++t) w.hu[t] = model.h[t] * u1[t];
  kernels.hausdorff_predict(w.hu.data(), model.u2.data(), s_set.data(), ns,
                            model.u3.data(), K, r, 1.0 - kCapMargin,
                            w.p.data(), w.dp_dy.data(), w.gate.data(),
                            w.work.data());
  const double* p = w.p.data();

  // --- geometry: d(j, j') and dmin_j -------------------------------------
  const float* dist = nullptr;
  const float* dmin = nullptr;
  if (use_cache_) {
    dist = dist_cache_[user].data();
    dmin = dmin_cache_[user].data();
  } else {
    HausdorffDistanceBlock(*data_, s_set, n_set, d_max_, w.dist.data(),
                           w.dmin.data());
    dist = w.dist.data();
    dmin = w.dmin.data();
  }

  // --- term 1 -------------------------------------------------------------
  double a_sum = 0.0;
  double w_sum = 0.0;
  for (size_t a = 0; a < ns; ++a) {
    a_sum += p[a];
    w_sum += p[a] * e_[s_set[a]] * dmin[a];
  }
  const double denom = a_sum + kHausdorffEpsilon;
  const double term1 = w_sum / denom;

  // --- term 2 -------------------------------------------------------------
  // f_{a,b} = p_a d(a,b) + (1 - p_a) d_max, clamped from below.
  // M_b = ((1/ns) sum_a f^alpha)^(1/alpha);  term2 = (1/nn) sum_b e_b M_b.
  // With gradients the same sweep adds dM/df_a = S^(1/alpha - 1) *
  // f^(alpha-1) / ns, weighted by e_b / nn, into dl_dp; its strip of
  // per-candidate partials sits on the stack up to the default pool (160),
  // as the distance block's buffers do (DESIGN.md §12.1).
  const double inv_ns = 1.0 / static_cast<double>(ns);
  const double inv_nn = 1.0 / static_cast<double>(nn);
  const bool harmonic = (alpha == -1.0);  // paper default; avoids pow()
  for (size_t b = 0; b < nn; ++b) w.coef[b] = inv_nn * e_[n_set[b]];
  double* dl_dp = nullptr;
  double strip_stack[8 * 160];
  std::unique_ptr<double[]> strip_heap;
  double* strip = nullptr;
  if (grads != nullptr) {
    dl_dp = w.dl_dp.data();
    std::fill(dl_dp, dl_dp + HausdorffLanes(ns), 0.0);
    strip = Buffer(strip_stack, 8 * ns, &strip_heap);
  }
  kernels.hausdorff_softmin(p, dist, ns, nn, d_max_, kFloorF, alpha,
                            w.coef.data(), inv_ns, w.s_alpha.data(), dl_dp,
                            strip);
  double term2 = 0.0;
  for (size_t b = 0; b < nn; ++b) {
    const double s_alpha = w.s_alpha[b] * inv_ns;
    const double m =
        harmonic ? 1.0 / s_alpha : std::pow(s_alpha, 1.0 / alpha);
    term2 += w.coef[b] * m;
  }
  if (grads == nullptr) return term1 + term2;

  // --- d(d_WH)/dp, chained through p -> y -> factors ----------------------
  // term1 gradient: dT1/dp_a = (e_a dmin_a - T1) / denom.
  for (size_t a = 0; a < ns; ++a) {
    dl_dp[a] += (e_[s_set[a]] * dmin[a] - term1) / denom;
  }
  kernels.hausdorff_scatter(u1, model.u2.data(), model.u3.data(),
                            model.h.data(), r, s_set.data(), ns, K, dl_dp,
                            w.dp_dy.data(), w.gate.data(), grad_scale,
                            grads->u1.row(user), grads->u2.data(),
                            grads->u3.data(), grads->h.data());
  return term1 + term2;
}

double SocialHausdorffLoss::ComputeWithGrads(const FactorModel& model,
                                             double lambda,
                                             FactorGrads* grads) {
  if (eligible_.empty() || lambda == 0.0) return 0.0;
  size_t batch = config_.hausdorff_users_per_epoch;
  if (batch == 0 || batch > eligible_.size()) batch = eligible_.size();
  const double extrapolate =
      static_cast<double>(eligible_.size()) / static_cast<double>(batch);
  const double grad_scale = lambda * extrapolate;
  // Per-user work is independent (ComputeForUser only reads caches), so
  // the batch shards through ParallelReduce; the decomposition depends
  // only on the batch size.
  // A shard buffer marks the rows its users write, the user's U1 row and
  // the U2 rows of their pool, and the merge touches only those.
  scratch_.Reshape(
      {model.u1.rows(), model.u2.rows(), model.u3.rows(), model.rank()});
  const double sum = ParallelReduce(
      batch, ReduceGrain(batch, 1), grads, &scratch_,
      [&] { return ShardRowGrads(model, /*with_u1=*/true); },
      [&](size_t begin, size_t end, size_t, auto* g) {
        double local = 0.0;
        for (size_t t = begin; t < end; ++t) {
          const uint32_t user = eligible_[(rotation_ + t) % eligible_.size()];
          local += ComputeForUser(model, user, g, grad_scale);
          if constexpr (std::is_same_v<decltype(g), ShardRowGrads*>) {
            if (g == nullptr) continue;
            g->MarkU1(user);
            for (uint32_t j : pool_[user]) g->MarkU2(j);
          }
        }
        return local;
      },
      [](ShardRowGrads* part, FactorGrads* g) { part->MergeInto(g); });
  if (grads != nullptr) {
    static obs::Gauge* const gauge = obs::MetricRegistry::Global()->GetGauge(
        "train.hausdorff.scratch_bytes");
    gauge->Set(static_cast<double>(scratch_.size() * grads->bytes()));
  }
  rotation_ = (rotation_ + batch) % eligible_.size();
  return sum * extrapolate;
}

double SocialHausdorffLoss::ComputeFull(const FactorModel& model) const {
  double sum = 0.0;
  for (uint32_t user : eligible_) {
    sum += ComputeForUser(model, user, nullptr, 0.0);
  }
  return sum;
}

}  // namespace tcss
