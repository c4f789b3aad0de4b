#ifndef TCSS_CORE_HAUSDORFF_LOSS_H_
#define TCSS_CORE_HAUSDORFF_LOSS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/factor_model.h"
#include "core/tcss_config.h"
#include "data/dataset.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Prediction clamp of the Hausdorff head: Xhat is treated as a
/// probability and clamped to [0, 1 - kHausdorffCapMargin) so the product
/// prod_k (1 - Xhat) stays positive. Gradients are gated to the interior.
/// Shared with the brute-force oracle (src/proptest/oracles.cc), which
/// must clamp identically.
inline constexpr double kHausdorffCapMargin = 1e-9;
/// Division guard eps of Eq 10/12 (the paper's 1e-6), shared with the
/// oracle likewise.
inline constexpr double kHausdorffEpsilon = 1e-6;
/// Lower bound on the soft-min inputs f_j (a POI exactly at a friend's
/// POI with p = 1 would otherwise yield f = 0 and blow up f^(alpha-1)).
inline constexpr double kHausdorffSoftMinFloor = 1e-6;

/// The paper's social Hausdorff distance head L1 (Eq 10-13), with
/// location-entropy weighting (Eq 11-12) and the generalized-mean soft
/// minimum M_alpha enabling backpropagation.
///
/// For each user v_i:
///   S(v_i) = candidate POIs with visit probability p_{i,j}
///            (p = 1 - prod_k (1 - Xhat_{i,j,k}), Xhat clamped to [0,1))
///   N(v_i) = POIs checked in by v_i's friends (train tensor)
///
///   d_WH = 1/(A+eps) * sum_{j in S} p_ij e_j min_{j' in N} d(j,j')
///        + 1/|N| * sum_{j' in N} e_j' M_alpha_{j in S}[ p_ij d(j,j')
///                                                + (1-p_ij) d_max ]
///
/// All gradients are computed analytically and flow through p into the
/// factor matrices and h.
///
/// The paper's S(v_i) is all J POIs; for tractability the candidate pool
/// can be bounded (own POIs + friends' POIs + uniform sample). Pool size 0
/// reproduces the paper exactly (see DESIGN.md decision #2).
class SocialHausdorffLoss {
 public:
  /// `data` and `train` must outlive the loss object; `train` must be
  /// finalized. Precomputes entropy weights, d_max, friend POI sets and
  /// candidate pools from the users' train POIs (SparseTensor::Pois).
  SocialHausdorffLoss(const Dataset& data, const SparseTensor& train,
                      const TcssConfig& config);

  /// Social Hausdorff distance of a single user (Eq 12); also accumulates
  /// grad_scale * d(d_WH)/d(params) into `grads` when non-null. Returns 0
  /// for users with empty N(v_i) or S(v_i). Runs on the KernelTable's
  /// Hausdorff kernels (DESIGN.md §12.1): the value is bitwise that of
  /// proptest::ReferenceHausdorffUser and the gradients are within 1e-12
  /// relative of its (the soft-min sweep reassociates dL/dp), both the
  /// same bytes under either table.
  double ComputeForUser(const FactorModel& model, uint32_t user,
                        FactorGrads* grads, double grad_scale) const;

  /// One epoch's contribution: evaluates a rotating minibatch of
  /// `users_per_epoch` eligible users and extrapolates to the full sum
  /// (Eq 13). Gradients are accumulated pre-scaled so that
  /// lambda * L1-full-batch is what the optimizer effectively sees.
  double ComputeWithGrads(const FactorModel& model, double lambda,
                          FactorGrads* grads);

  /// Loss value over all eligible users (no grads, no extrapolation).
  double ComputeFull(const FactorModel& model) const;

  // --- Introspection (tests, benches) -----------------------------------
  const TcssConfig& config() const { return config_; }
  size_t num_eligible_users() const { return eligible_.size(); }
  double d_max() const { return d_max_; }
  const std::vector<double>& entropy_weights() const { return e_; }
  const std::vector<uint32_t>& candidate_pool(uint32_t user) const {
    return pool_[user];
  }
  const std::vector<uint32_t>& friend_pois(uint32_t user) const {
    return friend_pois_[user];
  }
  const ShardScratch<ShardRowGrads>& shard_scratch() const {
    return scratch_;
  }

  /// Rotating-minibatch cursor over eligible users. Checkpointed and
  /// restored by the trainer so a resumed run replays the exact same
  /// minibatch sequence as an uninterrupted one.
  size_t rotation() const { return rotation_; }
  void set_rotation(size_t r) {
    rotation_ = eligible_.empty() ? 0 : r % eligible_.size();
  }

 private:
  const Dataset* data_;
  const SparseTensor* train_;
  TcssConfig config_;

  std::vector<double> e_;  ///< entropy weights e_j (all 1 if disabled)
  double d_max_ = 0.0;
  std::vector<std::vector<uint32_t>> friend_pois_;  ///< N(v_i)
  std::vector<std::vector<uint32_t>> pool_;         ///< S(v_i) candidates
  std::vector<uint32_t> eligible_;                  ///< users with N,S != {}
  size_t rotation_ = 0;  ///< minibatch cursor over eligible_

  // Geometry cache: per-user |S| x |N| haversine distances (float) and the
  // row minima, computed once at construction - POI locations are static,
  // so recomputing them every epoch would dominate training time. Falls
  // back to on-the-fly computation if the cache would exceed the budget;
  // the gauges train.hausdorff.dist_cache_on and
  // train.hausdorff.dist_cache_bytes (0 when off) report the side taken.
  bool use_cache_ = false;
  std::vector<std::vector<float>> dist_cache_;   ///< indexed by user
  std::vector<std::vector<float>> dmin_cache_;

  // The minibatch's shard buffers: made on the first call with gradients
  // and kept, at most min(shards, threads) of them; the gauge
  // train.hausdorff.scratch_bytes reports the bytes of their gradients.
  ShardScratch<ShardRowGrads> scratch_;
};

/// The |S| x |N| distance block of one user: dist[a * |N| + b] =
/// float(HaversineKm(S[a], N[b])) and dmin[a] = float(min(d_max,
/// min_b HaversineKm(S[a], N[b]))), bit for bit. The KernelTable's
/// hausdorff_distances computes each pair in chord form from the POIs'
/// unit vectors and keeps it where a proven margin shows that its float
/// is HaversineKm's; the pairs it lists are computed by HaversineKm. A
/// friend POI that is also a candidate computes only the pairs past its
/// own column: the pairs before it are mirrors of pairs computed, and a
/// POI against itself is +0.0 (DESIGN.md §12.1). Of the two counters,
/// train.hausdorff.distance_pairs counts the pairs the block delivers
/// (|S| |N| per call) and train.hausdorff.exact_pairs the HaversineKm
/// calls. The one routine behind both sides of the distance-cache budget:
/// the cache fill at construction and the on-the-fly path of
/// ComputeForUser.
void HausdorffDistanceBlock(const Dataset& data,
                            const std::vector<uint32_t>& s_set,
                            const std::vector<uint32_t>& n_set, double d_max,
                            float* dist, float* dmin);

}  // namespace tcss

#endif  // TCSS_CORE_HAUSDORFF_LOSS_H_
