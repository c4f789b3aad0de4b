#ifndef TCSS_CORE_TCSS_CONFIG_H_
#define TCSS_CORE_TCSS_CONFIG_H_

#include <cstdint>
#include <string>

namespace tcss {

/// How the latent factors are initialized (Section IV-A / ablation).
enum class InitMethod {
  kSpectral,  ///< top-r eigenvectors of the off-diagonal mode Grams (Eq 4)
  kRandom,    ///< i.i.d. Gaussian
  kOneHot,    ///< deterministic cyclic one-hot pattern (NCF-style indexing)
};

/// Which implementation of the least-squares head L2 is used
/// (Section IV-D / Table IV).
enum class LossMode {
  kRewritten,         ///< Eq 15: O((I+J+K) r^2 + nnz r)
  kNaive,             ///< Eq 14 evaluated over all I*J*K cells
  kNegativeSampling,  ///< nnz sampled negatives per epoch (He et al. style)
};

/// Which Hausdorff regularization head L1 is used (ablation, Table II).
enum class HausdorffMode {
  kSocial,   ///< the paper's social Hausdorff loss (Eq 12)
  kSelf,     ///< N(v_i) = user's own POIs (removes the social signal)
  kZeroOut,  ///< no L1; prediction-time distance mask instead
  kNone,     ///< no L1 at all (lambda = 0)
};

const char* InitMethodName(InitMethod m);
const char* LossModeName(LossMode m);
const char* HausdorffModeName(HausdorffMode m);

/// Hyperparameters of the TCSS model. Defaults follow Section V-D of the
/// paper: w+ = 0.99, w- = 0.01, lambda = 0.1, rank 10, alpha = -1,
/// Adam lr 0.001 (the paper's epsilon = 1e-6 is the constant
/// kHausdorffEpsilon).
struct TcssConfig {
  size_t rank = 10;
  int epochs = 400;

  // Optimizer. The paper uses Adam with lr 0.001 on GPU minibatches; this
  // implementation trains full-batch (one Adam step per epoch), which
  // needs a correspondingly larger step size to converge in a comparable
  // number of passes.
  double learning_rate = 0.2;
  /// Step schedule: the learning rate is multiplied by this factor after
  /// 60% and again after 85% of the epochs (sharpens full-batch Adam).
  double lr_step_factor = 0.3;

  // Class-balancing weights of the whole-data loss (Eq 14/15). The paper
  // reports (0.99, 0.01) as optimal on its datasets; the weight sweep of
  // bench_table3/bench_fig8 on the synthetic presets peaks at
  // (0.95, 0.05), which is therefore the library default.
  double w_pos = 0.95;
  double w_neg = 0.05;

  // Social-spatial head.
  double lambda = 0.1;       ///< weight of L1 in L = lambda*L1 + L2
  double alpha = -1.0;       ///< generalized-mean exponent of the soft min
  bool use_location_entropy = true;  ///< e_j weights of Eq 12

  /// Size of the candidate pool S(v_i). 0 = all POIs (paper-exact; only
  /// viable for small J). Otherwise the pool is the user's own POIs plus
  /// N(v_i) plus a uniform sample, capped at this size.
  size_t hausdorff_pool = 160;
  /// Cap on |N(v_i)| (friends' POIs); larger sets are subsampled.
  size_t max_friend_pois = 96;
  /// Number of users whose Hausdorff term is evaluated per epoch
  /// (rotating minibatch; 0 = all users every epoch).
  size_t hausdorff_users_per_epoch = 96;

  /// Extension (off by default, not in the paper): cyclic temporal
  /// smoothness regularizer  ts * sum_k ||U3_k - U3_{k+1 mod K}||^2
  /// encouraging adjacent time bins (e.g. consecutive months) to share
  /// factors. See bench_ext_temporal for its effect.
  double temporal_smoothness = 0.0;

  // Ablation switches.
  InitMethod init = InitMethod::kSpectral;
  LossMode loss_mode = LossMode::kRewritten;
  HausdorffMode hausdorff = HausdorffMode::kSocial;

  uint64_t seed = 13;

  /// Worker threads for the parallel hot paths (losses, MTTKRP, matmuls).
  /// 0 = std::thread::hardware_concurrency(). Training output is
  /// bit-identical at any thread count (see DESIGN.md, "Deterministic
  /// parallelism").
  int num_threads = 0;

  /// Human-readable one-liner for experiment logs.
  std::string Summary() const;

  /// Sanity-checks ranges (every double must be finite); returns a
  /// message on the first problem.
  std::string Validate() const;
};

}  // namespace tcss

#endif  // TCSS_CORE_TCSS_CONFIG_H_
