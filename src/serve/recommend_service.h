#ifndef TCSS_SERVE_RECOMMEND_SERVICE_H_
#define TCSS_SERVE_RECOMMEND_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ann/lsh_index.h"
#include "baselines/popularity.h"
#include "core/incremental_fold_in.h"
#include "core/recommend.h"
#include "data/dataset.h"
#include "data/time_binning.h"
#include "geo/spatial_grid.h"
#include "obs/metrics.h"
#include "serve/model_watcher.h"
#include "serve/request.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Aggregate serving statistics, exposed for health endpoints and dumped
/// to stderr by `tcss serve`.
///
/// Every count and quantile is read from the service's metric registry:
/// the serve.* / ann.* counters, and the per-tier obs::Histogram metrics
/// (serve.latency_ms.<tier>), whose sample counts are queries_by_tier and
/// whose merge gives the overall p50/p95/p99. On the default
/// process-global registry they therefore sum across every service in the
/// process — pass Options::metrics for per-service numbers — and while the
/// obs kill switch is off they stay frozen.
struct ServiceStats {
  ServeHealth health = ServeHealth::kFallback;
  uint64_t reload_successes = 0;
  uint64_t reload_rejects = 0;
  uint64_t queries_by_tier[kNumServeTiers] = {0, 0, 0};
  uint64_t deadline_degrades = 0;  ///< budget forced the popularity tier
  uint64_t invalid_requests = 0;   ///< e.g. time bin outside the granularity
  uint64_t total_queries = 0;
  uint64_t fold_in_cache_hits = 0;
  uint64_t fold_in_cache_misses = 0;
  uint64_t ann_served = 0;     ///< answered from an LSH candidate union
  uint64_t ann_fallbacks = 0;  ///< candidate union too small → exact path
  uint64_t ann_rebuilds = 0;   ///< index rebuilds (one per model generation)
  uint64_t ann_audits = 0;     ///< requests also scored by the exact scan
  uint64_t geo_fenced = 0;     ///< requests with a within_km restriction
  double p50_ms = 0.0;  ///< across all tiers
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double tier_p50_ms[kNumServeTiers] = {0.0, 0.0, 0.0};
  double tier_p95_ms[kNumServeTiers] = {0.0, 0.0, 0.0};
  double tier_p99_ms[kNumServeTiers] = {0.0, 0.0, 0.0};

  /// One-line "health=... reloads=... p99_ms=..." summary.
  std::string ToString() const;
};

/// The serving read path: answers TopK queries through a fallback chain of
/// recommenders, never crashing and never blocking on a model reload.
///
///   tier 0  model       — the hot-reloaded TCSS factors, for any user the
///                         model was trained on
///   tier 1  fold_in     — ridge fold-in (factors held fixed) for dataset
///                         users the model has no row for
///   tier 2  popularity  — non-personalized counts; always available once
///                         Init() succeeded, and the answer of last resort
///                         for unknown users or when no model is live
///
/// The chain degrades per *request*, not globally: one query from an
/// unseen user answers from fold-in while the next answers from the model.
/// A per-request deadline budget can force the cheap popularity tier when
/// the chosen tier's recent latency (EWMA) would blow the budget.
///
/// With Options::ann enabled, the factor-scored tiers gain a candidate-
/// generation stage: the request ranks only the LSH candidate union
/// (re-ranked by the exact scorer) instead of the whole catalogue, with a
/// per-request fallback to the exact path when the union is too small. A
/// geo fence (ServeRequest::within_km) restricts any tier — including
/// ANN, by intersection — to the POIs inside the fence, resolved through
/// the spatial grid without touching the full catalogue.
class RecommendService {
 public:
  struct Options {
    /// Weights of the service's own fold-in solver (unused when
    /// `incremental` is set: that solver carries its own).
    FoldInOptions fold_in;
    /// Streaming mode (DESIGN.md §14): the fold-in tier runs through this
    /// shared solver, so check-ins its owner — typically a StreamingEngine
    /// — appends are served on the user's next query. Null: the service
    /// builds its own IncrementalFoldIn from `fold_in`. Either way Init()
    /// seeds the solver with the train tensor's per-user cells. Not owned;
    /// must outlive the service, and is touched only from the serving
    /// thread (the owner appends through that same thread).
    IncrementalFoldIn* incremental = nullptr;
    /// EWMA smoothing for per-tier latency estimates (0 < a <= 1). The
    /// EWMA is the deadline-budget predictor: it tracks *recent* latency,
    /// which the cumulative histograms cannot, so degradation reacts to a
    /// latency regression instead of averaging it away.
    double latency_ewma_alpha = 0.2;
    /// Metric registry for latency histograms and serve counters, and the
    /// source of every Stats() count (frozen while the obs kill switch is
    /// off); null means the process-global registry, where Stats() sums
    /// across all services in the process.
    obs::MetricRegistry* metrics = nullptr;
    /// The ANN candidate-generation tier (DESIGN.md §13). When enabled,
    /// factor-scored requests rank only the LSH candidate union instead
    /// of the whole catalogue, falling back to the exact path per request
    /// when the union is smaller than lsh.min_candidates.
    struct AnnOptions {
      bool enabled = false;
      ann::LshConfig lsh;
      /// Every Nth ANN-served request is also scored by the exact oracle
      /// and the top-k overlap recorded into ann.recall_proxy; 0 disables
      /// auditing.
      uint64_t audit_every = 64;
    };
    AnnOptions ann;
  };

  /// `data` must outlive the service. `watcher` may be null (pure
  /// popularity service); if set it must outlive the service too.
  RecommendService(const Dataset* data, TimeGranularity granularity,
                   ModelWatcher* watcher, const Options& opts);
  RecommendService(const Dataset* data, TimeGranularity granularity,
                   ModelWatcher* watcher)
      : RecommendService(data, granularity, watcher, Options()) {}

  /// Builds the check-in tensor, fits the popularity tier and performs the
  /// initial watcher poll. Must be called once before TopK(); failure
  /// means even the last-resort tier could not be constructed.
  Status Init();

  struct Response {
    ServeTier tier = ServeTier::kPopularity;
    std::vector<Recommendation> recs;
    double latency_ms = 0.0;
  };

  /// Answers one query: a one-request BatchTopK, bitwise equal to that
  /// request's answer inside any batch. Never fails: untrusted fields
  /// degrade (bad user → popularity) or yield an empty list (bad time
  /// bin), and a missing or stale model falls down the chain.
  Response TopK(const ServeRequest& req);

  /// Answers many queries in one model pass. Responses land at the index
  /// of their request. Tier choice, deadline degradation, fold-in solves
  /// and candidate planning run serially, composing one query vector
  /// q_t = h_t * u_t * U3[k,t] per factor-scored request (u is the U1 row
  /// or the fold-in embedding). The full-catalogue requests' queries are
  /// stacked and scored by one serial gemm (MatMulT: U2 · Qᵀ); ANN
  /// re-ranks and recall audits score ⟨U2[j], q⟩ with the same ascending-t
  /// chain, so every path ranks with bitwise-equal scores. The per-request
  /// top-k selections run shard-parallel into disjoint slots.
  std::vector<Response> BatchTopK(const std::vector<ServeRequest>& reqs);

  /// Predicts which tier would answer `req` right now, without running it.
  /// Thread-safe (reads only immutable post-Init state and the watcher's
  /// mutex-guarded model pointer) — the server's admission control calls
  /// this from connection threads while the dispatcher is mid-batch. A
  /// user whose only history is streamed check-ins plans as popularity,
  /// since only the dispatcher may read the fold-in solver; the
  /// dispatcher answers that user from fold-in.
  ServeTier PlanTier(const ServeRequest& req) const;

  /// Recent latency EWMA of a tier in milliseconds (0 before the first
  /// sample). Single-writer like TopK itself: only the serving thread may
  /// call this; the server republishes the values atomically for its
  /// admission-control threads.
  double TierLatencyEwmaMs(ServeTier tier) const;

  /// Triggers one hot-reload check on the watcher (no-op without one).
  void PollModel();

  ServeHealth health() const;
  ServiceStats Stats() const;

 private:
  /// How one request's candidate set is scored: the options handed to
  /// TopKRecommendations, whether they carry an ANN candidate union, and
  /// whether this request is an audit (also scored by the exact oracle,
  /// whose options are `exact_topts`).
  struct ScorePlan {
    TopKOptions topts;
    /// The request's restriction (candidates ∩ geo fence) matched no POI:
    /// answer empty without scoring (an empty TopKOptions candidate list
    /// would mean "the whole catalogue").
    bool empty = false;
    bool ann = false;
    bool audit = false;
    TopKOptions exact_topts;
  };

  /// The tier that answers `req` under `model`. With `streamed` null it
  /// reads only immutable post-Init state (PlanTier); the dispatcher
  /// passes the fold-in solver so a user with only streamed check-ins
  /// folds in too.
  ServeTier ChooseTier(const ServeRequest& req,
                       const std::shared_ptr<const FactorModel>& model,
                       const IncrementalFoldIn* streamed) const;
  /// Applies the deadline-budget EWMA check to a chosen tier; may degrade
  /// to popularity (counting the degrade).
  ServeTier ApplyDeadlineBudget(const ServeRequest& req, ServeTier tier);
  /// Returns the fold-in embedding for `user` solved against `model`
  /// (cached by the solver until the user or the generation changes), or
  /// null when the solve fails. Must run on the serving thread.
  const std::vector<double>* FoldInEmbedding(
      uint32_t user, const std::shared_ptr<const FactorModel>& model);
  /// Resolves a request's candidate set: explicit candidates ∩ geo fence,
  /// then the ANN union (intersected with that restriction) when the
  /// request has a composed query `q` (factor-scored tiers; empty for
  /// popularity), the index is live and the union is large enough —
  /// otherwise the exact restriction, counting the fallback. Mutates
  /// service counters: serving thread only.
  void PlanScore(const ServeRequest& req,
                 const std::shared_ptr<const FactorModel>& model,
                 const std::vector<double>& q, ScorePlan* plan);
  /// Rebuilds the LSH index when `model` is a generation the index was
  /// not built from. Pointer identity keys the pair: after this call
  /// ann_model_ == model, so a request scoring through `model` can never
  /// consult an index built from another generation. Serving thread only.
  void EnsureAnnIndex(const std::shared_ptr<const FactorModel>& model);
  void RecordLatency(ServeTier tier, double ms);

  const Dataset* data_;
  const TimeGranularity granularity_;
  ModelWatcher* watcher_;
  const Options opts_;

  bool initialized_ = false;
  size_t num_bins_ = 0;
  SparseTensor train_;  ///< full-data check-in tensor (visited-POI filter)
  Popularity popularity_;
  /// Per dataset user: has training check-ins (the fold-in observations
  /// Init seeds). Immutable after Init, so PlanTier may read it.
  std::vector<bool> has_history_;

  /// The one fold-in solver: Options::incremental, or own_fold_in_ when
  /// that is null. Serving thread only.
  std::unique_ptr<IncrementalFoldIn> own_fold_in_;
  IncrementalFoldIn* fold_in_;

  /// Geo fence support: the POI coordinates (the grid stores a pointer
  /// into this vector, so it must live as long as the grid) and the cell
  /// index over them, built once in Init().
  std::vector<GeoPoint> poi_locations_;
  std::unique_ptr<SpatialGrid> geo_grid_;

  /// The ANN tier's (model, index) pair. The two members always change
  /// together on the serving thread, keyed by model pointer identity —
  /// the hot-reload atomicity guarantee: a request holding `model` either
  /// finds ann_model_ == model (index built from exactly that object) or
  /// triggers a rebuild from it before any candidate query.
  std::shared_ptr<const FactorModel> ann_model_;
  std::unique_ptr<ann::LshIndex> ann_index_;
  uint64_t ann_tick_ = 0;  ///< ANN-served request counter driving audits

  double tier_ewma_ms_[kNumServeTiers] = {0.0, 0.0, 0.0};
  bool tier_ewma_valid_[kNumServeTiers] = {false, false, false};

  /// Telemetry handles, resolved once in the constructor; Stats() reads
  /// every count and quantile back from them.
  obs::MetricRegistry* metrics_;
  obs::Histogram* tier_latency_[kNumServeTiers] = {nullptr, nullptr, nullptr};
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* invalid_counter_ = nullptr;
  obs::Counter* degrade_counter_ = nullptr;
  obs::Counter* cache_hit_counter_ = nullptr;
  obs::Counter* cache_miss_counter_ = nullptr;
  obs::Histogram* ann_candidates_hist_ = nullptr;
  obs::Histogram* ann_recall_hist_ = nullptr;
  obs::Counter* ann_served_counter_ = nullptr;
  obs::Counter* ann_fallback_counter_ = nullptr;
  obs::Counter* ann_rebuild_counter_ = nullptr;
  obs::Counter* geo_fenced_counter_ = nullptr;
};

}  // namespace tcss

#endif  // TCSS_SERVE_RECOMMEND_SERVICE_H_
