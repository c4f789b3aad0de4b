#ifndef TCSS_SERVE_RECOMMEND_SERVICE_H_
#define TCSS_SERVE_RECOMMEND_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/popularity.h"
#include "core/incremental_fold_in.h"
#include "core/recommend.h"
#include "data/dataset.h"
#include "data/time_binning.h"
#include "geo/spatial_grid.h"
#include "linalg/kernel_table.h"
#include "obs/metrics.h"
#include "serve/model_watcher.h"
#include "serve/request.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// EWMA smoothing of the serving latency predictors: the service's
/// per-tier latency and the server's batch latency and batch fill.
inline constexpr double kLatencyEwmaAlpha = 0.2;

/// Aggregate serving statistics, exposed for health endpoints and dumped
/// to stderr by `tcss serve`.
///
/// Every count and quantile is read from the service's metric registry:
/// the serve.* counters, and the per-tier obs::Histogram metrics
/// (serve.latency_ms.<tier>), whose sample counts are queries_by_tier and
/// whose merge gives the overall p50/p95/p99; the reload counts come from
/// the watcher's registry. On the default process-global registry they
/// therefore sum across every service in the process — pass
/// Options::metrics for per-service numbers — and while the obs kill
/// switch is off they stay frozen.
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
/// The factor-scored tiers rank exactly: an f32 scan of the whole
/// catalogue keeps a short list that provably holds the f64 top k, which
/// the f64 chain then ranks (DESIGN.md §13). A geo fence
/// (ServeRequest::within_km) restricts any tier to the POIs inside the
/// fence, resolved through the spatial grid without touching the full
/// catalogue.
class RecommendService {
 public:
  struct Options {
    /// Streaming mode (DESIGN.md §14): the fold-in tier runs through this
    /// shared solver, so check-ins its owner — typically a StreamingEngine
    /// — appends are served on the user's next query. Null: the service
    /// builds its own IncrementalFoldIn. Either way Init() binds the
    /// service's check-in tensor to the solver as every user's first
    /// observations. Not owned; must outlive the service, and is touched
    /// only from the serving thread (the owner appends through that same
    /// thread).
    IncrementalFoldIn* incremental = nullptr;
    /// Metric registry for latency histograms and serve counters, and the
    /// source of every Stats() count (frozen while the obs kill switch is
    /// off); null means the process-global registry, where Stats() sums
    /// across all services in the process.
    obs::MetricRegistry* metrics = nullptr;
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

  /// Answers many queries in one pass. Responses land at the index of
  /// their request. Tier choice, deadline degradation, fold-in solves and
  /// restrictions run serially, composing one query vector
  /// q_t = h_t * u_t * U3[k,t] per factor-scored request (u is the U1 row
  /// or the fold-in embedding). Scoring and top-k selection then run
  /// shard-parallel, one request per shard, into disjoint slots: an
  /// unrestricted factor-scored request scans the f32 panel for its short
  /// list, and every factor-scored answer is ranked by ⟨U2[j], q⟩ in f64,
  /// ascending t.
  std::vector<Response> BatchTopK(const std::vector<ServeRequest>& reqs);

  /// Predicts which tier would answer `req` right now, without running it,
  /// deadline budget included: a tier whose latency EWMA exceeds the
  /// request's deadline plans as popularity, as the dispatcher would
  /// degrade it. Thread-safe (reads immutable post-Init state, the
  /// watcher's mutex-guarded model pointer and the atomic EWMAs) — the
  /// server's admission control calls this from connection threads while
  /// the dispatcher is mid-batch. A user whose only history is streamed
  /// check-ins plans as popularity, since only the dispatcher may read the
  /// fold-in solver; the dispatcher answers that user from fold-in.
  ServeTier PlanTier(const ServeRequest& req) const;

  /// Recent latency EWMA of a tier in milliseconds (0 before the first
  /// sample), smoothed by kLatencyEwmaAlpha. It is the one latency
  /// predictor of both the deadline budget and the server's admission
  /// control: it tracks *recent* latency, which the cumulative histograms
  /// cannot, so degradation reacts to a regression instead of averaging
  /// it away. Thread-safe: the serving thread writes it, admission reads
  /// it from connection threads.
  double TierLatencyEwmaMs(ServeTier tier) const;

  /// Triggers one hot-reload check on the watcher (no-op without one).
  void PollModel();

  ServeHealth health() const;
  ServiceStats Stats() const;

 private:
  /// The exact scan's f32 image of one model generation's U2 (DESIGN.md
  /// §13). Keyed by model pointer identity; holding the shared_ptr keeps a
  /// later generation from reusing the address.
  struct ScanPanel {
    std::shared_ptr<const FactorModel> model;
    /// U2 in lane groups of kPanelLanes POIs: entry (j, t) sits at
    /// ((j / kPanelLanes) * r + t) * kPanelLanes + j % kPanelLanes; the
    /// padding lanes of the last group are zero.
    std::vector<float> lanes;
    double max_row_norm = 0.0;   ///< max_j ‖U2[j]‖₂, in f64
    bool representable = false;  ///< every U2 entry is finite in f32
  };

  /// The tier that answers `req` under `model`. With `streamed` null it
  /// reads only immutable post-Init state (PlanTier); the dispatcher
  /// passes the fold-in solver so a user with only streamed check-ins
  /// folds in too.
  ServeTier ChooseTier(const ServeRequest& req,
                       const std::shared_ptr<const FactorModel>& model,
                       const IncrementalFoldIn* streamed) const;
  /// The deadline budget: popularity when `tier`'s latency EWMA already
  /// exceeds the request's deadline, `tier` otherwise. The one rule of
  /// both PlanTier and the dispatcher.
  ServeTier BudgetTier(const ServeRequest& req, ServeTier tier) const;
  /// Returns the fold-in embedding for `user` solved against `model`
  /// (cached by the solver until the user or the generation changes), or
  /// null when the solve fails. Must run on the serving thread.
  const std::vector<double>* FoldInEmbedding(
      uint32_t user, const std::shared_ptr<const FactorModel>& model);
  /// Whether `req` restricts its candidates (explicit candidates and/or a
  /// geo fence), with the restriction — their intersection, sorted and
  /// unique, empty when it matches nothing — in `cands`. For an
  /// unrestricted request with a composed query `q`, makes sure panel_
  /// holds `model`. Mutates service state: serving thread only.
  bool PlanScore(const ServeRequest& req,
                 const std::shared_ptr<const FactorModel>& model,
                 const std::vector<double>& q, std::vector<uint32_t>* cands);
  /// Rebuilds panel_ when `model` is a generation it was not built from.
  /// Pointer identity keys the pair: after this call panel_.model ==
  /// model, so a request scanning through `model` never reads a panel
  /// built from another generation. Serving thread only.
  void EnsurePanel(const std::shared_ptr<const FactorModel>& model);
  /// The exact scan of composed query `q` over panel_: every POI outside
  /// `visited` (sorted) whose f32 score is at least τ − 2E, τ being the
  /// running k-th best such score and E the bound on |f32 − f64 score|,
  /// ascending. That short list holds every POI the f64 chain ranks in
  /// the top k, ties included. False when the panel cannot bound this
  /// query's error: the caller ranks in f64 alone. Needs k >= 1;
  /// read-only, so BatchTopK's parallel phase runs it from many threads.
  bool ShortList(const KernelTable& kernels, const std::vector<double>& q,
                 size_t k, std::span<const uint32_t> visited,
                 std::vector<uint32_t>* out) const;
  void RecordLatency(ServeTier tier, double ms);

  const Dataset* data_;
  const TimeGranularity granularity_;
  ModelWatcher* watcher_;
  const Options opts_;

  bool initialized_ = false;
  size_t num_bins_ = 0;
  Popularity popularity_;
  /// Every check-in of the dataset as a finalized tensor, built by Init.
  /// Its per-user POIs (SparseTensor::Pois) are every tier's
  /// exclude_visited filter, and its slices are the fold-in solver's
  /// first observations: the solver shares it, without a copy.
  /// Immutable after Init, so PlanTier may read it.
  std::shared_ptr<const SparseTensor> checkins_;

  /// The one fold-in solver: Options::incremental, or own_fold_in_ when
  /// that is null. Serving thread only.
  std::unique_ptr<IncrementalFoldIn> own_fold_in_;
  IncrementalFoldIn* fold_in_;

  /// Geo fence support: the POI coordinates (the grid stores a pointer
  /// into this vector, so it must live as long as the grid) and the cell
  /// index over them, built once in Init().
  std::vector<GeoPoint> poi_locations_;
  std::unique_ptr<SpatialGrid> geo_grid_;

  ScanPanel panel_;

  /// Per-tier latency EWMA: written by the serving thread only, read by
  /// TierLatencyEwmaMs from any thread. The valid flags (serving thread
  /// only) mark a tier's first sample, which seeds its EWMA. A batch in
  /// which the deadline budget skipped a tier that answered nothing
  /// decays that tier once, as one zero-latency sample would, so it is
  /// measured again after a few such batches instead of never again.
  std::atomic<double> tier_ewma_ms_[kNumServeTiers] = {};
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
  obs::Counter* geo_fenced_counter_ = nullptr;
  obs::Histogram* short_list_hist_ = nullptr;
  obs::Histogram* panel_build_hist_ = nullptr;
  obs::Gauge* panel_bytes_gauge_ = nullptr;
};

}  // namespace tcss

#endif  // TCSS_SERVE_RECOMMEND_SERVICE_H_
