#include "serve/recommend_service.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "data/tensor_builder.h"

namespace tcss {
namespace {

/// Reads one column of the J x B score matrix one gemm computed for the
/// whole batch, so the top-k selection never re-touches the factors.
class ColumnScorer : public Recommender {
 public:
  ColumnScorer(const Matrix* scores, size_t col)
      : scores_(scores), col_(col) {}
  std::string name() const override { return "serve-batch"; }
  Status Fit(const TrainContext&) override { return Status::OK(); }
  double Score(uint32_t, uint32_t j, uint32_t) const override {
    return (*scores_)(j, col_);
  }

 private:
  const Matrix* scores_;
  size_t col_;
};

/// Scores POI j as ⟨U2[j], q⟩ for one composed query: the ascending-t
/// chain MatMulT runs for a gemm column, so an ANN re-rank or a recall
/// audit gives every POI the score the full scan would.
class QueryScorer : public Recommender {
 public:
  QueryScorer(const Matrix* u2, const std::vector<double>* q)
      : u2_(u2), q_(q) {}
  std::string name() const override { return "serve-query"; }
  Status Fit(const TrainContext&) override { return Status::OK(); }
  double Score(uint32_t, uint32_t j, uint32_t) const override {
    const double* row = u2_->row(j);
    double s = 0.0;
    for (size_t t = 0; t < q_->size(); ++t) s += row[t] * (*q_)[t];
    return s;
  }

 private:
  const Matrix* u2_;
  const std::vector<double>* q_;
};

/// A request's geo fence is either absent or a finite positive radius
/// under the cap with a valid centre — the service re-validates because
/// requests can arrive through the C++ API without passing the parser.
bool ValidGeoFence(const ServeRequest& req) {
  if (req.within_km == 0.0) return true;
  return std::isfinite(req.within_km) && req.within_km > 0.0 &&
         req.within_km <= kMaxRequestWithinKm && IsValid(req.center);
}

std::vector<uint32_t> IntersectSorted(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Fraction of the exact oracle's top-k the approximate list recovered.
double RecallAtK(const std::vector<Recommendation>& approx,
                 const std::vector<Recommendation>& exact) {
  if (exact.empty()) return 1.0;
  std::vector<uint32_t> ids;
  ids.reserve(approx.size());
  for (const auto& a : approx) ids.push_back(a.poi);
  std::sort(ids.begin(), ids.end());
  size_t hit = 0;
  for (const auto& e : exact) {
    if (std::binary_search(ids.begin(), ids.end(), e.poi)) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

}  // namespace

std::string ServiceStats::ToString() const {
  std::string s = StrFormat(
      "health=%s reloads=%llu rejects=%llu q_model=%llu q_fold_in=%llu "
      "q_popularity=%llu deadline_degrades=%llu invalid=%llu total=%llu "
      "cache_hit=%llu cache_miss=%llu p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f",
      ServeHealthName(health),
      static_cast<unsigned long long>(reload_successes),
      static_cast<unsigned long long>(reload_rejects),
      static_cast<unsigned long long>(queries_by_tier[0]),
      static_cast<unsigned long long>(queries_by_tier[1]),
      static_cast<unsigned long long>(queries_by_tier[2]),
      static_cast<unsigned long long>(deadline_degrades),
      static_cast<unsigned long long>(invalid_requests),
      static_cast<unsigned long long>(total_queries),
      static_cast<unsigned long long>(fold_in_cache_hits),
      static_cast<unsigned long long>(fold_in_cache_misses), p50_ms, p95_ms,
      p99_ms);
  if (ann_served + ann_fallbacks + ann_rebuilds + geo_fenced > 0) {
    s += StrFormat(
        " ann_served=%llu ann_fallbacks=%llu ann_rebuilds=%llu "
        "ann_audits=%llu geo_fenced=%llu",
        static_cast<unsigned long long>(ann_served),
        static_cast<unsigned long long>(ann_fallbacks),
        static_cast<unsigned long long>(ann_rebuilds),
        static_cast<unsigned long long>(ann_audits),
        static_cast<unsigned long long>(geo_fenced));
  }
  for (int t = 0; t < kNumServeTiers; ++t) {
    if (queries_by_tier[t] == 0) continue;
    s += StrFormat(" %s[p50=%.3f p95=%.3f p99=%.3f]",
                   ServeTierName(static_cast<ServeTier>(t)), tier_p50_ms[t],
                   tier_p95_ms[t], tier_p99_ms[t]);
  }
  return s;
}

RecommendService::RecommendService(const Dataset* data,
                                   TimeGranularity granularity,
                                   ModelWatcher* watcher, const Options& opts)
    : data_(data), granularity_(granularity), watcher_(watcher),
      opts_(opts),
      own_fold_in_(opts.incremental == nullptr
                       ? std::make_unique<IncrementalFoldIn>(opts.fold_in)
                       : nullptr),
      fold_in_(opts.incremental != nullptr ? opts.incremental
                                           : own_fold_in_.get()),
      metrics_(opts.metrics != nullptr ? opts.metrics
                                       : obs::MetricRegistry::Global()) {
  for (int t = 0; t < kNumServeTiers; ++t) {
    tier_latency_[t] = metrics_->GetHistogram(
        std::string("serve.latency_ms.") +
        ServeTierName(static_cast<ServeTier>(t)));
  }
  requests_counter_ = metrics_->GetCounter("serve.requests");
  invalid_counter_ = metrics_->GetCounter("serve.invalid_requests");
  degrade_counter_ = metrics_->GetCounter("serve.deadline_degrades");
  cache_hit_counter_ = metrics_->GetCounter("serve.fold_in.cache_hits");
  cache_miss_counter_ = metrics_->GetCounter("serve.fold_in.cache_misses");
  ann_candidates_hist_ = metrics_->GetHistogram("ann.candidates");
  ann_recall_hist_ = metrics_->GetHistogram("ann.recall_proxy");
  ann_served_counter_ = metrics_->GetCounter("ann.served");
  ann_fallback_counter_ = metrics_->GetCounter("ann.fallbacks");
  ann_rebuild_counter_ = metrics_->GetCounter("ann.rebuilds");
  geo_fenced_counter_ = metrics_->GetCounter("serve.geo_fenced");
}

Status RecommendService::Init() {
  if (data_ == nullptr) {
    return Status::InvalidArgument("RecommendService: null dataset");
  }
  if (data_->num_pois() == 0) {
    return Status::FailedPrecondition(
        "RecommendService: empty POI catalogue, nothing to rank");
  }
  num_bins_ = NumBins(granularity_);

  auto train = BuildCheckinTensor(*data_, granularity_);
  if (!train.ok()) return train.status();
  train_ = train.MoveValue();

  TCSS_RETURN_IF_ERROR(
      popularity_.Fit({data_, &train_, granularity_, /*seed=*/1}));

  // Per-user distinct (poi, time) cells — the fold-in observations — seed
  // the solver in tensor-entry order, the replay order of its differential
  // contract with FoldInUser.
  std::vector<std::vector<TensorCell>> cells(data_->num_users());
  for (const auto& e : train_.entries()) {
    if (e.i < cells.size()) cells[e.i].push_back({e.i, e.j, e.k});
  }
  has_history_.assign(cells.size(), false);
  for (uint32_t u = 0; u < cells.size(); ++u) {
    if (cells[u].empty()) continue;
    has_history_[u] = true;
    fold_in_->Seed(u, cells[u]);
  }

  // Geo fence index. The grid keeps a pointer into poi_locations_, which
  // lives (and stays unmoved) as long as the service.
  poi_locations_ = data_->PoiLocations();
  geo_grid_ = std::make_unique<SpatialGrid>(poi_locations_);

  initialized_ = true;
  if (watcher_ != nullptr) watcher_->Poll();
  return Status::OK();
}

void RecommendService::PollModel() {
  if (watcher_ != nullptr) watcher_->Poll();
}

ServeTier RecommendService::ChooseTier(
    const ServeRequest& req, const std::shared_ptr<const FactorModel>& model,
    const IncrementalFoldIn* streamed) const {
  if (model != nullptr && req.user < model->u1.rows()) {
    return ServeTier::kModel;
  }
  if (model != nullptr && req.user < has_history_.size() &&
      (has_history_[req.user] ||
       (streamed != nullptr && streamed->HasObservations(req.user)))) {
    // A user with no training history but streamed check-ins is servable
    // by fold-in too — that is the whole point of the streaming tier.
    return ServeTier::kFoldIn;
  }
  return ServeTier::kPopularity;
}

ServeTier RecommendService::PlanTier(const ServeRequest& req) const {
  if (!initialized_) return ServeTier::kPopularity;
  return ChooseTier(req, watcher_ != nullptr ? watcher_->current() : nullptr,
                    /*streamed=*/nullptr);
}

double RecommendService::TierLatencyEwmaMs(ServeTier tier) const {
  const int t = static_cast<int>(tier);
  return tier_ewma_valid_[t] ? tier_ewma_ms_[t] : 0.0;
}

ServeTier RecommendService::ApplyDeadlineBudget(const ServeRequest& req,
                                                ServeTier tier) {
  // Deadline budget: if this tier's recent latency already exceeds the
  // budget, answer from the cheap non-personalized tier instead of
  // predictably blowing the deadline.
  if (req.deadline_ms > 0.0 && tier != ServeTier::kPopularity &&
      tier_ewma_valid_[static_cast<int>(tier)] &&
      tier_ewma_ms_[static_cast<int>(tier)] > req.deadline_ms) {
    tier = ServeTier::kPopularity;
    degrade_counter_->Add(1);
  }
  return tier;
}

const std::vector<double>* RecommendService::FoldInEmbedding(
    uint32_t user, const std::shared_ptr<const FactorModel>& model) {
  // Binding the watcher's generation keys every piece of the solver's
  // derived state, so a hot reload re-solves instead of serving an
  // embedding solved against the old factors.
  fold_in_->BindModel(model, watcher_->generation());
  const uint64_t solves_before = fold_in_->stats().solves;
  const std::vector<double>* emb = fold_in_->Embedding(user);
  if (fold_in_->stats().solves != solves_before) {
    cache_miss_counter_->Add(1);
  } else if (emb != nullptr) {
    cache_hit_counter_->Add(1);
  }
  return emb;
}

void RecommendService::EnsureAnnIndex(
    const std::shared_ptr<const FactorModel>& model) {
  if (!opts_.ann.enabled || model == nullptr) return;
  if (ann_model_.get() == model.get() && ann_index_ != nullptr) return;
  // A generation the index was not built from: rebuild before any
  // candidate query. Both members swap together on this (the serving)
  // thread, so no request ever pairs an old index with a new model.
  ann_index_ = std::make_unique<ann::LshIndex>(*model, opts_.ann.lsh,
                                               metrics_);
  ann_model_ = model;
  ann_rebuild_counter_->Add(1);
}

void RecommendService::PlanScore(
    const ServeRequest& req, const std::shared_ptr<const FactorModel>& model,
    const std::vector<double>& q, ScorePlan* plan) {
  plan->topts.k = req.k;
  plan->topts.exclude_visited = req.exclude_visited;

  // The exact restriction: explicit candidates ∩ geo fence. An empty
  // TopKOptions candidate list means "the whole catalogue", so a
  // restriction that matched nothing must short-circuit to an empty
  // answer instead of being passed through.
  bool restricted = false;
  std::vector<uint32_t> base;
  if (!req.candidates.empty()) {
    base = req.candidates;
    std::sort(base.begin(), base.end());
    base.erase(std::unique(base.begin(), base.end()), base.end());
    restricted = true;
  }
  if (req.within_km > 0.0 && geo_grid_ != nullptr) {
    std::vector<uint32_t> fence =
        geo_grid_->WithinRadius(req.center, req.within_km);
    base = restricted ? IntersectSorted(base, fence) : std::move(fence);
    restricted = true;
    geo_fenced_counter_->Add(1);
  }
  if (restricted && base.empty()) {
    plan->empty = true;
    return;
  }

  if (opts_.ann.enabled && !q.empty()) {
    EnsureAnnIndex(model);
    if (ann_index_ != nullptr && ann_index_->rank() == q.size()) {
      // The hot-reload pairing invariant: the index in hand was built
      // from exactly the model this request scores through.
      TCSS_CHECK(ann_model_.get() == model.get());
      std::vector<uint32_t> cands = ann_index_->Candidates(q.data(), q.size());
      if (restricted) cands = IntersectSorted(cands, base);
      // Too few candidates and the re-rank could starve the answer; fall
      // back to the exact restriction. A fence smaller than the floor is
      // fine — the union can never exceed the fence.
      size_t need = std::max(opts_.ann.lsh.min_candidates, req.k);
      if (restricted) need = std::min(need, base.size());
      if (!cands.empty() && cands.size() >= need) {
        ann_served_counter_->Add(1);
        ann_candidates_hist_->Record(static_cast<double>(cands.size()));
        if (opts_.ann.audit_every > 0 &&
            ++ann_tick_ % opts_.ann.audit_every == 0) {
          plan->audit = true;
          plan->exact_topts = plan->topts;
          plan->exact_topts.candidates = base;
        }
        plan->ann = true;
        plan->topts.candidates = std::move(cands);
        return;
      }
      ann_fallback_counter_->Add(1);
    }
  }
  if (restricted) plan->topts.candidates = std::move(base);
}

RecommendService::Response RecommendService::TopK(const ServeRequest& req) {
  return BatchTopK({req}).front();
}

std::vector<RecommendService::Response> RecommendService::BatchTopK(
    const std::vector<ServeRequest>& reqs) {
  std::vector<Response> out(reqs.size());
  if (reqs.empty()) return out;
  Stopwatch sw;

  std::shared_ptr<const FactorModel> model =
      watcher_ != nullptr ? watcher_->current() : nullptr;

  struct Plan {
    bool valid = false;           ///< false: invalid request, empty answer
    bool factor_scored = false;   ///< participates in the batch gemm
    ServeTier tier = ServeTier::kPopularity;
    /// Composed query q_t = h_t * u_t * U3[k,t]; empty for popularity.
    std::vector<double> q;
    size_t q_row = 0;   ///< row in the stacked query matrix
    ScorePlan sp;       ///< candidate set / ANN / audit decision
    double recall = -1.0;  ///< audit result, recorded serially in phase 4
  };
  std::vector<Plan> plans(reqs.size());

  // Phase 1 — serial: validation, tier choice with deadline degradation,
  // fold-in solves, query composition and candidate planning (geo fence,
  // ANN candidate unions, index rebuilds). Every service-state mutation
  // happens here, on the one serving thread.
  size_t num_factor = 0;
  for (size_t b = 0; b < reqs.size(); ++b) {
    const ServeRequest& req = reqs[b];
    if (!initialized_ || req.time_bin >= num_bins_ || !ValidGeoFence(req)) {
      // An out-of-range time bin would index past every tier's tables, and
      // a malformed geo fence has no meaningful answer; an empty response
      // is the only safe reply to either input.
      invalid_counter_->Add(1);
      continue;
    }
    Plan& plan = plans[b];
    plan.valid = true;
    plan.tier = ApplyDeadlineBudget(req, ChooseTier(req, model, fold_in_));
    const double* u = nullptr;
    if (plan.tier == ServeTier::kModel) {
      u = model->u1.row(req.user);
    } else if (plan.tier == ServeTier::kFoldIn) {
      const std::vector<double>* emb = FoldInEmbedding(req.user, model);
      if (emb != nullptr) {
        u = emb->data();
      } else {
        plan.tier = ServeTier::kPopularity;  // no embedding: degrade
      }
    }
    if (u != nullptr) {
      const double* u3row = model->u3.row(req.time_bin);
      plan.q.resize(model->rank());
      for (size_t t = 0; t < plan.q.size(); ++t) {
        plan.q[t] = model->h[t] * u[t] * u3row[t];
      }
    }
    PlanScore(req, model, plan.q, &plan.sp);
    // ANN requests skip the full-catalogue gemm: phase 3 re-ranks their
    // candidate unions against the query directly.
    if (!plan.q.empty() && !plan.sp.empty && !plan.sp.ann) {
      plan.factor_scored = true;
      plan.q_row = num_factor++;
    }
  }

  // Phase 2 — one factor pass for the whole batch: stack the full-scan
  // queries and score them against every POI with a single serial gemm,
  // which amortizes the U2 loads over the batch.
  Matrix scores;  // J x num_factor
  if (num_factor > 0) {
    Matrix q(num_factor, model->rank());
    for (const Plan& plan : plans) {
      if (plan.factor_scored) {
        std::copy(plan.q.begin(), plan.q.end(), q.row(plan.q_row));
      }
    }
    scores = MatMulT(model->u2, q);
  }

  // Phase 3 — parallel top-k selection into disjoint slots. The shard
  // decomposition depends only on the batch size, never the worker
  // count, so a batch's answers are worker-count-invariant.
  const size_t num_pois = data_->num_pois();
  ParallelFor(reqs.size(), 1, [&](size_t begin, size_t end, size_t) {
    for (size_t b = begin; b < end; ++b) {
      Plan& plan = plans[b];
      if (!plan.valid) continue;
      out[b].tier = plan.tier;
      if (plan.sp.empty) continue;  // restriction matched nothing
      const auto rank = [&](const Recommender& scorer,
                            const TopKOptions& topts) {
        return TopKRecommendations(scorer, reqs[b].user, reqs[b].time_bin,
                                   num_pois, topts, &train_);
      };
      if (plan.factor_scored) {
        out[b].recs = rank(ColumnScorer(&scores, plan.q_row), plan.sp.topts);
      } else if (plan.sp.ann) {
        // ANN re-rank of the candidate union; an audited request also
        // scans its exact restriction, into its own plan slot (recorded
        // serially in phase 4).
        const QueryScorer scorer(&model->u2, &plan.q);
        out[b].recs = rank(scorer, plan.sp.topts);
        if (plan.sp.audit) {
          plan.recall =
              RecallAtK(out[b].recs, rank(scorer, plan.sp.exact_topts));
        }
      } else {
        out[b].recs = rank(popularity_, plan.sp.topts);
      }
    }
  });

  // Phase 4 — serial: latency accounting and audit recalls. Each request
  // is charged the whole batch pass — that is the latency its caller
  // observed, and what the admission EWMA must predict for the next
  // arrival.
  const double ms = sw.ElapsedMillis();
  for (size_t b = 0; b < reqs.size(); ++b) {
    if (!plans[b].valid) continue;
    out[b].latency_ms = ms;
    RecordLatency(plans[b].tier, ms);
    if (plans[b].recall >= 0.0) ann_recall_hist_->Record(plans[b].recall);
  }
  return out;
}

void RecommendService::RecordLatency(ServeTier tier, double ms) {
  const int t = static_cast<int>(tier);
  // The EWMA stays the deadline-budget predictor (recency-weighted); the
  // histogram is the count and quantile source for Stats() and the JSON
  // snapshot.
  if (tier_ewma_valid_[t]) {
    tier_ewma_ms_[t] = (1.0 - opts_.latency_ewma_alpha) * tier_ewma_ms_[t] +
                       opts_.latency_ewma_alpha * ms;
  } else {
    tier_ewma_ms_[t] = ms;
    tier_ewma_valid_[t] = true;
  }
  tier_latency_[t]->Record(ms);
  requests_counter_->Add(1);
}

ServeHealth RecommendService::health() const {
  if (!initialized_ || watcher_ == nullptr || watcher_->current() == nullptr) {
    return ServeHealth::kFallback;
  }
  return watcher_->stale() ? ServeHealth::kDegraded : ServeHealth::kHealthy;
}

ServiceStats RecommendService::Stats() const {
  ServiceStats s;
  s.health = health();
  if (watcher_ != nullptr) {
    s.reload_successes = watcher_->reload_successes();
    s.reload_rejects = watcher_->reload_rejects();
  }
  s.deadline_degrades = degrade_counter_->Value();
  s.invalid_requests = invalid_counter_->Value();
  s.total_queries = requests_counter_->Value();
  s.fold_in_cache_hits = cache_hit_counter_->Value();
  s.fold_in_cache_misses = cache_miss_counter_->Value();
  s.ann_served = ann_served_counter_->Value();
  s.ann_fallbacks = ann_fallback_counter_->Value();
  s.ann_rebuilds = ann_rebuild_counter_->Value();
  s.ann_audits = ann_recall_hist_->Snapshot().count;
  s.geo_fenced = geo_fenced_counter_->Value();
  obs::HistogramSnapshot all;
  for (int t = 0; t < kNumServeTiers; ++t) {
    const obs::HistogramSnapshot snap = tier_latency_[t]->Snapshot();
    s.queries_by_tier[t] = snap.count;
    if (snap.count > 0) {
      s.tier_p50_ms[t] = snap.Quantile(0.50);
      s.tier_p95_ms[t] = snap.Quantile(0.95);
      s.tier_p99_ms[t] = snap.Quantile(0.99);
    }
    all.Merge(snap);
  }
  if (all.count > 0) {
    s.p50_ms = all.Quantile(0.50);
    s.p95_ms = all.Quantile(0.95);
    s.p99_ms = all.Quantile(0.99);
  }
  return s;
}

}  // namespace tcss
