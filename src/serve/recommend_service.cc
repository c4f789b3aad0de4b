#include "serve/recommend_service.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <utility>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "data/tensor_builder.h"
#include "linalg/kernel_table.h"

namespace tcss {
namespace {

/// Scores POI j as ⟨U2[j], q⟩ for one composed query in f64, the
/// ascending-t chain every factor-scored answer is ranked by.
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

/// The elements of `a` not in `b`, both sorted.
std::vector<uint32_t> Difference(const std::vector<uint32_t>& a,
                                 std::span<const uint32_t> b) {
  std::vector<uint32_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

/// Unit roundoffs of f32 and f64, and the absolute slack that covers f32
/// underflow (DESIGN.md §13).
constexpr double kU32 = 0x1p-24;
constexpr double kU64 = 0x1p-53;
constexpr double kUnderflow = 0x1p-147;
/// Lane groups scored per panel_scores call: a 2 KB block of scores.
constexpr size_t kScanBlock = 64;

/// The least float not below x, so a float f passes f >= x exactly when
/// it passes f >= CeilToFloat(x).
float CeilToFloat(double x) {
  float c = static_cast<float>(x);
  if (static_cast<double>(c) < x) {
    c = std::nextafter(c, std::numeric_limits<float>::infinity());
  }
  return c;
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
  if (geo_fenced > 0) {
    s += StrFormat(" geo_fenced=%llu",
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
                       ? std::make_unique<IncrementalFoldIn>()
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
  geo_fenced_counter_ = metrics_->GetCounter("serve.geo_fenced");
  short_list_hist_ = metrics_->GetHistogram("serve.scan.short_list");
  panel_build_hist_ = metrics_->GetHistogram("serve.scan.panel_build_ms");
  panel_bytes_gauge_ = metrics_->GetGauge("serve.scan.panel_bytes");
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

  auto checkins = BuildCheckinTensor(*data_, granularity_);
  if (!checkins.ok()) return checkins.status();
  checkins_ = std::make_shared<const SparseTensor>(checkins.MoveValue());
  TCSS_RETURN_IF_ERROR(
      popularity_.Fit({data_, checkins_.get(), granularity_, /*seed=*/1}));
  fold_in_->BindCheckins(checkins_);

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
  if (model != nullptr && req.user < data_->num_users() &&
      (!checkins_->Pois(req.user).empty() ||
       (streamed != nullptr && streamed->HasObservations(req.user)))) {
    // A user with no training history but streamed check-ins is servable
    // by fold-in too — that is the whole point of the streaming tier.
    return ServeTier::kFoldIn;
  }
  return ServeTier::kPopularity;
}

ServeTier RecommendService::PlanTier(const ServeRequest& req) const {
  if (!initialized_) return ServeTier::kPopularity;
  return BudgetTier(
      req, ChooseTier(req, watcher_ != nullptr ? watcher_->current() : nullptr,
                      /*streamed=*/nullptr));
}

double RecommendService::TierLatencyEwmaMs(ServeTier tier) const {
  return tier_ewma_ms_[static_cast<int>(tier)].load(std::memory_order_relaxed);
}

ServeTier RecommendService::BudgetTier(const ServeRequest& req,
                                       ServeTier tier) const {
  // If this tier's recent latency already exceeds the budget, answer from
  // the cheap non-personalized tier instead of predictably blowing the
  // deadline. An unsampled tier reads 0 and never degrades.
  if (req.deadline_ms > 0.0 && tier != ServeTier::kPopularity &&
      TierLatencyEwmaMs(tier) > req.deadline_ms) {
    return ServeTier::kPopularity;
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

void RecommendService::EnsurePanel(
    const std::shared_ptr<const FactorModel>& model) {
  if (panel_.model == model) return;
  Stopwatch sw;
  const Matrix& u2 = model->u2;
  const size_t num_pois = u2.rows();
  const size_t r = u2.cols();
  const size_t groups = (num_pois + kPanelLanes - 1) / kPanelLanes;
  panel_.lanes.assign(groups * r * kPanelLanes, 0.0f);
  // Per-group largest squared row norm and f32 finiteness; max and AND
  // are exact, so the result does not depend on the decomposition.
  std::vector<double> norm2(groups, 0.0);
  std::vector<uint8_t> finite(groups, 1);
  ParallelFor(groups, 512, [&](size_t begin, size_t end, size_t) {
    for (size_t g = begin; g < end; ++g) {
      float* lanes = panel_.lanes.data() + g * r * kPanelLanes;
      for (size_t l = 0; l < kPanelLanes; ++l) {
        const size_t j = g * kPanelLanes + l;
        if (j >= num_pois) break;
        const double* row = u2.row(j);
        double ss = 0.0;
        for (size_t t = 0; t < r; ++t) {
          const float v = static_cast<float>(row[t]);
          lanes[t * kPanelLanes + l] = v;
          if (!std::isfinite(v)) finite[g] = 0;
          ss += row[t] * row[t];
        }
        norm2[g] = std::max(norm2[g], ss);
      }
    }
  });
  panel_.max_row_norm =
      std::sqrt(*std::max_element(norm2.begin(), norm2.end()));
  panel_.representable =
      std::find(finite.begin(), finite.end(), 0) == finite.end();
  panel_.model = model;
  panel_bytes_gauge_->Set(
      static_cast<double>(panel_.lanes.size() * sizeof(float)));
  panel_build_hist_->Record(sw.ElapsedMillis());
}

bool RecommendService::ShortList(const KernelTable& kernels,
                                 const std::vector<double>& q, size_t k,
                                 std::span<const uint32_t> visited,
                                 std::vector<uint32_t>* out) const {
  if (!panel_.representable) return false;
  // E bounds |f32 panel score − f64 chain score| for every POI (DESIGN.md
  // §13): both differ from the exact dot product by at most a γ_r
  // multiple of Σ|U2[j,t] q_t| ≤ M‖q‖₂, plus the two f32 conversions and
  // an underflow term; 1 + 2^-16 absorbs the rounding of E, M, ‖q‖₂ and
  // τ − 2E themselves.
  const size_t r = q.size();
  std::vector<float> q32(r);
  double qq = 0.0;
  for (size_t t = 0; t < r; ++t) {
    q32[t] = static_cast<float>(q[t]);
    qq += q[t] * q[t];
  }
  const double qn = std::sqrt(qq);
  const double m = panel_.max_row_norm;
  const double rr = static_cast<double>(r);
  const double g32 = rr * kU32 / (1.0 - rr * kU32);
  const double g64 = rr * kU64 / (1.0 - rr * kU64);
  const double e =
      ((g32 * (1.0 + kU32) * (1.0 + kU32) + 2.0 * kU32 + kU32 * kU32 + g64) *
           m * qn +
       kUnderflow * rr * (1.0 + m + qn)) *
      (1.0 + 0x1p-16);
  // A query beyond f32 range, or one whose f32 chain could overflow: no
  // bound, scan in f64. Written so a NaN fails too.
  if (!(std::isfinite(e) && qn <= FLT_MAX / 2 && m * qn <= FLT_MAX / 4)) {
    return false;
  }
  const double two_e = 2.0 * e;

  const size_t num_pois = panel_.model->u2.rows();
  const size_t groups = (num_pois + kPanelLanes - 1) / kPanelLanes;
  k = std::min(k, num_pois);  // k comes from outside; it may be huge
  std::vector<float> best;  // min-heap of the k best eligible f32 scores
  best.reserve(k);
  std::vector<std::pair<uint32_t, float>> kept;
  float cut = -std::numeric_limits<float>::infinity();  // τ − 2E
  auto next_visited = visited.begin();
  float scores[kScanBlock * kPanelLanes];
  for (size_t g0 = 0; g0 < groups; g0 += kScanBlock) {
    const size_t ng = std::min(kScanBlock, groups - g0);
    kernels.panel_scores(panel_.lanes.data() + g0 * r * kPanelLanes, ng,
                         q32.data(), r, scores);
    const size_t j0 = g0 * kPanelLanes;
    const size_t j_end = std::min(num_pois, j0 + ng * kPanelLanes);
    for (size_t j = j0; j < j_end; ++j) {
      const float f = scores[j - j0];
      if (f < cut) continue;
      // Visited POIs leave before they can raise τ, so a user who visited
      // the best POIs still gets k answers.
      while (next_visited != visited.end() && *next_visited < j) {
        ++next_visited;
      }
      if (next_visited != visited.end() && *next_visited == j) continue;
      kept.emplace_back(static_cast<uint32_t>(j), f);
      if (best.size() < k) {
        best.push_back(f);
        std::push_heap(best.begin(), best.end(), std::greater<float>());
      } else if (f > best.front()) {
        std::pop_heap(best.begin(), best.end(), std::greater<float>());
        best.back() = f;
        std::push_heap(best.begin(), best.end(), std::greater<float>());
      } else {
        continue;
      }
      if (best.size() == k) {
        cut = CeilToFloat(static_cast<double>(best.front()) - two_e);
      }
    }
  }
  out->clear();
  for (const auto& [j, f] : kept) {
    if (f >= cut) out->push_back(j);
  }
  return true;
}

bool RecommendService::PlanScore(
    const ServeRequest& req, const std::shared_ptr<const FactorModel>& model,
    const std::vector<double>& q, std::vector<uint32_t>* cands) {
  bool restricted = false;
  if (!req.candidates.empty()) {
    *cands = req.candidates;
    std::sort(cands->begin(), cands->end());
    cands->erase(std::unique(cands->begin(), cands->end()), cands->end());
    restricted = true;
  }
  if (req.within_km > 0.0 && geo_grid_ != nullptr) {
    std::vector<uint32_t> fence =
        geo_grid_->WithinRadius(req.center, req.within_km);
    *cands = restricted ? IntersectSorted(*cands, fence) : std::move(fence);
    restricted = true;
    geo_fenced_counter_->Add(1);
  }
  // An unrestricted factor-scored request scans the panel of its model.
  if (!q.empty() && !restricted) EnsurePanel(model);
  return restricted;
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
    bool valid = false;  ///< false: invalid request, empty answer
    ServeTier tier = ServeTier::kPopularity;
    /// Composed query q_t = h_t * u_t * U3[k,t]; empty for popularity.
    std::vector<double> q;
    bool restricted = false;      ///< has candidates and/or a geo fence
    std::vector<uint32_t> cands;  ///< the restriction, sorted and unique
    bool scanned = false;   ///< ranked the panel scan's short list
    size_t short_list = 0;  ///< its length, recorded serially in phase 3
  };
  std::vector<Plan> plans(reqs.size());
  // Tiers the deadline budget skipped in this batch (decayed in phase 3).
  bool skipped[kNumServeTiers] = {};

  // Phase 1 — serial: validation, tier choice with deadline degradation,
  // fold-in solves, query composition, restrictions (candidates, geo
  // fence) and the panel a scan reads, rebuilt once per model generation.
  // Every service-state mutation happens here, on the one serving thread;
  // the latency EWMAs change only in phase 3, so every request of a batch
  // is budgeted against the EWMAs from before it.
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
    const ServeTier chosen = ChooseTier(req, model, fold_in_);
    plan.tier = BudgetTier(req, chosen);
    if (plan.tier != chosen) {
      skipped[static_cast<int>(chosen)] = true;
      degrade_counter_->Add(1);
    }
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
    plan.restricted = PlanScore(req, model, plan.q, &plan.cands);
  }

  // Phase 2 — parallel scoring and top-k selection into disjoint slots.
  // Each request ranks the POIs it may answer with (its restriction, the
  // scan's short list, or the whole catalogue) minus its visited POIs;
  // every factor-scored answer is ranked by the f64 ascending-t chain.
  // The shard decomposition depends only on the batch size, never the
  // worker count, so a batch's answers are worker-count-invariant.
  const size_t num_pois = data_->num_pois();
  const KernelTable& kernels = ActiveKernels();
  const Matrix* u2 = model != nullptr ? &model->u2 : nullptr;
  ParallelFor(reqs.size(), 1, [&](size_t begin, size_t end, size_t) {
    for (size_t b = begin; b < end; ++b) {
      Plan& plan = plans[b];
      const ServeRequest& req = reqs[b];
      if (!plan.valid) continue;
      out[b].tier = plan.tier;
      if (req.k == 0) continue;
      const std::span<const uint32_t> visited =
          req.exclude_visited ? checkins_->Pois(req.user)
                              : std::span<const uint32_t>();
      // The POIs this request may answer with, minus its visited ones:
      // its restriction, the scan's short list, or the whole catalogue.
      std::vector<uint32_t> pool;
      bool whole = false;
      if (plan.restricted) {
        pool = Difference(plan.cands, visited);
      } else if (!plan.q.empty() &&
                 ShortList(kernels, plan.q, req.k, visited, &pool)) {
        plan.scanned = true;
        plan.short_list = pool.size();
      } else if (!visited.empty()) {
        std::vector<uint32_t> all(num_pois);
        std::iota(all.begin(), all.end(), 0u);
        pool = Difference(all, visited);
      } else {
        whole = true;
      }
      // An empty candidate list would mean the whole catalogue.
      if (pool.empty() && !whole) continue;
      TopKOptions topts;
      topts.k = req.k;
      topts.candidates = std::move(pool);
      const QueryScorer query(u2, &plan.q);
      out[b].recs = TopKRecommendations(
          plan.q.empty() ? static_cast<const Recommender&>(popularity_)
                         : query,
          req.user, req.time_bin, num_pois, topts);
    }
  });

  // Phase 3 — serial: latency accounting and short-list lengths. Each
  // request is charged the whole batch pass — that is the latency its
  // caller observed, and what the admission EWMA must predict for the
  // next arrival.
  const double ms = sw.ElapsedMillis();
  bool answered[kNumServeTiers] = {};
  for (size_t b = 0; b < reqs.size(); ++b) {
    if (!plans[b].valid) continue;
    out[b].latency_ms = ms;
    RecordLatency(plans[b].tier, ms);
    answered[static_cast<int>(plans[b].tier)] = true;
    if (plans[b].scanned) {
      short_list_hist_->Record(static_cast<double>(plans[b].short_list));
    }
  }
  // A skipped tier that answered nothing in this batch was not measured,
  // and without a sample one slow batch would lock every deadline request
  // out of it for good: decay its EWMA once, as one zero-latency sample
  // would, so it is measured again after a few such batches.
  for (int t = 0; t < kNumServeTiers; ++t) {
    if (!skipped[t] || answered[t]) continue;
    tier_ewma_ms_[t].store(
        (1.0 - kLatencyEwmaAlpha) *
            tier_ewma_ms_[t].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  return out;
}

void RecommendService::RecordLatency(ServeTier tier, double ms) {
  const int t = static_cast<int>(tier);
  // The EWMA stays the deadline-budget predictor (recency-weighted); the
  // histogram is the count and quantile source for Stats() and the JSON
  // snapshot.
  double ewma = ms;
  if (tier_ewma_valid_[t]) {
    ewma = (1.0 - kLatencyEwmaAlpha) * TierLatencyEwmaMs(tier) +
           kLatencyEwmaAlpha * ms;
  }
  tier_ewma_ms_[t].store(ewma, std::memory_order_relaxed);
  tier_ewma_valid_[t] = true;
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
