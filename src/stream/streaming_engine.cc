#include "stream/streaming_engine.h"

#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/model_io.h"
#include "core/trainer.h"
#include "data/tensor_builder.h"

namespace tcss {
namespace {

/// A periodic publish that fails does not fail the ingest that triggered
/// it: the check-in is already stored and folded, so it is acknowledged,
/// and the publish runs again at the next trigger.
void LogUnpublished(const char* what, uint64_t seq, const Status& st) {
  if (st.ok()) return;
  TCSS_LOG(Warning) << what << " due at ingest " << seq
                    << " not published, retried at the next trigger: "
                    << st.ToString();
}

}  // namespace

StreamingEngine::StreamingEngine(const Dataset& data, ModelWatcher* watcher,
                                 const Options& opts)
    : data_(&data),
      watcher_(watcher),
      opts_(opts),
      env_(opts.env != nullptr ? opts.env : Env::Default()),
      delta_(data.num_users(), data.num_pois()),
      roller_(NumBins(opts.granularity)),
      base_poi_counts_(data.num_pois(), 0),
      delta_poi_counts_(data.num_pois(), 0) {
  for (const CheckInEvent& e : data.checkins()) {
    if (e.poi < base_poi_counts_.size()) {
      ++base_poi_counts_[e.poi];
      ++base_total_;
    }
  }
  obs::MetricRegistry* reg =
      opts_.metrics != nullptr ? opts_.metrics : obs::MetricRegistry::Global();
  ingested_counter_ = reg->GetCounter("stream.ingested");
  rejected_counter_ = reg->GetCounter("stream.rejected");
  folded_counter_ = reg->GetCounter("stream.folded");
  rollover_counter_ = reg->GetCounter("stream.rollovers");
  refine_counter_ = reg->GetCounter("stream.refines");
  refine_ms_hist_ = reg->GetHistogram("stream.refine_ms");
  drift_gauge_ = reg->GetGauge("stream.drift");
}

Result<uint64_t> StreamingEngine::Ingest(const ServeRequest& req) {
  if (req.verb != ServeVerb::kIngest) {
    return Status::InvalidArgument("StreamingEngine::Ingest needs an ingest request");
  }
  auto seq = delta_.Append(req.user, req.poi, req.timestamp);
  if (!seq.ok()) {
    rejected_counter_->Add(1);
    return seq;
  }
  ingested_counter_->Add(1);
  if (fold_in_.Append(req.user, req.poi,
                      TimeBin(req.timestamp, opts_.granularity))) {
    folded_counter_->Add(1);
  }
  ++delta_poi_counts_[req.poi];
  ++delta_total_;
  const uint64_t accepted = seq.value();
  // The drift gauge is O(J) to evaluate, so refresh it on a stride rather
  // than per event (and at every publish point below).
  if ((accepted & 0xFF) == 0) UpdateDriftGauge();
  if (opts_.rollover_every > 0 && accepted % opts_.rollover_every == 0) {
    LogUnpublished("rollover", accepted, Rollover());
  }
  if (opts_.refine_every > 0 && accepted % opts_.refine_every == 0) {
    LogUnpublished("refine", accepted, Refine());
  }
  return accepted;
}

Status StreamingEngine::Rollover() {
  if (opts_.model_path.empty()) {
    return Status::FailedPrecondition("rollover needs a model publish path");
  }
  std::shared_ptr<const FactorModel> live = watcher_->current();
  if (live == nullptr) {
    return Status::FailedPrecondition("rollover needs a live model");
  }
  SliceRoller next = roller_;
  SliceRoller::Rolled rolled = next.Roll(*live);
  TCSS_RETURN_IF_ERROR(SaveFactorModel(rolled.model, opts_.model_path, env_));
  roller_ = next;
  delta_.DropBin(rolled.retired_bin, opts_.granularity);
  fold_in_.RetireBin(rolled.retired_bin);
  // Rebuild the delta histogram from the surviving events (DropBin removed
  // an unknown per-POI subset).
  std::fill(delta_poi_counts_.begin(), delta_poi_counts_.end(), 0);
  delta_total_ = 0;
  for (const CheckInEvent& e : delta_.Snapshot()) {
    ++delta_poi_counts_[e.poi];
    ++delta_total_;
  }
  watcher_->Poll();
  rollover_counter_->Add(1);
  UpdateDriftGauge();
  return Status::OK();
}

Status StreamingEngine::Refine() {
  if (opts_.model_path.empty()) {
    return Status::FailedPrecondition("refine needs a model publish path");
  }
  Stopwatch timer;
  std::vector<CheckInEvent> merged = data_->checkins();
  const std::vector<CheckInEvent> delta = delta_.Snapshot();
  merged.insert(merged.end(), delta.begin(), delta.end());
  auto tensor = BuildCheckinTensor(*data_, merged, opts_.granularity);
  TCSS_RETURN_IF_ERROR(tensor.status());
  const SparseTensor& full = tensor.value();
  TrainOptions train;
  train.checkpoints = opts_.refiner.checkpoints;
  train.resume = opts_.refiner.resume;
  train.stop = opts_.refiner.stop;
  // The trainer refuses a warm start of the wrong shape; refine such a
  // live model from a cold start instead.
  std::shared_ptr<const FactorModel> live = watcher_->current();
  if (live != nullptr && live->rank() == opts_.refiner.config.rank &&
      live->u1.rows() == full.dim_i() && live->u2.rows() == full.dim_j() &&
      live->u3.rows() == full.dim_k()) {
    train.warm_start = live.get();
  }
  auto refined =
      TcssTrainer(*data_, full, opts_.refiner.config).Train(train, nullptr);
  TCSS_RETURN_IF_ERROR(refined.status());
  TCSS_RETURN_IF_ERROR(SaveFactorModel(refined.value(), opts_.model_path, env_));
  watcher_->Poll();
  refine_counter_->Add(1);
  refine_ms_hist_->Record(timer.ElapsedMillis());
  UpdateDriftGauge();
  return Status::OK();
}

double StreamingEngine::DriftScore() const {
  if (base_total_ == 0 || delta_total_ == 0) return 0.0;
  double l1 = 0.0;
  for (size_t j = 0; j < base_poi_counts_.size(); ++j) {
    const double p =
        static_cast<double>(base_poi_counts_[j]) / static_cast<double>(base_total_);
    const double q = static_cast<double>(delta_poi_counts_[j]) /
                     static_cast<double>(delta_total_);
    l1 += std::fabs(p - q);
  }
  return 0.5 * l1;
}

void StreamingEngine::UpdateDriftGauge() { drift_gauge_->Set(DriftScore()); }

StreamingEngine::Stats StreamingEngine::stats() const {
  Stats s;
  s.accepted = ingested_counter_->Value();
  s.rejected = rejected_counter_->Value();
  s.folded = folded_counter_->Value();
  s.rollovers = rollover_counter_->Value();
  s.refinements = refine_counter_->Value();
  return s;
}

}  // namespace tcss
