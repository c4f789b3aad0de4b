#include "serve/model_watcher.h"

#include <functional>
#include <string_view>
#include <utility>

#include "core/model_io.h"

namespace tcss {

ModelWatcher::ModelWatcher(std::string path, const Options& opts)
    : path_(std::move(path)),
      env_(opts.env != nullptr ? opts.env : Env::Default()),
      num_users_(opts.num_users),
      num_pois_(opts.num_pois),
      num_bins_(opts.num_bins) {
  obs::MetricRegistry* reg =
      opts.metrics != nullptr ? opts.metrics : obs::MetricRegistry::Global();
  reload_success_counter_ = reg->GetCounter("serve.reload.successes");
  reload_reject_counter_ = reg->GetCounter("serve.reload.rejects");
  reload_unchanged_counter_ = reg->GetCounter("serve.reload.unchanged");
  reload_missing_counter_ = reg->GetCounter("serve.reload.missing");
}

std::shared_ptr<const FactorModel> ModelWatcher::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t ModelWatcher::reload_successes() const {
  return reload_success_counter_->Value();
}

uint64_t ModelWatcher::reload_rejects() const {
  return reload_reject_counter_->Value();
}

ModelWatcher::PollResult ModelWatcher::Reject(size_t hash, size_t size,
                                              Status why) {
  reload_reject_counter_->Add(1);
  has_rejected_ = true;
  rejected_hash_ = hash;
  rejected_size_ = size;
  stale_ = true;
  last_error_ = std::move(why);
  return PollResult::kRejected;
}

ModelWatcher::PollResult ModelWatcher::Poll() {
  if (!env_->FileExists(path_)) {
    // Explicit unserve: drop the model so the service degrades openly
    // instead of silently serving a file an operator removed.
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_.reset();
    }
    has_live_ = false;
    has_rejected_ = false;
    stale_ = false;
    last_error_ = Status::NotFound("model file missing: " + path_);
    reload_missing_counter_->Add(1);
    return PollResult::kMissing;
  }

  auto read = env_->ReadFileToString(path_);
  if (!read.ok()) {
    // A failed read has no bytes to fingerprint; count it every time.
    reload_reject_counter_->Add(1);
    stale_ = true;
    last_error_ = read.status();
    return PollResult::kRejected;
  }
  const std::string& bytes = read.value();
  const size_t hash = std::hash<std::string_view>{}(bytes);

  if (has_live_ && hash == live_hash_ && bytes.size() == live_size_) {
    stale_ = false;
    reload_unchanged_counter_->Add(1);
    return PollResult::kUnchanged;
  }
  if (has_rejected_ && hash == rejected_hash_ &&
      bytes.size() == rejected_size_) {
    return PollResult::kRejected;  // same bad bytes; already counted
  }

  auto model = ParseFactorModelBytes(bytes);
  if (!model.ok()) {
    return Reject(hash, bytes.size(), model.status());
  }
  Status shape =
      ValidateModelShape(model.value(), num_users_, num_pois_, num_bins_);
  if (!shape.ok()) {
    return Reject(hash, bytes.size(), std::move(shape));
  }

  auto fresh = std::make_shared<const FactorModel>(model.MoveValue());
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(fresh);
  }
  has_live_ = true;
  live_hash_ = hash;
  live_size_ = bytes.size();
  has_rejected_ = false;
  stale_ = false;
  reload_success_counter_->Add(1);
  ++generation_;
  last_error_ = Status::OK();
  return PollResult::kReloaded;
}

}  // namespace tcss
