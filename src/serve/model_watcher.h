#ifndef TCSS_SERVE_MODEL_WATCHER_H_
#define TCSS_SERVE_MODEL_WATCHER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/env.h"
#include "core/factor_model.h"
#include "obs/metrics.h"

namespace tcss {

/// Watches a model file and hot-reloads it for the serving path.
///
/// Every Poll() reads the file through the Env abstraction (so
/// FaultInjectionEnv can fail or tear the read), fully validates the bytes
/// *off the serving path* — CRC trailer, magic, structural bounds, exact
/// size, finite entries, shape against the serving dataset — and only
/// then publishes the new model by swapping a shared_ptr under a mutex.
/// In-flight queries hold their own shared_ptr copy, so a swap never
/// invalidates a query that is mid-scoring, and a corrupt or half-written
/// file is rejected, counted (serve.reload.rejects), and the previous
/// model stays live.
///
/// State machine (drives ServeHealth):
///
///   (no model) --valid file--> LIVE --reject--> STALE --valid--> LIVE
///       ^                        |                 |
///       +------file deleted------+-----------------+
///
/// Deleting the file is treated as an explicit operator action ("unserve
/// this model") and unloads it; a *corrupt* file is treated as an accident
/// and the last good model keeps serving.
class ModelWatcher {
 public:
  struct Options {
    Env* env = nullptr;    ///< defaults to Env::Default()
    size_t num_users = 0;  ///< serving dataset shape, for validation
    size_t num_pois = 0;
    size_t num_bins = 0;
    /// Registry for the serve.reload.* counters, the only record of the
    /// reload counts; null means the process-global registry.
    obs::MetricRegistry* metrics = nullptr;
  };

  ModelWatcher(std::string path, const Options& opts);

  /// One reload check. Cheap when the bytes are unchanged (hash + size
  /// compare against the live or last-rejected content); a repeated poll
  /// over the same bad file neither re-validates nor re-counts it.
  enum class PollResult { kUnchanged, kReloaded, kRejected, kMissing };
  PollResult Poll();

  /// The live model; null before the first successful load or after the
  /// file was deleted. Callers keep the returned shared_ptr for the
  /// duration of a query — the watcher may swap underneath them.
  std::shared_ptr<const FactorModel> current() const;

  /// True when the file's current content (or absence) does not match the
  /// live model — i.e. the last poll rejected a reload.
  bool stale() const { return stale_; }

  /// Bumped on every successful swap; lets per-model caches (fold-in
  /// embeddings) invalidate themselves.
  uint64_t generation() const { return generation_; }

  /// serve.reload.successes and serve.reload.rejects of the watcher's
  /// registry: they sum over every watcher sharing it, and the obs kill
  /// switch freezes them.
  uint64_t reload_successes() const;
  uint64_t reload_rejects() const;

  /// Status of the most recent rejected/missing poll; OK after a success.
  const Status& last_error() const { return last_error_; }

  const std::string& path() const { return path_; }

 private:
  PollResult Reject(size_t hash, size_t size, Status why);

  const std::string path_;
  Env* env_;
  const size_t num_users_, num_pois_, num_bins_;

  mutable std::mutex mu_;  ///< guards current_; the rest is single-writer
  std::shared_ptr<const FactorModel> current_;

  bool stale_ = false;
  uint64_t generation_ = 0;
  Status last_error_;

  // Content fingerprints (hash + size) to make polls idempotent. Not a
  // CRC-32 of the file: a valid TCSSv3 file ends in the CRC of the bytes
  // before it, and the CRC-32 of every such file is the same constant.
  bool has_live_ = false;
  size_t live_hash_ = 0;
  size_t live_size_ = 0;
  bool has_rejected_ = false;
  size_t rejected_hash_ = 0;
  size_t rejected_size_ = 0;

  // Reload counts (a repeated poll over the same bad bytes counts once —
  // except kMissing and kUnchanged, which count every poll: they describe
  // poll traffic, not distinct reload attempts).
  obs::Counter* reload_success_counter_;
  obs::Counter* reload_reject_counter_;
  obs::Counter* reload_unchanged_counter_;
  obs::Counter* reload_missing_counter_;
};

}  // namespace tcss

#endif  // TCSS_SERVE_MODEL_WATCHER_H_
