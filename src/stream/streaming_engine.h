#ifndef TCSS_STREAM_STREAMING_ENGINE_H_
#define TCSS_STREAM_STREAMING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/incremental_fold_in.h"
#include "core/tcss_config.h"
#include "data/dataset.h"
#include "data/time_binning.h"
#include "obs/metrics.h"
#include "serve/model_watcher.h"
#include "serve/request.h"
#include "stream/delta_buffer.h"
#include "stream/slice_roller.h"

namespace tcss {

/// Bounded refinement (DESIGN.md §14). A streaming system's fold-in tier
/// keeps new users fresh but never touches U2/U3/h; StreamingEngine::
/// Refine closes that gap by running a *budgeted* number of full
/// TcssTrainer epochs over the delta-merged tensor, warm-started from the
/// currently served factors so a handful of epochs is enough to absorb the
/// delta instead of relearning from scratch.
struct RefinerOptions {
  /// Full training configuration; `config.epochs` IS the refinement
  /// budget (the CLI's --refine-budget). Everything else — rank, loss
  /// mode, learning rate, lambda — matches the offline trainer so a
  /// refined model is a valid TCSS model, just a few epochs newer.
  TcssConfig config;

  /// Crash safety rides the trainer's existing checkpoint machinery: a
  /// killed refinement resumes from its last snapshot and replays the
  /// exact floating-point trajectory (kill-and-resume bit-identity is
  /// locked in by stream_test). Not owned; null disables.
  CheckpointManager* checkpoints = nullptr;
  bool resume = false;

  /// Cooperative cancellation, forwarded to TrainOptions::stop.
  const std::atomic<bool>* stop = nullptr;
};

/// Online ingestion engine (DESIGN.md §14): the object behind the serving
/// front-end's `ingest` verb. It owns the three freshness mechanisms and
/// keys them off one counter of accepted check-ins:
///
///   every ingest      -> DeltaBuffer append + one IncrementalFoldIn
///                        rank-1 update (the user's next query reflects
///                        the check-in immediately);
///   every Nth ingest  -> SliceRoller retires the oldest time slice and
///                        publishes a model whose retiring U3 row is
///                        warm-started from its cyclic neighbours;
///   every Mth ingest  -> Refine runs a bounded number of full
///                        TcssTrainer epochs over the delta-merged tensor
///                        and publishes the result.
///
/// Publishing always goes through SaveFactorModel + ModelWatcher::Poll()
/// — the same validated hot-swap path an operator's offline retrain uses,
/// so a crash mid-publish leaves the previous model serving and a corrupt
/// write is rejected, never swapped.
///
/// Every count lives in the metric registry (Options::metrics) and
/// stats() reads it back from there; the engine keeps only the state that
/// drives it — the accept sequence number, the roller's next bin, the
/// fold-in sums and the drift histograms.
///
/// Threading: like the RecommendService, the engine is single-writer — the
/// serving dispatcher is the only thread that may call Ingest/Rollover/
/// Refine (the server routes ingest frames onto the dispatcher). The
/// DeltaBuffer itself is additionally thread-safe so tests and external
/// refinement drivers may Snapshot() concurrently.
class StreamingEngine {
 public:
  struct Options {
    TimeGranularity granularity = TimeGranularity::kMonthOfYear;

    /// Accepted ingests between automatic rollovers / refinements;
    /// 0 disables the automatic trigger (Rollover()/Refine() still work
    /// when called explicitly).
    uint64_t rollover_every = 0;
    uint64_t refine_every = 0;

    RefinerOptions refiner;

    /// Where rolled/refined models are published (normally the
    /// ModelWatcher's own path). Empty string: Rollover/Refine fail with
    /// FailedPrecondition instead of publishing.
    std::string model_path;

    obs::MetricRegistry* metrics = nullptr;  ///< null: process-global
    Env* env = nullptr;                      ///< null: Env::Default()
  };

  /// `data` and `watcher` must outlive the engine. `watcher` may have no
  /// live model yet; ingestion works regardless (fold-in binds lazily).
  StreamingEngine(const Dataset& data, ModelWatcher* watcher,
                  const Options& opts);

  /// The fold-in tier to hand to RecommendService::Options::incremental,
  /// whose Init binds the service's check-in tensor to it.
  IncrementalFoldIn* fold_in() { return &fold_in_; }
  DeltaBuffer* delta() { return &delta_; }

  /// One validated check-in (req.verb must be kIngest). Appends to the
  /// delta buffer, folds the cell into the user's incremental sums, and
  /// fires any due automatic rollover/refinement. Returns the accept
  /// sequence number once the event is stored — a due publish that fails
  /// is logged and runs again at the next trigger, so every stored
  /// check-in is acknowledged. OutOfRange for ids/timestamps the buffer
  /// rejects.
  Result<uint64_t> Ingest(const ServeRequest& req);

  /// Retires the next time slice: publishes a copy of the current model
  /// whose retiring U3 row is the mean of its cyclic neighbours, then
  /// drops that bin's events from the delta buffer and the fold-in state.
  /// The roller advances only once the publish is saved, so a failed
  /// rollover retires the same bin next time. FailedPrecondition when no
  /// model is live or no model_path is set.
  Status Rollover();

  /// Bounded refinement over the delta-merged tensor (base check-ins +
  /// delta snapshot, deduplicated by the tensor builder — the merge is
  /// canonical no matter how the delta arrived): a TcssTrainer run of
  /// Options::refiner, warm-started from the live model when its shape
  /// matches the merged tensor and the configured rank (cold otherwise,
  /// e.g. after the catalogue grew), published through the hot-swap path.
  Status Refine();

  /// Total-variation distance (0.5 * L1) between the POI visit
  /// distribution of the base dataset and of the delta buffer; 0 when
  /// either side is empty. The drift signal exported as `stream.drift`.
  double DriftScore() const;

  /// The engine's counts, read from its registry (field: metric). On the
  /// process-global registry they sum over every engine in the process,
  /// and the obs kill switch freezes them.
  struct Stats {
    uint64_t accepted = 0;     ///< stream.ingested: validated appends
    uint64_t rejected = 0;     ///< stream.rejected: refused by validation
    uint64_t folded = 0;       ///< stream.folded: new cells in user sums
    uint64_t rollovers = 0;    ///< stream.rollovers: published rollovers
    uint64_t refinements = 0;  ///< stream.refines: published refinements
  };
  Stats stats() const;

 private:
  void UpdateDriftGauge();

  const Dataset* data_;
  ModelWatcher* watcher_;
  Options opts_;
  Env* env_;

  DeltaBuffer delta_;
  IncrementalFoldIn fold_in_;
  SliceRoller roller_;

  /// POI visit histograms for DriftScore: base is fixed at construction,
  /// delta is maintained per accepted ingest (and rebuilt after DropBin).
  std::vector<uint64_t> base_poi_counts_;
  uint64_t base_total_ = 0;
  std::vector<uint64_t> delta_poi_counts_;
  uint64_t delta_total_ = 0;

  obs::Counter* ingested_counter_;
  obs::Counter* rejected_counter_;
  obs::Counter* folded_counter_;
  obs::Counter* rollover_counter_;
  obs::Counter* refine_counter_;
  obs::Histogram* refine_ms_hist_;
  obs::Gauge* drift_gauge_;
};

}  // namespace tcss

#endif  // TCSS_STREAM_STREAMING_ENGINE_H_
