#ifndef TCSS_CORE_CHECKPOINT_H_
#define TCSS_CORE_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "core/factor_model.h"

namespace tcss {

/// Everything needed to continue a training run bit-identically from the
/// end of some epoch: the model, the Adam moments + step counter, the
/// epoch number, the Hausdorff minibatch cursor, the negative-sampling
/// call counter, and the divergence-guard learning-rate scale. It is also
/// the live state of every run — TcssTrainer's and each DistWorker's — so
/// a snapshot is a Save() of it and a rollback is an assignment.
struct TrainerCheckpoint {
  TrainerCheckpoint() = default;
  /// The state before epoch 1: `start` with zeroed Adam moments.
  explicit TrainerCheckpoint(FactorModel start)
      : model(std::move(start)), adam_m(model), adam_v(model) {}

  FactorModel model;
  FactorGrads adam_m;
  FactorGrads adam_v;
  int64_t adam_t = 0;
  int epoch = 0;                 ///< epochs fully completed
  size_t hausdorff_rotation = 0;
  double lr_scale = 1.0;         ///< divergence-backoff multiplier
  /// WholeDataLoss::sampler_state() — the NegativeSamplingLoss call
  /// counter (0 for deterministic loss modes).
  uint64_t sampler_state = 0;
};

/// In-memory (de)serialization of the binary TCKPv2 checkpoint format:
/// an 8-byte magic, epoch, adam_t, rotation, lr_scale and sampler state,
/// the model dims, then the model, adam_m and adam_v blocks as raw
/// little-endian doubles, then a CRC-32 of every preceding byte. The
/// parse checks the CRC, the magic, the header bounds, the exact byte
/// count and finiteness, in that order (DESIGN.md §5).
std::string SerializeCheckpoint(const TrainerCheckpoint& ckpt);
Result<TrainerCheckpoint> ParseCheckpoint(std::string_view bytes);

/// Options for CheckpointManager.
struct CheckpointOptions {
  std::string dir;      ///< directory holding ckpt-<epoch>.tckp files
  int every = 10;       ///< snapshot period in epochs; 0 = final only
  int retain = 3;       ///< keep the newest N checkpoints (>= 1)
  Env* env = nullptr;   ///< defaults to Env::Default()

  /// Shard-aware naming for distributed training: shard `s` of
  /// `num_shards` writes "ckpt-<epoch>-s<s>of<N>.tckp" and only ever sees
  /// files carrying its own (s, N) tag, so every worker of a distributed
  /// run can share one directory without clobbering or loading each
  /// other's state. The default (shard 0 of 1) keeps the untagged
  /// "ckpt-<epoch>.tckp" names. Only the names are kept: a file written
  /// before the TCKPv2 format fails its magic check.
  int shard = 0;
  int num_shards = 1;
};

/// Writes and reads periodic training checkpoints crash-safely:
///
///  * Save() serializes to "<dir>/ckpt-<epoch>.tckp.tmp", then renames
///    onto the final name — a crash at any instant leaves either the old
///    set of checkpoints or the old set plus the complete new file, never
///    a torn one under the real name.
///  * Every file carries a CRC-32 trailer; LoadLatest() walks the directory
///    newest-first and returns the first checkpoint that passes both the
///    CRC and the structural parse, so stray corruption degrades to "resume
///    from one snapshot earlier" instead of a crash or silent garbage.
///  * After a successful save, checkpoints beyond `retain` are deleted
///    oldest-first; deletion failures are ignored (retention is advisory,
///    correctness never depends on it).
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointOptions options);

  /// Creates the checkpoint directory. Call once before Save().
  Status Init();

  /// True when the epoch loop should take a periodic snapshot after
  /// `epoch` completes. Never with `every` = 0; the final and stop
  /// snapshots are the trainer's to take regardless.
  bool ShouldSnapshot(int epoch) const {
    return options_.every > 0 && epoch % options_.every == 0;
  }

  /// Atomically writes ckpt-<epoch>.tckp and applies retention.
  Status Save(const TrainerCheckpoint& ckpt);

  /// Most recent checkpoint that validates; NotFound if none exists.
  Result<TrainerCheckpoint> LoadLatest() const;

  /// Loads and validates one specific file.
  Result<TrainerCheckpoint> Load(const std::string& path) const;

  /// Loads and validates the checkpoint of one specific epoch (under this
  /// manager's shard naming). The distributed recovery protocol uses this:
  /// the coordinator picks the newest epoch *every* worker has on disk,
  /// which is not necessarily any single worker's newest.
  Result<TrainerCheckpoint> LoadEpoch(int epoch) const {
    return Load(PathForEpoch(epoch));
  }

  /// Epochs of the on-disk checkpoint files, ascending (no validation).
  std::vector<int> ListEpochs() const;

  const CheckpointOptions& options() const { return options_; }

 private:
  std::string PathForEpoch(int epoch) const;

  CheckpointOptions options_;
};

}  // namespace tcss

#endif  // TCSS_CORE_CHECKPOINT_H_
