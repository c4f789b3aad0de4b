#include "core/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/codec.h"
#include "common/strings.h"
#include "core/model_io.h"

namespace tcss {
namespace {

constexpr std::string_view kMagic("TCKPv2\0\0", 8);
constexpr const char kFilePrefix[] = "ckpt-";
constexpr const char kFileSuffix[] = ".tckp";

// Leading decimal run of `*s`, consumed; false when there is none or the
// value is absurd.
bool TakeInt(std::string_view* s, int* out) {
  int value = 0;
  size_t used = 0;
  while (used < s->size()) {
    const char c = (*s)[used];
    if (c < '0' || c > '9') break;
    if (value > 100'000'000) return false;
    value = value * 10 + (c - '0');
    ++used;
  }
  if (used == 0) return false;
  s->remove_prefix(used);
  *out = value;
  return true;
}

// "ckpt-000123.tckp"       -> epoch 123 of shard 0-of-1 (legacy name)
// "ckpt-000123-s1of4.tckp" -> epoch 123 of shard 1-of-4
// Returns the epoch when the file belongs to shard `shard` of
// `num_shards`; -1 for other shards and non-checkpoint names.
int EpochFromName(const std::string& name, int shard, int num_shards) {
  const std::string_view prefix = kFilePrefix;
  const std::string_view suffix = kFileSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return -1;
  }
  std::string_view body(name.data() + prefix.size(),
                        name.size() - prefix.size() - suffix.size());
  int epoch = 0;
  if (!TakeInt(&body, &epoch)) return -1;
  int file_shard = 0, file_num_shards = 1;
  if (!body.empty()) {
    if (body.size() < 2 || body[0] != '-' || body[1] != 's') return -1;
    body.remove_prefix(2);
    if (!TakeInt(&body, &file_shard)) return -1;
    if (body.size() < 2 || body[0] != 'o' || body[1] != 'f') return -1;
    body.remove_prefix(2);
    if (!TakeInt(&body, &file_num_shards)) return -1;
    if (!body.empty()) return -1;
  }
  if (file_shard != shard || file_num_shards != num_shards) return -1;
  return epoch;
}

}  // namespace

std::string SerializeCheckpoint(const TrainerCheckpoint& ckpt) {
  std::string out(kMagic);
  PutU64(static_cast<uint64_t>(ckpt.epoch), &out);
  PutU64(static_cast<uint64_t>(ckpt.adam_t), &out);
  PutU64(ckpt.hausdorff_rotation, &out);
  PutF64(ckpt.lr_scale, &out);
  PutU64(ckpt.sampler_state, &out);
  PutModelDims(ckpt.model, &out);
  PutFactorBlocks(ckpt.model, &out);
  PutFactorBlocks(ckpt.adam_m, &out);
  PutFactorBlocks(ckpt.adam_v, &out);
  PutCrc32Trailer(&out);
  return out;
}

Result<TrainerCheckpoint> ParseCheckpoint(std::string_view bytes) {
  // Integrity first: any truncation or corruption anywhere in the file
  // fails the CRC before a single field is trusted.
  ByteCursor in;
  TCSS_RETURN_IF_ERROR(OpenSignedBytes(bytes, kMagic, &in));
  TrainerCheckpoint ckpt;
  uint64_t epoch = 0, adam_t = 0, rotation = 0;
  if (!in.TakeU64(&epoch) || !in.TakeU64(&adam_t) ||
      !in.TakeU64(&rotation) || !in.TakeF64(&ckpt.lr_scale) ||
      !in.TakeU64(&ckpt.sampler_state)) {
    return Status::IOError("truncated checkpoint header");
  }
  if (epoch > 100'000'000) return Status::IOError("bad epoch field");
  if (adam_t > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Status::IOError("bad adam_t field");
  }
  if (!std::isfinite(ckpt.lr_scale) || ckpt.lr_scale <= 0.0) {
    return Status::IOError("bad lr_scale field");
  }
  ckpt.epoch = static_cast<int>(epoch);
  ckpt.adam_t = static_cast<int64_t>(adam_t);
  ckpt.hausdorff_rotation = rotation;
  ModelDims dims;
  TCSS_RETURN_IF_ERROR(TakeModelDims(&in, &dims));
  TCSS_RETURN_IF_ERROR(ExpectRemaining(in, 3 * dims.BlockBytes()));
  TCSS_RETURN_IF_ERROR(TakeFactorBlocks(&in, dims, &ckpt.model));
  TCSS_RETURN_IF_ERROR(TakeFactorBlocks(&in, dims, &ckpt.adam_m));
  TCSS_RETURN_IF_ERROR(TakeFactorBlocks(&in, dims, &ckpt.adam_v));
  return ckpt;
}

CheckpointManager::CheckpointManager(CheckpointOptions options)
    : options_(std::move(options)) {
  if (options_.env == nullptr) options_.env = Env::Default();
  if (options_.retain < 1) options_.retain = 1;
  if (options_.num_shards < 1) options_.num_shards = 1;
  if (options_.shard < 0 || options_.shard >= options_.num_shards) {
    options_.shard = 0;
  }
}

Status CheckpointManager::Init() {
  if (options_.dir.empty()) {
    return Status::InvalidArgument("checkpoint dir is empty");
  }
  return options_.env->CreateDirs(options_.dir);
}

std::string CheckpointManager::PathForEpoch(int epoch) const {
  // Untagged names when unsharded. Only the name is kept: a file written
  // before the TCKPv2 format fails its magic check.
  const std::string tag =
      options_.num_shards > 1
          ? StrFormat("-s%dof%d", options_.shard, options_.num_shards)
          : std::string();
  return options_.dir + "/" +
         StrFormat("%s%06d%s%s", kFilePrefix, epoch, tag.c_str(),
                   kFileSuffix);
}

std::vector<int> CheckpointManager::ListEpochs() const {
  std::vector<int> epochs;
  auto names = options_.env->ListDir(options_.dir);
  if (!names.ok()) return epochs;
  for (const std::string& name : names.value()) {
    const int e = EpochFromName(name, options_.shard, options_.num_shards);
    if (e >= 0) epochs.push_back(e);
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

Status CheckpointManager::Save(const TrainerCheckpoint& ckpt) {
  TCSS_RETURN_IF_ERROR(AtomicWriteFile(options_.env, PathForEpoch(ckpt.epoch),
                                       SerializeCheckpoint(ckpt)));
  // Retention. Best-effort: a file that refuses to die must not fail the
  // save that just succeeded.
  std::vector<int> epochs = ListEpochs();
  if (epochs.size() > static_cast<size_t>(options_.retain)) {
    for (size_t i = 0; i + options_.retain < epochs.size(); ++i) {
      (void)options_.env->DeleteFile(PathForEpoch(epochs[i]));
    }
  }
  return Status::OK();
}

Result<TrainerCheckpoint> CheckpointManager::Load(
    const std::string& path) const {
  auto contents = options_.env->ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  auto ckpt = ParseCheckpoint(contents.value());
  if (!ckpt.ok()) {
    return Status::IOError(ckpt.status().message() + " in " + path);
  }
  return ckpt;
}

Result<TrainerCheckpoint> CheckpointManager::LoadLatest() const {
  std::vector<int> epochs = ListEpochs();
  if (epochs.empty()) {
    return Status::NotFound("no checkpoint in " + options_.dir);
  }
  // Newest first; skip over torn or corrupt files so one bad snapshot
  // costs `every` epochs of progress, not the whole run.
  std::string newest_error;
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    auto ckpt = Load(PathForEpoch(*it));
    if (ckpt.ok()) return ckpt;
    if (newest_error.empty()) newest_error = ckpt.status().message();
  }
  // Files exist but every one is corrupt: IOError, not NotFound, so a
  // resume surfaces the damage instead of silently cold-starting.
  return Status::IOError(StrFormat(
      "all %zu checkpoint file(s) in %s are corrupt (newest: %s)",
      epochs.size(), options_.dir.c_str(), newest_error.c_str()));
}

}  // namespace tcss
