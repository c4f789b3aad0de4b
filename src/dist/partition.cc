#include "dist/partition.h"

#include <cstring>

#include "common/rng.h"

namespace tcss {
namespace {

/// Bump on any incompatible change to the wire protocol or the epoch
/// state machine: mixed-version fleets then refuse each other's kHello
/// instead of diverging mid-run.
constexpr uint64_t kDistProtocolVersion = 1;

uint64_t Mix(uint64_t acc, uint64_t v) {
  return Mix64(acc + 0x9e3779b97f4a7c15ULL + v);
}

uint64_t MixDouble(uint64_t acc, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(acc, bits);
}

}  // namespace

Result<SparseTensor> SliceTensorRows(const SparseTensor& full, size_t begin,
                                     size_t end) {
  if (!full.finalized()) {
    return Status::FailedPrecondition("SliceTensorRows: tensor not final");
  }
  if (begin > end || end > full.dim_i()) {
    return Status::InvalidArgument("SliceTensorRows: bad row range");
  }
  SparseTensor slice(end - begin, full.dim_j(), full.dim_k());
  for (const TensorEntry& e : full.entries()) {
    if (e.i < begin || e.i >= end) continue;
    TCSS_RETURN_IF_ERROR(slice.Add(static_cast<uint32_t>(e.i - begin), e.j,
                                   e.k, e.value));
  }
  TCSS_RETURN_IF_ERROR(slice.Finalize(/*binary=*/true));
  return slice;
}

bool ValidateDistConfig(const TcssConfig& config, int num_workers,
                        std::string* problem) {
  if (num_workers < 1) {
    *problem = "num_workers must be >= 1";
    return false;
  }
  if (config.loss_mode == LossMode::kNegativeSampling) {
    *problem =
        "distributed training requires a loss that decomposes over user "
        "row blocks (rewritten or naive); negative sampling draws "
        "different streams in one process than in many";
    return false;
  }
  const bool wants_hausdorff =
      config.lambda > 0.0 && (config.hausdorff == HausdorffMode::kSocial ||
                              config.hausdorff == HausdorffMode::kSelf);
  if (wants_hausdorff) {
    *problem =
        "the social Hausdorff head couples users across shards; "
        "distributed training requires lambda = 0 (or hausdorff mode "
        "none/zero-out)";
    return false;
  }
  if (num_workers > 1 && config.init == InitMethod::kSpectral) {
    *problem =
        "spectral init needs the full tensor in one process; multi-worker "
        "runs use random or one-hot init (reproducible from dims + seed)";
    return false;
  }
  return true;
}

uint64_t DistFingerprint(const TcssConfig& config, size_t dim_i, size_t dim_j,
                         size_t dim_k, int num_workers) {
  uint64_t acc = Mix(kDistProtocolVersion, 0x7c55);
  acc = Mix(acc, dim_i);
  acc = Mix(acc, dim_j);
  acc = Mix(acc, dim_k);
  acc = Mix(acc, static_cast<uint64_t>(num_workers));
  acc = Mix(acc, config.rank);
  acc = Mix(acc, static_cast<uint64_t>(config.epochs));
  acc = Mix(acc, config.seed);
  acc = Mix(acc, static_cast<uint64_t>(config.init));
  acc = Mix(acc, static_cast<uint64_t>(config.loss_mode));
  acc = MixDouble(acc, config.learning_rate);
  acc = MixDouble(acc, config.lr_step_factor);
  acc = MixDouble(acc, config.w_pos);
  acc = MixDouble(acc, config.w_neg);
  acc = MixDouble(acc, config.temporal_smoothness);
  return acc;
}

}  // namespace tcss
