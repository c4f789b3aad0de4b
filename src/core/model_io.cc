#include "core/model_io.h"

#include <cmath>

#include "common/strings.h"

namespace tcss {
namespace {

constexpr std::string_view kMagic("TCSSv3\0\0", 8);

}  // namespace

void PutModelDims(const FactorModel& model, std::string* out) {
  PutU64(model.u1.rows(), out);
  PutU64(model.u2.rows(), out);
  PutU64(model.u3.rows(), out);
  PutU64(model.rank(), out);
}

Status TakeModelDims(ByteCursor* in, ModelDims* dims) {
  if (!in->TakeU64(&dims->users) || !in->TakeU64(&dims->pois) ||
      !in->TakeU64(&dims->bins) || !in->TakeU64(&dims->rank)) {
    return Status::IOError("truncated header");
  }
  if (dims->users == 0 || dims->pois == 0 || dims->bins == 0 ||
      dims->rank == 0 || dims->users > kMaxModelDim ||
      dims->pois > kMaxModelDim || dims->bins > kMaxModelDim ||
      dims->rank > kMaxModelRank) {
    return Status::IOError("implausible dimensions");
  }
  return Status::OK();
}

Status ExpectRemaining(const ByteCursor& in, uint64_t want) {
  const uint64_t have = in.remaining();
  if (have < want) {
    return Status::IOError(StrFormat(
        "truncated factor data (%llu of %llu bytes)",
        static_cast<unsigned long long>(have),
        static_cast<unsigned long long>(want)));
  }
  if (have > want) {
    return Status::IOError(StrFormat(
        "%llu trailing bytes after factors",
        static_cast<unsigned long long>(have - want)));
  }
  return Status::OK();
}

Status TakeFiniteF64s(ByteCursor* in, double* out, size_t n) {
  if (!in->TakeF64s(out, n)) {
    return Status::IOError("truncated factor data");
  }
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(out[i])) {
      return Status::IOError("non-finite factor entry");
    }
  }
  return Status::OK();
}

std::string SerializeFactorModel(const FactorModel& model) {
  std::string out;
  out.reserve(kMagic.size() + 32 +
              8 * (model.h.size() + model.u1.size() + model.u2.size() +
                   model.u3.size()) +
              4);
  out.append(kMagic);
  PutModelDims(model, &out);
  PutFactorBlocks(model, &out);
  PutCrc32Trailer(&out);
  return out;
}

Status SaveFactorModel(const FactorModel& model, const std::string& path,
                       Env* env) {
  if (env == nullptr) env = Env::Default();
  return AtomicWriteFile(env, path, SerializeFactorModel(model));
}

Result<FactorModel> ParseFactorModelBytes(std::string_view bytes) {
  ByteCursor in;
  TCSS_RETURN_IF_ERROR(OpenSignedBytes(bytes, kMagic, &in));
  ModelDims dims;
  TCSS_RETURN_IF_ERROR(TakeModelDims(&in, &dims));
  TCSS_RETURN_IF_ERROR(ExpectRemaining(in, dims.BlockBytes()));
  FactorModel model;
  TCSS_RETURN_IF_ERROR(TakeFactorBlocks(&in, dims, &model));
  return model;
}

Status ValidateModelShape(const FactorModel& model, size_t num_users,
                          size_t num_pois, size_t num_bins) {
  if (model.u2.rows() != num_pois) {
    return Status::InvalidArgument(
        StrFormat("model has %zu POIs, dataset has %zu", model.u2.rows(),
                  num_pois));
  }
  if (model.u3.rows() != num_bins) {
    return Status::InvalidArgument(
        StrFormat("model has %zu time bins, granularity has %zu",
                  model.u3.rows(), num_bins));
  }
  if (model.u1.rows() == 0 || model.u1.rows() > num_users) {
    return Status::InvalidArgument(
        StrFormat("model covers %zu users, dataset has %zu",
                  model.u1.rows(), num_users));
  }
  return Status::OK();
}

Result<FactorModel> LoadFactorModel(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  auto contents = env->ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  auto model = ParseFactorModelBytes(contents.value());
  if (!model.ok()) {
    return Status::IOError(model.status().message() + " in " + path);
  }
  return model;
}

}  // namespace tcss
