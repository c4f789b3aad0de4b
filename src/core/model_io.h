#ifndef TCSS_CORE_MODEL_IO_H_
#define TCSS_CORE_MODEL_IO_H_

#include <string>
#include <string_view>

#include "common/codec.h"
#include "common/env.h"
#include "common/status.h"
#include "core/factor_model.h"

namespace tcss {

/// Saves a trained FactorModel in the binary TCSSv3 format (DESIGN.md §5):
/// an 8-byte magic, the dims I J K r as u64, then h, U1, U2, U3 as raw
/// little-endian doubles (row-major), then a CRC-32 of every preceding
/// byte. The write is crash-safe: bytes go to "<path>.tmp" which is
/// renamed onto `path` only after a successful close, so a crash mid-save
/// leaves any previous file at `path` intact. `env` defaults to
/// Env::Default().
Status SaveFactorModel(const FactorModel& model, const std::string& path,
                       Env* env = nullptr);

/// Loads a FactorModel written by SaveFactorModel; every check of
/// ParseFactorModelBytes applies.
Result<FactorModel> LoadFactorModel(const std::string& path,
                                    Env* env = nullptr);

/// The bytes SaveFactorModel writes.
std::string SerializeFactorModel(const FactorModel& model);

/// Parses the bytes of a TCSSv3 file. Checks, in order: the CRC, the
/// magic, the header bounds (kMaxModelDim, kMaxModelRank, no zero dim),
/// that the file holds exactly the bytes its header implies (before any
/// allocation), and that every entry is finite. The serving hot-reload
/// path reads the file exactly once and validates the very bytes it will
/// swap in, so a file mutated between a "validate" read and a "load" read
/// can never slip through (no TOCTOU window).
Result<FactorModel> ParseFactorModelBytes(std::string_view bytes);

/// Shape compatibility of a loaded model with a serving dataset: U2/U3
/// must match the POI count and time-bin count exactly; U1 may cover a
/// *prefix* of the users (users registered after the model was trained are
/// served by fold-in instead).
Status ValidateModelShape(const FactorModel& model, size_t num_users,
                          size_t num_pois, size_t num_bins);

// --- Building blocks shared with the checkpoint format ---

/// Largest per-mode dimension / rank accepted by the loaders. Generous for
/// any realistic LBSN, small enough that a corrupt header cannot OOM.
inline constexpr size_t kMaxModelDim = 50'000'000;
inline constexpr size_t kMaxModelRank = 4096;

/// The dims header: I, J, K and r, each a u64.
struct ModelDims {
  uint64_t users = 0;
  uint64_t pois = 0;
  uint64_t bins = 0;
  uint64_t rank = 0;

  /// Bytes of one h/U1/U2/U3 block set, (I + J + K + 1) * r doubles.
  /// Cannot overflow once TakeModelDims has bounded the dims.
  uint64_t BlockBytes() const { return (users + pois + bins + 1) * rank * 8; }
};
static_assert((3 * uint64_t{kMaxModelDim} + 1) * kMaxModelRank * 8 * 3 <
                  (uint64_t{1} << 62),
              "three block sets at the caps must fit a u64 byte count");

void PutModelDims(const FactorModel& model, std::string* out);

/// Reads the dims header; rejects a zero dim or rank and anything over
/// kMaxModelDim / kMaxModelRank ("implausible dimensions").
Status TakeModelDims(ByteCursor* in, ModelDims* dims);

/// The exact-size check: the unread bytes must be exactly `want`.
Status ExpectRemaining(const ByteCursor& in, uint64_t want);

/// Reads `n` doubles; fails on a short buffer or a non-finite entry.
Status TakeFiniteF64s(ByteCursor* in, double* out, size_t n);

/// h, U1, U2, U3 of a FactorModel or FactorGrads, as raw doubles.
template <typename Blocks>
void PutFactorBlocks(const Blocks& b, std::string* out) {
  PutF64s(b.h.data(), b.h.size(), out);
  PutF64s(b.u1.data(), b.u1.size(), out);
  PutF64s(b.u2.data(), b.u2.size(), out);
  PutF64s(b.u3.data(), b.u3.size(), out);
}

template <typename Blocks>
Status TakeFactorBlocks(ByteCursor* in, const ModelDims& d, Blocks* b) {
  b->h.resize(d.rank);
  b->u1.Resize(d.users, d.rank);
  b->u2.Resize(d.pois, d.rank);
  b->u3.Resize(d.bins, d.rank);
  TCSS_RETURN_IF_ERROR(TakeFiniteF64s(in, b->h.data(), b->h.size()));
  TCSS_RETURN_IF_ERROR(TakeFiniteF64s(in, b->u1.data(), b->u1.size()));
  TCSS_RETURN_IF_ERROR(TakeFiniteF64s(in, b->u2.data(), b->u2.size()));
  return TakeFiniteF64s(in, b->u3.data(), b->u3.size());
}

}  // namespace tcss

#endif  // TCSS_CORE_MODEL_IO_H_
