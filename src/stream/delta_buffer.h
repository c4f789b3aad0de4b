#ifndef TCSS_STREAM_DELTA_BUFFER_H_
#define TCSS_STREAM_DELTA_BUFFER_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/time_binning.h"

namespace tcss {

/// Validated append-only buffer of streamed check-ins (DESIGN.md §14).
/// Everything that reaches this buffer has passed the same hardening as
/// the CSV loader: ids are bounds-checked against the serving dataset and
/// timestamps against the calendar range, so the delta-merge and the
/// incremental fold-in never see a forged or out-of-range event — the
/// wire path upstream (CRC frames + ParseRequestLine's exact integer
/// parses) rejects everything else before it gets here.
///
/// Thread-safe: the serving dispatcher appends while a background
/// refinement snapshots. Accepted events carry a monotone sequence
/// number (1-based), the reconciliation handle the `ingested seq=<n>`
/// wire ack exposes to clients.
class DeltaBuffer {
 public:
  DeltaBuffer(size_t num_users, size_t num_pois);

  /// Appends one validated check-in; returns its accept sequence number.
  /// OutOfRange for ids beyond the serving dataset or timestamps outside
  /// [kMinCheckinTimestamp, kMaxCheckinTimestamp] (rejects are never
  /// stored; the StreamingEngine counts them as stream.rejected).
  Result<uint64_t> Append(uint32_t user, uint32_t poi, int64_t timestamp);

  /// Copy of the buffered events, in accept order.
  std::vector<CheckInEvent> Snapshot() const;

  /// Drops every buffered event whose TimeBin(timestamp, g) equals `bin`
  /// (slice retirement). Returns the number dropped; accept order of the
  /// survivors is preserved.
  size_t DropBin(uint32_t bin, TimeGranularity g);

  size_t size() const;
  uint64_t accepted() const;  ///< total appends that validated (== last seq)

 private:
  const size_t num_users_;
  const size_t num_pois_;
  mutable std::mutex mu_;
  std::vector<CheckInEvent> events_;
  uint64_t accepted_ = 0;
};

}  // namespace tcss

#endif  // TCSS_STREAM_DELTA_BUFFER_H_
