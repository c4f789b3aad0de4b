#ifndef TCSS_DATA_CSV_IO_H_
#define TCSS_DATA_CSV_IO_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace tcss {

/// Serializes a dataset into a directory as three CSV files:
///   pois.csv      poi_id,lat,lon,category
///   checkins.csv  user_id,poi_id,unix_seconds
///   friends.csv   user_id,friend_id  (one row per undirected edge, u < v)
/// The directory must already exist; files are overwritten.
Status SaveDatasetCsv(const Dataset& data, const std::string& dir);

/// How LoadDatasetCsv treats malformed rows.
enum class CsvLoadMode {
  /// Any bad row fails the whole load with a line-numbered error.
  kStrict,
  /// Bad rows are quarantined to "<dir>/quarantine.csv" (line number +
  /// reason + raw row) and counted; the load succeeds with the good rows
  /// unless more than CsvLoadOptions::max_bad_rows are quarantined.
  kLenient,
};

struct CsvLoadOptions {
  CsvLoadMode mode = CsvLoadMode::kStrict;
  /// Lenient mode only: quarantining more rows than this fails the load
  /// (a dataset that is mostly garbage should not limp into serving).
  size_t max_bad_rows = 1000;
};

/// Outcome of a lenient (or strict) load.
struct LoadReport {
  size_t pois_loaded = 0;
  size_t checkins_loaded = 0;
  size_t edges_loaded = 0;
  size_t bad_pois = 0;
  size_t bad_checkins = 0;
  size_t bad_edges = 0;
  /// "<dir>/quarantine.csv" when at least one row was quarantined,
  /// empty otherwise.
  std::string quarantine_path;

  size_t bad_rows() const { return bad_pois + bad_checkins + bad_edges; }
};

/// Timestamp sanity bounds for checkins.csv (years 1 .. 9999). Values are
/// parsed as int64 directly — "1.5e9"-style floats and anything that would
/// lose precision or overflow are rejected, not truncated.
inline constexpr int64_t kMinCheckinTimestamp = -62135596800;  // 0001-01-01
inline constexpr int64_t kMaxCheckinTimestamp = 253402300799;  // 9999-12-31

/// Loads a dataset previously written by SaveDatasetCsv (or hand-authored
/// in the same layout). `num_users` is inferred as 1 + max user id seen in
/// checkins.csv and friends.csv.
///
/// Validation applied in *both* modes (strict errors, lenient quarantines):
///   pois.csv      4 fields, ids dense ascending (one row per POI, in
///                 order), lat in [-90, 90], lon in [-180, 180], known
///                 category
///   checkins.csv  3 fields, integer ids, integer timestamp within
///                 [kMinCheckinTimestamp, kMaxCheckinTimestamp], POI id
///                 must refer to a loaded (non-quarantined) POI
///   friends.csv   2 fields, integer ids, no self-loops, no duplicate
///                 edges (in either orientation)
///
/// In lenient mode a quarantined POI row leaves a hole: surviving POIs are
/// re-indexed densely and check-ins referencing the hole are quarantined
/// too ("references quarantined poi").
Result<Dataset> LoadDatasetCsv(const std::string& dir,
                               const CsvLoadOptions& opts = {},
                               LoadReport* report = nullptr);

}  // namespace tcss

#endif  // TCSS_DATA_CSV_IO_H_
