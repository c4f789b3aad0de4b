#include "data/csv_io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/strings.h"

namespace tcss {
namespace {

Status OpenForRead(const std::string& path, std::ifstream* in) {
  in->open(path);
  if (!in->is_open()) {
    return Status::IOError("cannot open " + path);
  }
  return Status::OK();
}

/// A full disk (or any write error) must yield IOError, not a silently
/// truncated CSV: flush and inspect the stream state before returning.
Status CloseChecked(std::ofstream* out, const char* name) {
  out->flush();
  if (!out->good()) {
    return Status::IOError(std::string("write to ") + name + " failed");
  }
  return Status::OK();
}

/// Marker for a POI row that was quarantined: check-ins referencing it are
/// quarantined too instead of silently pointing at the wrong POI.
constexpr uint32_t kQuarantinedPoi = UINT32_MAX;

/// Routes bad rows either to a hard error (strict) or to
/// "<dir>/quarantine.csv" with a per-file budget (lenient).
class BadRowSink {
 public:
  BadRowSink(std::string dir, const CsvLoadOptions& opts)
      : dir_(std::move(dir)), opts_(opts) {}

  /// Records one bad row; bumps `*counter`. Non-OK return means the load
  /// must abort (strict mode, quarantine write failure, or the lenient
  /// bad-row budget is exhausted).
  Status Add(const char* file, size_t lineno, const char* reason,
             const std::string& raw, size_t* counter) {
    if (opts_.mode == CsvLoadMode::kStrict) {
      return Status::IOError(
          StrFormat("%s line %zu: %s", file, lineno, reason));
    }
    if (!out_.is_open()) {
      path_ = dir_ + "/quarantine.csv";
      out_.open(path_, std::ios::trunc);
      if (!out_.is_open()) {
        return Status::IOError("cannot write " + path_);
      }
      out_ << "file,line,reason,raw\n";
    }
    // `raw` goes last so its embedded commas stay parseable.
    out_ << file << ',' << lineno << ',' << reason << ',' << raw << '\n';
    ++count_;
    ++*counter;
    if (count_ > opts_.max_bad_rows) {
      return Status::IOError(StrFormat(
          "too many bad rows (%zu > max_bad_rows %zu), see %s", count_,
          opts_.max_bad_rows, path_.c_str()));
    }
    return Status::OK();
  }

  size_t count() const { return count_; }
  const std::string& path() const { return path_; }

  Status Flush() {
    if (!out_.is_open()) return Status::OK();
    return CloseChecked(&out_, "quarantine.csv");
  }

 private:
  const std::string dir_;
  const CsvLoadOptions& opts_;
  std::ofstream out_;
  std::string path_;
  size_t count_ = 0;
};

}  // namespace

Status SaveDatasetCsv(const Dataset& data, const std::string& dir) {
  {
    std::ofstream out(dir + "/pois.csv");
    if (!out.is_open()) return Status::IOError("cannot write pois.csv");
    out << "poi_id,lat,lon,category\n";
    for (uint32_t j = 0; j < data.num_pois(); ++j) {
      const Poi& p = data.poi(j);
      out << j << ',' << StrFormat("%.7f", p.location.lat) << ','
          << StrFormat("%.7f", p.location.lon) << ','
          << static_cast<int>(p.category) << '\n';
    }
    TCSS_RETURN_IF_ERROR(CloseChecked(&out, "pois.csv"));
  }
  {
    std::ofstream out(dir + "/checkins.csv");
    if (!out.is_open()) return Status::IOError("cannot write checkins.csv");
    out << "user_id,poi_id,unix_seconds\n";
    for (const auto& c : data.checkins()) {
      out << c.user << ',' << c.poi << ',' << c.timestamp << '\n';
    }
    TCSS_RETURN_IF_ERROR(CloseChecked(&out, "checkins.csv"));
  }
  {
    std::ofstream out(dir + "/friends.csv");
    if (!out.is_open()) return Status::IOError("cannot write friends.csv");
    out << "user_id,friend_id\n";
    for (uint32_t u = 0; u < data.num_users(); ++u) {
      for (const uint32_t* p = data.social().NeighborsBegin(u);
           p != data.social().NeighborsEnd(u); ++p) {
        if (u < *p) out << u << ',' << *p << '\n';
      }
    }
    TCSS_RETURN_IF_ERROR(CloseChecked(&out, "friends.csv"));
  }
  return Status::OK();
}

Result<Dataset> LoadDatasetCsv(const std::string& dir,
                               const CsvLoadOptions& opts,
                               LoadReport* report) {
  LoadReport local_report;
  if (report == nullptr) report = &local_report;
  *report = LoadReport();
  BadRowSink bad(dir, opts);

  std::vector<Poi> pois;
  // File row position -> dense POI index, or kQuarantinedPoi for a hole
  // left by a quarantined row.
  std::vector<uint32_t> poi_remap;
  {
    std::ifstream in;
    TCSS_RETURN_IF_ERROR(OpenForRead(dir + "/pois.csv", &in));
    std::string line;
    std::getline(in, line);  // header
    size_t lineno = 1;
    size_t row = 0;  // data-row position; doubles as the expected poi id
    while (std::getline(in, line)) {
      ++lineno;
      if (Trim(line).empty()) continue;
      auto f = Split(line, ',');
      size_t id = 0, cat = 0;
      double lat = 0, lon = 0;
      const char* reason = nullptr;
      if (f.size() != 4) {
        reason = "expected 4 fields";
      } else if (!ParseIndex(f[0], &id)) {
        reason = "bad poi id";
      } else if (id != row) {
        reason = "poi ids must be dense ascending";
      } else if (!ParseDouble(f[1], &lat) || !ParseDouble(f[2], &lon)) {
        reason = "bad coordinates";
      } else if (!(lat >= -90.0 && lat <= 90.0)) {
        reason = "lat out of range [-90,90]";
      } else if (!(lon >= -180.0 && lon <= 180.0)) {
        reason = "lon out of range [-180,180]";
      } else if (!ParseIndex(f[3], &cat) || cat >= kNumCategories) {
        reason = "bad category";
      }
      ++row;
      if (reason != nullptr) {
        TCSS_RETURN_IF_ERROR(
            bad.Add("pois.csv", lineno, reason, line, &report->bad_pois));
        poi_remap.push_back(kQuarantinedPoi);
        continue;
      }
      poi_remap.push_back(static_cast<uint32_t>(pois.size()));
      pois.push_back(
          {{lat, lon}, static_cast<PoiCategory>(static_cast<int>(cat))});
    }
  }

  struct RawCheckin {
    size_t user;
    uint32_t poi;  ///< dense (remapped) index
    int64_t ts;
  };
  std::vector<RawCheckin> raw;
  size_t max_user = 0;
  {
    std::ifstream in;
    TCSS_RETURN_IF_ERROR(OpenForRead(dir + "/checkins.csv", &in));
    std::string line;
    std::getline(in, line);
    size_t lineno = 1;
    while (std::getline(in, line)) {
      ++lineno;
      if (Trim(line).empty()) continue;
      auto f = Split(line, ',');
      size_t user = 0, poi = 0;
      int64_t ts = 0;
      const char* reason = nullptr;
      if (f.size() != 3) {
        reason = "expected 3 fields";
      } else if (!ParseIndex(f[0], &user) || user > UINT32_MAX) {
        reason = "bad user id";
      } else if (!ParseIndex(f[1], &poi)) {
        reason = "bad poi id";
      } else if (!ParseInt64(f[2], &ts)) {
        // int64 parse, not double-and-cast: "1.5e9" and values above 2^53
        // must be rejected, never silently rounded.
        reason = "timestamp must be integer unix seconds";
      } else if (ts < kMinCheckinTimestamp || ts > kMaxCheckinTimestamp) {
        reason = "timestamp out of range";
      } else if (poi >= poi_remap.size()) {
        reason = "unknown poi";
      } else if (poi_remap[poi] == kQuarantinedPoi) {
        reason = "references quarantined poi";
      }
      if (reason != nullptr) {
        TCSS_RETURN_IF_ERROR(bad.Add("checkins.csv", lineno, reason, line,
                                     &report->bad_checkins));
        continue;
      }
      raw.push_back({user, poi_remap[poi], ts});
      max_user = std::max(max_user, user);
    }
  }

  std::vector<std::pair<size_t, size_t>> edges;
  {
    std::ifstream in;
    TCSS_RETURN_IF_ERROR(OpenForRead(dir + "/friends.csv", &in));
    std::string line;
    std::getline(in, line);
    size_t lineno = 1;
    std::unordered_set<uint64_t> seen;
    while (std::getline(in, line)) {
      ++lineno;
      if (Trim(line).empty()) continue;
      auto f = Split(line, ',');
      size_t u = 0, v = 0;
      const char* reason = nullptr;
      if (f.size() != 2) {
        reason = "expected 2 fields";
      } else if (!ParseIndex(f[0], &u) || !ParseIndex(f[1], &v)) {
        reason = "bad user id";
      } else if (u == v) {
        reason = "self-loop";
      } else if (u > UINT32_MAX || v > UINT32_MAX) {
        reason = "user id out of range";
      } else {
        const uint64_t key = (static_cast<uint64_t>(std::min(u, v)) << 32) |
                             static_cast<uint64_t>(std::max(u, v));
        if (!seen.insert(key).second) reason = "duplicate edge";
      }
      if (reason != nullptr) {
        TCSS_RETURN_IF_ERROR(
            bad.Add("friends.csv", lineno, reason, line, &report->bad_edges));
        continue;
      }
      edges.emplace_back(u, v);
      max_user = std::max({max_user, u, v});
    }
  }

  TCSS_RETURN_IF_ERROR(bad.Flush());
  report->quarantine_path = bad.path();

  const size_t num_users = raw.empty() && edges.empty() ? 0 : max_user + 1;
  SocialGraph social(num_users);
  for (const auto& [u, v] : edges) {
    TCSS_RETURN_IF_ERROR(social.AddEdge(static_cast<uint32_t>(u),
                                        static_cast<uint32_t>(v)));
  }
  TCSS_RETURN_IF_ERROR(social.Finalize());
  Dataset out(num_users, std::move(pois), std::move(social));
  for (const auto& r : raw) {
    TCSS_RETURN_IF_ERROR(
        out.AddCheckIn(static_cast<uint32_t>(r.user), r.poi, r.ts));
  }
  report->pois_loaded = out.num_pois();
  report->checkins_loaded = out.num_checkins();
  report->edges_loaded = out.social().num_edges();
  return out;
}

}  // namespace tcss
