#include "geo/spatial_grid.h"

#include <algorithm>
#include <cmath>

#include "geo/haversine.h"

namespace tcss {

SpatialGrid::SpatialGrid(const std::vector<GeoPoint>& points,
                         double target_per_cell)
    : points_(&points) {
  for (const auto& p : points) bounds_.Extend(p);
  if (points.empty()) {
    cells_.resize(1);
    return;
  }
  const double span_lat = std::max(bounds_.max_lat - bounds_.min_lat, 1e-9);
  const double span_lon = std::max(bounds_.max_lon - bounds_.min_lon, 1e-9);
  const double n_cells =
      std::max(1.0, static_cast<double>(points.size()) / target_per_cell);
  const double aspect = span_lon / span_lat;
  ny_ = std::max(1, static_cast<int>(std::sqrt(n_cells / std::max(aspect, 1e-9))));
  nx_ = std::max(1, static_cast<int>(n_cells / ny_));
  cell_lat_ = span_lat / ny_;
  cell_lon_ = span_lon / nx_;
  cells_.assign(static_cast<size_t>(nx_) * ny_, {});
  for (uint32_t idx = 0; idx < points.size(); ++idx) {
    cells_[CellOf(points[idx])].push_back(idx);
  }
}

void SpatialGrid::CellCoords(const GeoPoint& p, int* cx, int* cy) const {
  *cx = std::clamp(
      static_cast<int>((p.lon - bounds_.min_lon) / cell_lon_), 0, nx_ - 1);
  *cy = std::clamp(
      static_cast<int>((p.lat - bounds_.min_lat) / cell_lat_), 0, ny_ - 1);
}

size_t SpatialGrid::CellOf(const GeoPoint& p) const {
  int cx, cy;
  CellCoords(p, &cx, &cy);
  return static_cast<size_t>(cy) * nx_ + cx;
}

std::vector<uint32_t> SpatialGrid::WithinRadius(const GeoPoint& q,
                                                double radius_km) const {
  std::vector<uint32_t> out;
  if (points_->empty() || !(radius_km >= 0.0)) return out;
  // Conservative cell window, derived from the haversine formula itself
  // (d = 2R asin sqrt(sin^2(dlat/2) + cos lat1 cos lat2 sin^2(dlon/2))):
  //   * dropping the longitude term gives d >= R*|dlat|, so every point
  //     within the radius lies inside the latitude band +-c (c = angular
  //     radius in radians);
  //   * dropping the latitude term and lower-bounding both cosines by the
  //     band's minimum cosine gives |dlon| <= 2 asin(sin(c/2)/cos lat_m),
  //     where lat_m is the largest |latitude| the band reaches. Using the
  //     band minimum (not cos(q.lat)) is what keeps pole-adjacent queries
  //     correct: the circle bulges in longitude toward the pole.
  // A radius that reaches a pole, or a bound that saturates, means every
  // longitude qualifies. The 1.001 slack absorbs rounding.
  const double kDegPerRad = 180.0 / M_PI;
  const double c = radius_km / kEarthRadiusKm;  // angular radius, radians
  const double lat_deg = c * kDegPerRad * 1.001;
  const double lat_lo = q.lat - lat_deg;
  const double lat_hi = q.lat + lat_deg;
  bool all_lon = false;
  double lon_deg = 0.0;
  if (lat_lo <= -90.0 || lat_hi >= 90.0 || c >= M_PI) {
    all_lon = true;
  } else {
    const double band_max_lat = std::max(std::fabs(lat_lo), std::fabs(lat_hi));
    const double sin_half =
        std::sin(c / 2.0) / std::cos(band_max_lat * M_PI / 180.0);
    if (sin_half >= 1.0) {
      all_lon = true;
    } else {
      lon_deg = 2.0 * std::asin(sin_half) * kDegPerRad * 1.001;
      if (lon_deg >= 180.0) all_lon = true;
    }
  }
  // Longitude wraps at the antimeridian: a window that crosses +-180 is
  // split into two disjoint spans (a window this wide but not global is
  // excluded above, so at most one edge wraps).
  struct LonSpan {
    double lo, hi;
  };
  LonSpan spans[2];
  int num_spans = 0;
  if (all_lon) {
    spans[num_spans++] = {-180.0, 180.0};
  } else {
    double lo = q.lon - lon_deg;
    double hi = q.lon + lon_deg;
    if (lo < -180.0) {
      spans[num_spans++] = {lo + 360.0, 180.0};
      lo = -180.0;
    }
    if (hi > 180.0) {
      spans[num_spans++] = {-180.0, hi - 360.0};
      hi = 180.0;
    }
    spans[num_spans++] = {lo, hi};
  }
  for (int s = 0; s < num_spans; ++s) {
    int cx0, cy0, cx1, cy1;
    CellCoords({lat_lo, spans[s].lo}, &cx0, &cy0);
    CellCoords({lat_hi, spans[s].hi}, &cx1, &cy1);
    for (int y = cy0; y <= cy1; ++y) {
      for (int x = cx0; x <= cx1; ++x) {
        for (uint32_t idx : cells_[static_cast<size_t>(y) * nx_ + x]) {
          if (HaversineKm(q, (*points_)[idx]) <= radius_km) out.push_back(idx);
        }
      }
    }
  }
  // Disjoint spans can still clamp onto overlapping cell columns at the
  // grid edge, so dedup after sorting.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace tcss
