#ifndef TCSS_GEO_HAVERSINE_H_
#define TCSS_GEO_HAVERSINE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "geo/geo_point.h"

namespace tcss {

/// Mean Earth radius in kilometers (as used by the `haversine` package the
/// paper references).
inline constexpr double kEarthRadiusKm = 6371.0088;

/// Degrees to radians, as HaversineKm converts latitudes.
inline double DegToRad(double deg) { return deg * M_PI / 180.0; }

/// HaversineKm with the per-point terms hoisted out: each point passes its
/// latitude in radians (DegToRad), that latitude's std::cos, and its
/// longitude in degrees. The pair terms are HaversineKm's expressions, so
/// a caller that computes the per-point terms once per point gets
/// HaversineKm's bits with two cosines fewer per pair.
inline double HaversineKmHoisted(double lat_a, double cos_a, double lon_a,
                                 double lat_b, double cos_b, double lon_b) {
  const double dlat = lat_b - lat_a;
  const double dlon = DegToRad(lon_b - lon_a);
  const double sin_dlat = std::sin(0.5 * dlat);
  const double sin_dlon = std::sin(0.5 * dlon);
  const double h = sin_dlat * sin_dlat + cos_a * cos_b * sin_dlon * sin_dlon;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

/// Great-circle distance between two points in kilometers (haversine
/// formula; the paper's POI distance d(j, j')).
double HaversineKm(const GeoPoint& a, const GeoPoint& b);

/// Maximum pairwise haversine distance among `points` (the paper's d_max).
/// Exact O(n^2) for small n; for larger inputs uses the diameter of the
/// bounding box corners as a tight upper-bound proxy.
double MaxPairwiseDistanceKm(const std::vector<GeoPoint>& points,
                             size_t exact_threshold = 2048);

}  // namespace tcss

#endif  // TCSS_GEO_HAVERSINE_H_
