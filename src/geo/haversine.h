#ifndef TCSS_GEO_HAVERSINE_H_
#define TCSS_GEO_HAVERSINE_H_

#include <cmath>
#include <vector>

#include "geo/geo_point.h"

namespace tcss {

/// Mean Earth radius in kilometers (as used by the `haversine` package the
/// paper references).
inline constexpr double kEarthRadiusKm = 6371.0088;

/// Degrees to radians, as HaversineKm converts coordinates.
inline double DegToRad(double deg) { return deg * M_PI / 180.0; }

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
