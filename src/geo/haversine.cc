#include "geo/haversine.h"

#include <algorithm>
#include <cmath>

namespace tcss {

double HaversineKm(const GeoPoint& a, const GeoPoint& b) {
  const double lat1 = DegToRad(a.lat);
  const double lat2 = DegToRad(b.lat);
  const double dlat = lat2 - lat1;
  const double dlon = DegToRad(b.lon - a.lon);
  const double sin_dlat = std::sin(0.5 * dlat);
  const double sin_dlon = std::sin(0.5 * dlon);
  const double h = sin_dlat * sin_dlat +
                   std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

double MaxPairwiseDistanceKm(const std::vector<GeoPoint>& points,
                             size_t exact_threshold) {
  if (points.size() < 2) return 0.0;
  if (points.size() <= exact_threshold) {
    double best = 0.0;
    for (size_t a = 0; a < points.size(); ++a)
      for (size_t b = a + 1; b < points.size(); ++b)
        best = std::max(best, HaversineKm(points[a], points[b]));
    return best;
  }
  // Approximate: diameter across bounding-box corners. For POI clouds this
  // is within a few percent of the true diameter, and d_max only scales the
  // Hausdorff penalty so a tight upper bound is sufficient.
  GeoBounds bounds;
  for (const auto& p : points) bounds.Extend(p);
  const GeoPoint corners[4] = {{bounds.min_lat, bounds.min_lon},
                               {bounds.min_lat, bounds.max_lon},
                               {bounds.max_lat, bounds.min_lon},
                               {bounds.max_lat, bounds.max_lon}};
  double best = 0.0;
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b)
      best = std::max(best, HaversineKm(corners[a], corners[b]));
  return best;
}

}  // namespace tcss
