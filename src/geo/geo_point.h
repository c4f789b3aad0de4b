#ifndef TCSS_GEO_GEO_POINT_H_
#define TCSS_GEO_GEO_POINT_H_

#include <string>

namespace tcss {

/// A point on the globe in decimal degrees.
struct GeoPoint {
  double lat = 0.0;  ///< latitude in [-90, 90]
  double lon = 0.0;  ///< longitude in [-180, 180]

  bool operator==(const GeoPoint& o) const {
    return lat == o.lat && lon == o.lon;
  }
};

/// Validates coordinate ranges.
bool IsValid(const GeoPoint& p);

/// "lat,lon" with 6 decimal places.
std::string ToString(const GeoPoint& p);

/// Axis-aligned lat/lon bounding box.
struct GeoBounds {
  double min_lat = 90.0;
  double max_lat = -90.0;
  double min_lon = 180.0;
  double max_lon = -180.0;

  void Extend(const GeoPoint& p);
};

}  // namespace tcss

#endif  // TCSS_GEO_GEO_POINT_H_
