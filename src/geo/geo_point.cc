#include "geo/geo_point.h"

#include <algorithm>

#include "common/strings.h"

namespace tcss {

bool IsValid(const GeoPoint& p) {
  return p.lat >= -90.0 && p.lat <= 90.0 && p.lon >= -180.0 && p.lon <= 180.0;
}

std::string ToString(const GeoPoint& p) {
  return StrFormat("%.6f,%.6f", p.lat, p.lon);
}

void GeoBounds::Extend(const GeoPoint& p) {
  min_lat = std::min(min_lat, p.lat);
  max_lat = std::max(max_lat, p.lat);
  min_lon = std::min(min_lon, p.lon);
  max_lon = std::max(max_lon, p.lon);
}

}  // namespace tcss
