#ifndef TCSS_GEO_SPATIAL_GRID_H_
#define TCSS_GEO_SPATIAL_GRID_H_

#include <cstdint>
#include <vector>

#include "geo/geo_point.h"

namespace tcss {

/// Uniform lat/lon grid index over a fixed point set for exact radius
/// queries: a query visits the cells its radius can reach and verifies
/// every candidate with haversine.
class SpatialGrid {
 public:
  /// Builds the index over `points` with roughly `target_per_cell` points
  /// per cell. Points must outlive the grid (indices refer into it).
  SpatialGrid(const std::vector<GeoPoint>& points, double target_per_cell = 8.0);

  /// All point indices within `radius_km` of q (haversine), sorted
  /// ascending and deduplicated. Exact: the cell window is conservative,
  /// wraps across the antimeridian, and widens toward the poles, so no
  /// in-radius point is ever missed.
  std::vector<uint32_t> WithinRadius(const GeoPoint& q,
                                     double radius_km) const;

  size_t num_points() const { return points_->size(); }

 private:
  size_t CellOf(const GeoPoint& p) const;
  void CellCoords(const GeoPoint& p, int* cx, int* cy) const;

  const std::vector<GeoPoint>* points_;
  GeoBounds bounds_;
  int nx_ = 1, ny_ = 1;
  double cell_lat_ = 1.0, cell_lon_ = 1.0;
  std::vector<std::vector<uint32_t>> cells_;
};

}  // namespace tcss

#endif  // TCSS_GEO_SPATIAL_GRID_H_
