#include "baselines/lfbca.h"

#include <algorithm>

#include "geo/spatial_grid.h"
#include "graph/personalized_pagerank.h"

namespace tcss {

Status Lfbca::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr || ctx.data == nullptr) {
    return Status::InvalidArgument("Lfbca: null context");
  }
  const Dataset& data = *ctx.data;
  const SparseTensor& x = *ctx.train;
  const size_t I = x.dim_i();
  const size_t J = x.dim_j();
  num_pois_ = J;

  // Node layout: users [0, I), POIs [I, I+J).
  WalkGraph graph(I + J);

  // Friendship edges (both directions).
  for (uint32_t u = 0; u < I; ++u) {
    for (const uint32_t* f = data.social().NeighborsBegin(u);
         f != data.social().NeighborsEnd(u); ++f) {
      graph.AddArc(u, *f, opts_.friend_edge_weight);
    }
  }

  // User-POI visit edges. The original bookmark-coloring algorithm walks
  // the *binary* check-in graph (an edge per distinct user-POI pair).
  for (uint32_t user = 0; user < I; ++user) {
    for (uint32_t j : x.Pois(user)) {
      const uint32_t poi_node = static_cast<uint32_t>(I) + j;
      graph.AddArc(user, poi_node, opts_.visit_edge_weight);
      graph.AddArc(poi_node, user, opts_.visit_edge_weight);
    }
  }

  // POI-POI proximity edges (location similarity), limited-radius.
  if (opts_.poi_edge_weight > 0.0 && J > 1) {
    const auto locations = data.PoiLocations();
    SpatialGrid grid(locations);
    for (uint32_t j = 0; j < J; ++j) {
      for (uint32_t other : grid.WithinRadius(locations[j],
                                              opts_.poi_radius_km)) {
        if (other == j) continue;
        graph.AddArc(static_cast<uint32_t>(I) + j,
                     static_cast<uint32_t>(I) + other,
                     opts_.poi_edge_weight);
      }
    }
  }

  graph.Finalize();

  // Bookmark-coloring PPR from every user; keep only POI mass.
  scores_.assign(I * J, 0.0f);
  for (uint32_t u = 0; u < I; ++u) {
    const std::vector<double> ppr =
        graph.BookmarkColoring(u, opts_.restart_alpha, opts_.push_epsilon);
    for (size_t j = 0; j < J; ++j) {
      scores_[static_cast<size_t>(u) * J + j] =
          static_cast<float>(ppr[I + j]);
    }
  }
  if (opts_.revisit_damping < 1.0) {
    // Faithful to Wang et al.: LFBCA targets *new* locations, so the walk
    // mass of POIs the user already checked in at is damped and those
    // POIs compete far below fresh candidates.
    for (uint32_t user = 0; user < I; ++user) {
      for (uint32_t j : x.Pois(user)) {
        const size_t idx = static_cast<size_t>(user) * J + j;
        scores_[idx] =
            static_cast<float>(scores_[idx] * opts_.revisit_damping);
      }
    }
  }
  return Status::OK();
}

double Lfbca::Score(uint32_t i, uint32_t j, uint32_t k) const {
  return scores_[static_cast<size_t>(i) * num_pois_ + j];
}

}  // namespace tcss
