#ifndef TCSS_CORE_RECOMMEND_H_
#define TCSS_CORE_RECOMMEND_H_

#include <cstdint>
#include <vector>

#include "eval/recommender.h"

namespace tcss {

/// One ranked recommendation.
struct Recommendation {
  uint32_t poi;
  double score;
};

/// Options for TopKRecommendations.
struct TopKOptions {
  size_t k = 10;  ///< clamped to num_pois
  /// Exclude POIs the user already visited: the user's POIs in the given
  /// finalized tensor (SparseTensor::Pois).
  bool exclude_visited = false;
  /// Restrict candidates to this list (empty = all POIs). Out-of-range
  /// ids are dropped.
  std::vector<uint32_t> candidates;
};

/// Ranks POIs for (user, time) under any fitted Recommender. O(J log k).
/// Defensive against untrusted options: exclude_visited with a null
/// `train` returns an empty list (the exclusion cannot be honored), k is
/// clamped to the catalogue size, and out-of-range candidate ids are
/// skipped. Visited POIs outside [0, num_pois) are ignored.
std::vector<Recommendation> TopKRecommendations(
    const Recommender& model, uint32_t user, uint32_t time_bin,
    size_t num_pois, const TopKOptions& opts,
    const SparseTensor* train = nullptr);

}  // namespace tcss

#endif  // TCSS_CORE_RECOMMEND_H_
