#ifndef TCSS_GEO_LOCATION_ENTROPY_H_
#define TCSS_GEO_LOCATION_ENTROPY_H_

#include <vector>

#include "tensor/sparse_tensor.h"

namespace tcss {

/// Location entropy of every POI (Eq 11 of the paper):
///   E_j = - sum_{i : |Phi_ij| > 0}  (|Phi_ij| / |Phi_j|) log(|Phi_ij| / |Phi_j|)
/// where Phi_ij are user i's check-ins at POI j and Phi_j all check-ins at
/// POI j. High entropy = visited evenly by many users (e.g. a Costco);
/// low entropy = a niche spot visited repeatedly by few (e.g. a tennis
/// court), which better reflects social strength.
///
/// Computed from the finalized check-in tensor: |Phi_ij| sums fiber
/// (i, j)'s values over its time bins, so on a binary tensor check-ins
/// within one bin count once. Pass per-visit counts for exact multi-visit
/// weighting via the overload below.
std::vector<double> ComputeLocationEntropy(const SparseTensor& checkins);

/// Same from raw per-(user, poi) visit counts. counts[j] maps user -> visits.
std::vector<double> ComputeLocationEntropyFromCounts(
    const std::vector<std::vector<std::pair<uint32_t, double>>>&
        per_poi_user_counts);

/// Entropy-derived diversity weights e_j = exp(-E_j) in (0, 1].
std::vector<double> EntropyWeights(const std::vector<double>& entropy);

}  // namespace tcss

#endif  // TCSS_GEO_LOCATION_ENTROPY_H_
