#include "geo/location_entropy.h"

#include <cmath>

namespace tcss {

std::vector<double> ComputeLocationEntropyFromCounts(
    const std::vector<std::vector<std::pair<uint32_t, double>>>&
        per_poi_user_counts) {
  std::vector<double> entropy(per_poi_user_counts.size(), 0.0);
  for (size_t j = 0; j < per_poi_user_counts.size(); ++j) {
    double total = 0.0;
    for (const auto& [user, cnt] : per_poi_user_counts[j]) total += cnt;
    if (total <= 0.0) continue;
    double e = 0.0;
    for (const auto& [user, cnt] : per_poi_user_counts[j]) {
      if (cnt <= 0.0) continue;
      const double p = cnt / total;
      e -= p * std::log(p);
    }
    entropy[j] = e;
  }
  return entropy;
}

std::vector<double> ComputeLocationEntropy(const SparseTensor& checkins) {
  // |Phi_ij| = the values of fiber (i, j) summed over its time bins. The
  // slices come in ascending i, so each POI lists its users in order.
  std::vector<std::vector<std::pair<uint32_t, double>>> counts(
      checkins.dim_j());
  const CsfView csf = checkins.csf();
  for (size_t s = 0; s < csf.num_slices; ++s) {
    for (size_t f = csf.slice_start[s]; f < csf.slice_start[s + 1]; ++f) {
      double visits = 0.0;
      for (size_t e = csf.fiber_start[f]; e < csf.fiber_start[f + 1]; ++e) {
        visits += csf.entry[e].value;
      }
      counts[csf.fiber_id[f]].emplace_back(csf.slice_id[s], visits);
    }
  }
  return ComputeLocationEntropyFromCounts(counts);
}

std::vector<double> EntropyWeights(const std::vector<double>& entropy) {
  std::vector<double> w(entropy.size());
  for (size_t j = 0; j < entropy.size(); ++j) w[j] = std::exp(-entropy[j]);
  return w;
}

}  // namespace tcss
