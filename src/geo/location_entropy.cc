#include "geo/location_entropy.h"

#include <cmath>
#include <span>
#include <utility>

namespace tcss {
namespace {

/// E_j of one POI from its users' visit counts, summed and logged in the
/// order given; `count` reads a count out of an element.
template <typename Element, typename Count>
double PoiEntropy(std::span<const Element> visits, Count count) {
  double total = 0.0;
  for (const Element& v : visits) total += count(v);
  if (total <= 0.0) return 0.0;
  double e = 0.0;
  for (const Element& v : visits) {
    const double cnt = count(v);
    if (cnt <= 0.0) continue;
    const double p = cnt / total;
    e -= p * std::log(p);
  }
  return e;
}

}  // namespace

std::vector<double> ComputeLocationEntropyFromCounts(
    const std::vector<std::vector<std::pair<uint32_t, double>>>&
        per_poi_user_counts) {
  std::vector<double> entropy(per_poi_user_counts.size(), 0.0);
  for (size_t j = 0; j < per_poi_user_counts.size(); ++j) {
    entropy[j] = PoiEntropy(
        std::span<const std::pair<uint32_t, double>>(per_poi_user_counts[j]),
        [](const std::pair<uint32_t, double>& uc) { return uc.second; });
  }
  return entropy;
}

std::vector<double> ComputeLocationEntropy(const SparseTensor& checkins) {
  // |Phi_ij| = the values of fiber (i, j) summed over its time bins. Two
  // flat passes over the fibers: count each POI's fibers, then place each
  // fiber's count in its POI's run of `visits`. The slices come in
  // ascending i, so each run lists its users in order. After the fill,
  // end[j] is where POI j's run ends (and POI j + 1's begins).
  const CsfView csf = checkins.csf();
  const size_t J = checkins.dim_j();
  std::vector<size_t> end(J, 0);
  for (size_t f = 0; f < checkins.num_fibers(); ++f) ++end[csf.fiber_id[f]];
  size_t begin = 0;
  for (size_t& e : end) begin += std::exchange(e, begin);
  std::vector<double> visits(checkins.num_fibers());
  for (size_t s = 0; s < csf.num_slices; ++s) {
    for (size_t f = csf.slice_start[s]; f < csf.slice_start[s + 1]; ++f) {
      double v = 0.0;
      for (size_t e = csf.fiber_start[f]; e < csf.fiber_start[f + 1]; ++e) {
        v += csf.entry[e].value;
      }
      visits[end[csf.fiber_id[f]]++] = v;
    }
  }
  std::vector<double> entropy(J, 0.0);
  begin = 0;
  for (size_t j = 0; j < J; ++j) {
    entropy[j] = PoiEntropy(
        std::span<const double>(visits.data() + begin, end[j] - begin),
        [](double v) { return v; });
    begin = end[j];
  }
  return entropy;
}

std::vector<double> EntropyWeights(const std::vector<double>& entropy) {
  std::vector<double> w(entropy.size());
  for (size_t j = 0; j < entropy.size(); ++j) w[j] = std::exp(-entropy[j]);
  return w;
}

}  // namespace tcss
