#include "core/recommend.h"

#include <algorithm>

namespace tcss {

std::vector<Recommendation> TopKRecommendations(
    const Recommender& model, uint32_t user, uint32_t time_bin,
    size_t num_pois, const TopKOptions& opts, const SparseTensor* train) {
  std::span<const uint32_t> visited;
  if (opts.exclude_visited) {
    // The serving path reaches here with untrusted requests: a missing
    // train tensor cannot honor the exclusion, so the only safe answer is
    // an empty list (not a crash, not silently ignoring the flag).
    if (train == nullptr) return {};
    visited = train->Pois(user);
  }
  const size_t k = std::min(opts.k, num_pois);
  if (k == 0) return {};

  // Canonical ranking order: higher score first, score ties broken by
  // ascending POI id. Using it for the heap's eviction decision (not just
  // the final sort) makes the returned *set* deterministic too — without
  // it, which of several boundary-tied POIs survives would depend on heap
  // internals and candidate order.
  auto better = [](const Recommendation& a, const Recommendation& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.poi < b.poi;
  };

  std::vector<Recommendation> heap;  // heap.front() = worst kept item
  // consider() sees ascending j, so one cursor walks the sorted visited
  // POIs alongside.
  auto next_visited = visited.begin();
  auto consider = [&](uint32_t j) {
    while (next_visited != visited.end() && *next_visited < j) {
      ++next_visited;
    }
    if (next_visited != visited.end() && *next_visited == j) return;
    const Recommendation rec{j, model.Score(user, j, time_bin)};
    if (heap.size() < k) {
      heap.push_back(rec);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(rec, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = rec;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  };

  if (opts.candidates.empty()) {
    for (uint32_t j = 0; j < num_pois; ++j) consider(j);
  } else {
    // Dedup: a POI listed twice in an (untrusted) candidate list must not
    // be recommended twice.
    std::vector<uint32_t> candidates = opts.candidates;
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (uint32_t j : candidates) {
      if (j < num_pois) consider(j);
    }
  }

  std::sort(heap.begin(), heap.end(), better);
  return heap;
}

}  // namespace tcss
