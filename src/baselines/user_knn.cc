#include "baselines/user_knn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tcss {

Status UserKnn::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr) {
    return Status::InvalidArgument("UserKnn: null train tensor");
  }
  const SparseTensor& x = *ctx.train;
  const size_t I = x.dim_i();
  const size_t J = x.dim_j();
  num_pois_ = J;

  // Distinct POI sets per user (sorted).
  std::vector<std::span<const uint32_t>> sets(I);
  for (uint32_t u = 0; u < I; ++u) sets[u] = x.Pois(u);

  scores_.assign(I * J, 0.0f);
  std::vector<double> sim(I);
  std::vector<uint32_t> order(I);
  for (uint32_t u = 0; u < I; ++u) {
    // Cosine similarity of binary sets: |A ∩ B| / sqrt(|A| |B|).
    for (uint32_t v = 0; v < I; ++v) {
      if (v == u || sets[u].empty() || sets[v].empty()) {
        sim[v] = 0.0;
        continue;
      }
      size_t inter = 0;
      // Merge-count on sorted vectors.
      size_t a = 0, b = 0;
      while (a < sets[u].size() && b < sets[v].size()) {
        if (sets[u][a] < sets[v][b]) {
          ++a;
        } else if (sets[u][a] > sets[v][b]) {
          ++b;
        } else {
          ++inter;
          ++a;
          ++b;
        }
      }
      sim[v] = static_cast<double>(inter) /
               std::sqrt(static_cast<double>(sets[u].size()) *
                         static_cast<double>(sets[v].size()));
    }
    std::iota(order.begin(), order.end(), 0u);
    const size_t n = std::min(opts_.neighbors, order.size());
    std::partial_sort(order.begin(), order.begin() + n, order.end(),
                      [&sim](uint32_t a, uint32_t b) {
                        return sim[a] > sim[b];
                      });
    float* row = scores_.data() + static_cast<size_t>(u) * J;
    for (size_t t = 0; t < n; ++t) {
      const uint32_t v = order[t];
      if (sim[v] <= 0.0) break;
      for (uint32_t j : sets[v]) row[j] += static_cast<float>(sim[v]);
    }
    for (uint32_t j : sets[u]) {
      row[j] += static_cast<float>(opts_.self_weight *
                                   static_cast<double>(opts_.neighbors));
    }
  }
  return Status::OK();
}

double UserKnn::Score(uint32_t i, uint32_t j, uint32_t k) const {
  return scores_[static_cast<size_t>(i) * num_pois_ + j];
}

}  // namespace tcss
