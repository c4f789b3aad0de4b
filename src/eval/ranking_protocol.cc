#include "eval/ranking_protocol.h"

#include <algorithm>
#include <map>

#include "common/rng.h"

namespace tcss {

RankingMetrics EvaluateRanking(const ScoreFn& score, size_t num_pois,
                               const std::vector<TensorCell>& test_cells,
                               const RankingProtocolOptions& opts) {
  RankingMetrics out;
  if (test_cells.empty() || num_pois == 0) return out;
  Rng rng(opts.seed);

  std::map<uint32_t, std::pair<double, size_t>> per_user_rr;  // sum, count
  size_t hits = 0;
  double ndcg_sum = 0.0;
  double precision_sum = 0.0;
  std::vector<double> negatives;
  negatives.reserve(opts.num_negatives);

  for (const auto& cell : test_cells) {
    negatives.clear();
    size_t attempts = 0;
    while (negatives.size() < opts.num_negatives &&
           attempts < opts.num_negatives * 20) {
      ++attempts;
      const uint32_t j = static_cast<uint32_t>(rng.UniformInt(num_pois));
      if (j == cell.j) continue;
      negatives.push_back(score(cell.i, j, cell.k));
    }
    const double target = score(cell.i, cell.j, cell.k);
    const double rank = MidRank(target, negatives);
    if (rank <= static_cast<double>(opts.top_k)) ++hits;
    ndcg_sum += NdcgAtK(rank, opts.top_k);
    precision_sum += PrecisionAtK(rank, opts.top_k);
    auto& acc = per_user_rr[cell.i];
    acc.first += 1.0 / rank;
    acc.second += 1;
  }

  out.num_entries = test_cells.size();
  out.num_users = per_user_rr.size();
  out.hit_at_k =
      static_cast<double>(hits) / static_cast<double>(test_cells.size());
  out.ndcg_at_k = ndcg_sum / static_cast<double>(test_cells.size());
  out.precision_at_k =
      precision_sum / static_cast<double>(test_cells.size());
  double mrr_sum = 0.0;
  for (const auto& [user, acc] : per_user_rr) {
    mrr_sum += acc.first / static_cast<double>(acc.second);
  }
  out.mrr = per_user_rr.empty()
                ? 0.0
                : mrr_sum / static_cast<double>(per_user_rr.size());
  return out;
}

RankingMetrics EvaluateRanking(const Recommender& model, size_t num_pois,
                               const std::vector<TensorCell>& test_cells,
                               const RankingProtocolOptions& opts) {
  return EvaluateRanking(
      [&model](uint32_t i, uint32_t j, uint32_t k) {
        return model.Score(i, j, k);
      },
      num_pois, test_cells, opts);
}

}  // namespace tcss
