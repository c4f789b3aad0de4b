#ifndef TCSS_EVAL_RANKING_PROTOCOL_H_
#define TCSS_EVAL_RANKING_PROTOCOL_H_

#include <vector>

#include "eval/metrics.h"
#include "eval/recommender.h"

namespace tcss {

/// Configuration of the paper's evaluation protocol (Section V-C): for
/// each test entry (i, j, k) sample `num_negatives` random POIs, score the
/// resulting num_negatives+1 candidates, and rank the target.
struct RankingProtocolOptions {
  size_t num_negatives = 100;
  size_t top_k = 10;
  uint64_t seed = 777;
};

/// Evaluates a scorer over test cells. MRR follows the paper: reciprocal
/// ranks are first averaged within each user (along the time dimension),
/// then across users. Hit@K is the fraction of test entries whose target
/// mid-rank is <= K. NDCG@K and Precision@K (single-relevant-item forms)
/// are reported as per-entry averages.
RankingMetrics EvaluateRanking(const ScoreFn& score, size_t num_pois,
                               const std::vector<TensorCell>& test_cells,
                               const RankingProtocolOptions& opts);

/// Convenience overload for a fitted Recommender.
RankingMetrics EvaluateRanking(const Recommender& model, size_t num_pois,
                               const std::vector<TensorCell>& test_cells,
                               const RankingProtocolOptions& opts);

}  // namespace tcss

#endif  // TCSS_EVAL_RANKING_PROTOCOL_H_
