#ifndef TCSS_GRAPH_SOCIAL_GRAPH_H_
#define TCSS_GRAPH_SOCIAL_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace tcss {

/// Undirected friendship graph over LBSN users, stored in CSR form after
/// Finalize(). Self-loops are rejected; duplicate edges are coalesced.
class SocialGraph {
 public:
  SocialGraph() : num_nodes_(0) {}
  explicit SocialGraph(size_t num_nodes) : num_nodes_(num_nodes) {}

  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return adj_.size() / 2; }  ///< undirected count
  bool finalized() const { return finalized_; }

  /// Adds an undirected edge u-v. Must be called before Finalize().
  Status AddEdge(uint32_t u, uint32_t v);

  /// Sorts and dedups adjacency; builds CSR offsets.
  Status Finalize();

  /// Neighbors of u as a sorted span. Requires finalized().
  const uint32_t* NeighborsBegin(uint32_t u) const {
    return adj_.data() + offsets_[u];
  }
  const uint32_t* NeighborsEnd(uint32_t u) const {
    return adj_.data() + offsets_[u + 1];
  }
  size_t Degree(uint32_t u) const { return offsets_[u + 1] - offsets_[u]; }

  /// O(log degree) membership test. Requires finalized().
  bool HasEdge(uint32_t u, uint32_t v) const;

  /// Average degree 2|E| / |V| (0 for an empty graph).
  double AverageDegree() const;

 private:
  size_t num_nodes_;
  bool finalized_ = false;
  std::vector<std::pair<uint32_t, uint32_t>> pending_;
  std::vector<size_t> offsets_;
  std::vector<uint32_t> adj_;
};

}  // namespace tcss

#endif  // TCSS_GRAPH_SOCIAL_GRAPH_H_
