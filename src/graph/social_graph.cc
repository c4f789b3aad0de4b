#include "graph/social_graph.h"

#include <algorithm>

#include "common/strings.h"

namespace tcss {

Status SocialGraph::AddEdge(uint32_t u, uint32_t v) {
  if (finalized_) {
    return Status::FailedPrecondition("SocialGraph: AddEdge after Finalize");
  }
  if (u >= num_nodes_ || v >= num_nodes_) {
    return Status::OutOfRange(StrFormat(
        "SocialGraph: edge (%u,%u) outside %zu nodes", u, v, num_nodes_));
  }
  if (u == v) {
    return Status::InvalidArgument("SocialGraph: self-loop rejected");
  }
  pending_.emplace_back(u, v);
  pending_.emplace_back(v, u);
  return Status::OK();
}

Status SocialGraph::Finalize() {
  if (finalized_) {
    return Status::FailedPrecondition("SocialGraph: double Finalize");
  }
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  offsets_.assign(num_nodes_ + 1, 0);
  adj_.resize(pending_.size());
  for (const auto& [u, v] : pending_) ++offsets_[u + 1];
  for (size_t u = 0; u < num_nodes_; ++u) offsets_[u + 1] += offsets_[u];
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : pending_) adj_[cursor[u]++] = v;
  pending_.clear();
  pending_.shrink_to_fit();
  finalized_ = true;
  return Status::OK();
}

bool SocialGraph::HasEdge(uint32_t u, uint32_t v) const {
  return std::binary_search(NeighborsBegin(u), NeighborsEnd(u), v);
}

double SocialGraph::AverageDegree() const {
  if (num_nodes_ == 0) return 0.0;
  return static_cast<double>(adj_.size()) / static_cast<double>(num_nodes_);
}

}  // namespace tcss
