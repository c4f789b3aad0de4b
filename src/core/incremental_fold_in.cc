#include "core/incremental_fold_in.h"

#include <utility>

#include "linalg/cholesky.h"

namespace tcss {
namespace {

uint64_t CellKey(uint32_t j, uint32_t k) {
  return (static_cast<uint64_t>(j) << 32) | static_cast<uint64_t>(k);
}

}  // namespace

IncrementalFoldIn::IncrementalFoldIn(const FoldInOptions& opts)
    : opts_(opts) {}

void IncrementalFoldIn::BindModel(std::shared_ptr<const FactorModel> model,
                                  uint64_t generation) {
  if (model_ != nullptr && model.get() == model_.get() &&
      generation == generation_) {
    return;  // same model object at the same generation: all state valid
  }
  model_ = std::move(model);
  generation_ = generation;
  base_valid_ = false;
  // Derived per-user state is invalidated lazily: each UserState carries
  // the generation its sums were built against, and CatchUp rebuilds when
  // it does not match. Observation lists are untouched.
}

bool IncrementalFoldIn::Append(uint32_t user, uint32_t poi,
                               uint32_t time_bin) {
  UserState& s = users_[user];
  if (!s.seen.insert(CellKey(poi, time_bin)).second) return false;
  s.cells.push_back({user, poi, time_bin});
  return true;
}

void IncrementalFoldIn::Seed(uint32_t user,
                             const std::vector<TensorCell>& cells) {
  for (const auto& c : cells) Append(user, c.j, c.k);
}

void IncrementalFoldIn::Invalidate(uint32_t user) {
  users_.erase(user);
}

size_t IncrementalFoldIn::RetireBin(uint32_t bin) {
  size_t dropped = 0;
  for (auto& [user, s] : users_) {
    size_t kept = 0;
    for (const TensorCell& c : s.cells) {
      if (c.k != bin) s.cells[kept++] = c;
    }
    if (kept == s.cells.size()) continue;
    dropped += s.cells.size() - kept;
    s.cells.resize(kept);
    s.seen.clear();
    for (const TensorCell& c : s.cells) s.seen.insert(CellKey(c.j, c.k));
    // Force a full replay: stamping applied=0 alone is not enough because
    // obs_lhs/obs_rhs still hold the retired cells' contributions.
    s.obs_lhs = Matrix(0, 0);
    s.obs_rhs.clear();
    s.applied = 0;
    s.sums_generation = generation_ + 1;  // never matches -> CatchUp rebuilds
    s.solved = false;
  }
  return dropped;
}

bool IncrementalFoldIn::HasObservations(uint32_t user) const {
  auto it = users_.find(user);
  return it != users_.end() && !it->second.cells.empty();
}

std::vector<TensorCell> IncrementalFoldIn::Observations(uint32_t user) const {
  auto it = users_.find(user);
  return it != users_.end() ? it->second.cells : std::vector<TensorCell>();
}

bool IncrementalFoldIn::CatchUp(UserState* s) {
  const size_t r = model_->rank();
  if (s->sums_generation != generation_ || s->obs_lhs.rows() != r) {
    // Stale generation (or first touch): replay the whole observation
    // list against the bound model, in insertion order.
    s->obs_lhs = Matrix(r, r);
    s->obs_rhs.assign(r, 0.0);
    s->applied = 0;
    s->sums_generation = generation_;
    s->solved = false;
  }
  const size_t J = model_->u2.rows();
  const size_t K = model_->u3.rows();
  const double dw = opts_.w_pos - opts_.w_neg;
  std::vector<double> phi(r);
  for (; s->applied < s->cells.size(); ++s->applied) {
    const TensorCell& cell = s->cells[s->applied];
    if (cell.j >= J || cell.k >= K) return false;
    const double* b = model_->u2.row(cell.j);
    const double* c = model_->u3.row(cell.k);
    for (size_t t = 0; t < r; ++t) phi[t] = model_->h[t] * b[t] * c[t];
    for (size_t a = 0; a < r; ++a) {
      s->obs_rhs[a] += opts_.w_pos * phi[a];
      double* lrow = s->obs_lhs.row(a);
      for (size_t bb = 0; bb < r; ++bb) lrow[bb] += dw * phi[a] * phi[bb];
    }
    s->solved = false;
    ++stats_.rank_one_updates;
  }
  return true;
}

const std::vector<double>* IncrementalFoldIn::Embedding(uint32_t user) {
  if (model_ == nullptr) return nullptr;
  const size_t r = model_->rank();
  if (r == 0 || model_->u2.cols() != r || model_->u3.cols() != r ||
      model_->u2.rows() == 0 || model_->u3.rows() == 0) {
    return nullptr;
  }
  auto it = users_.find(user);
  if (it == users_.end() || it->second.cells.empty()) return nullptr;
  UserState& s = it->second;
  if (!CatchUp(&s)) return nullptr;  // observation outside the model
  if (s.solved && s.solved_at == s.cells.size()) return &s.embedding;

  if (!base_valid_) {
    // Whole-grid negative-weight Gram term, shared by every user of this
    // generation: w₋ · (h hᵀ) ⊙ (U2ᵀU2) ⊙ (U3ᵀU3).
    const Matrix g2 = Gram(model_->u2);
    const Matrix g3 = Gram(model_->u3);
    base_lhs_ = Matrix(r, r);
    for (size_t a = 0; a < r; ++a) {
      for (size_t b = 0; b < r; ++b) {
        base_lhs_(a, b) =
            opts_.w_neg * model_->h[a] * model_->h[b] * g2(a, b) * g3(a, b);
      }
    }
    base_valid_ = true;
  }

  Matrix lhs = base_lhs_;
  lhs.Add(s.obs_lhs);
  auto solved = CholeskySolve(lhs, s.obs_rhs, opts_.ridge);
  ++stats_.solves;
  if (!solved.ok()) return nullptr;
  s.embedding = solved.MoveValue();
  s.solved = true;
  s.solved_at = s.cells.size();
  return &s.embedding;
}

}  // namespace tcss
