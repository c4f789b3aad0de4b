#include "core/incremental_fold_in.h"

#include <algorithm>
#include <utility>

#include "core/fold_in.h"
#include "linalg/cholesky.h"

namespace tcss {
namespace {

constexpr FoldInOptions kWeights;

uint64_t CellKey(uint32_t j, uint32_t k) {
  return (static_cast<uint64_t>(j) << 32) | static_cast<uint64_t>(k);
}

}  // namespace

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
  // it does not match. Observations are untouched.
}

void IncrementalFoldIn::BindCheckins(
    std::shared_ptr<const SparseTensor> checkins) {
  checkins_ = std::move(checkins);
}

std::span<const TensorEntry> IncrementalFoldIn::Slice(uint32_t user) const {
  if (checkins_ == nullptr) return {};
  return checkins_->Entries(user);
}

bool IncrementalFoldIn::Append(uint32_t user, uint32_t poi,
                               uint32_t time_bin) {
  if (!Retired(time_bin) && checkins_ != nullptr &&
      checkins_->Contains(user, poi, time_bin)) {
    return false;  // the user's slice holds it at a live bin
  }
  UserState& s = users_[user];
  if (!s.seen.insert(CellKey(poi, time_bin)).second) return false;
  s.appended.push_back({user, poi, time_bin});
  return true;
}

void IncrementalFoldIn::RetireBin(uint32_t bin) {
  const bool slices_hold_bin = !Retired(bin);
  if (bin >= retired_.size()) retired_.resize(bin + 1, false);
  retired_[bin] = true;
  const auto at_bin = [bin](const auto& cell) { return cell.k == bin; };
  for (auto& [user, s] : users_) {
    for (const TensorCell& c : s.appended) {
      if (at_bin(c)) s.seen.erase(CellKey(c.j, c.k));
    }
    const bool dropped = std::erase_if(s.appended, at_bin) > 0;
    if (dropped ||
        (slices_hold_bin && std::ranges::any_of(Slice(user), at_bin))) {
      // Force a full replay: the sums hold the retired cells' terms.
      s.obs_lhs = Matrix(0, 0);
      s.solved = false;
    }
  }
}

bool IncrementalFoldIn::HasObservations(uint32_t user) const {
  const auto live = [this](const TensorEntry& e) { return !Retired(e.k); };
  const auto it = users_.find(user);
  return std::ranges::any_of(Slice(user), live) ||
         (it != users_.end() && !it->second.appended.empty());
}

std::vector<TensorCell> IncrementalFoldIn::Observations(uint32_t user) const {
  std::vector<TensorCell> cells;
  for (const TensorEntry& e : Slice(user)) {
    if (!Retired(e.k)) cells.push_back({e.i, e.j, e.k});
  }
  const auto it = users_.find(user);
  if (it != users_.end()) {
    cells.insert(cells.end(), it->second.appended.begin(),
                 it->second.appended.end());
  }
  return cells;
}

bool IncrementalFoldIn::CatchUp(uint32_t user, UserState* s) {
  const size_t r = model_->rank();
  if (s->sums_generation != generation_ || s->obs_lhs.rows() != r) {
    // Stale generation, retired cells or first touch: replay every
    // observation against the bound model, in order.
    s->obs_lhs = Matrix(r, r);
    s->obs_rhs.assign(r, 0.0);
    s->slice_applied = 0;
    s->applied = 0;
    s->sums_generation = generation_;
    s->solved = false;
  }
  const size_t J = model_->u2.rows();
  const size_t K = model_->u3.rows();
  const double dw = kWeights.w_pos - kWeights.w_neg;
  std::vector<double> phi(r);
  const auto fold = [&](uint32_t j, uint32_t k) {
    if (j >= J || k >= K) return false;
    const double* b = model_->u2.row(j);
    const double* c = model_->u3.row(k);
    for (size_t t = 0; t < r; ++t) phi[t] = model_->h[t] * b[t] * c[t];
    for (size_t a = 0; a < r; ++a) {
      s->obs_rhs[a] += kWeights.w_pos * phi[a];
      double* lrow = s->obs_lhs.row(a);
      for (size_t bb = 0; bb < r; ++bb) lrow[bb] += dw * phi[a] * phi[bb];
    }
    s->solved = false;
    ++stats_.rank_one_updates;
    return true;
  };
  const std::span<const TensorEntry> slice = Slice(user);
  for (; s->slice_applied < slice.size(); ++s->slice_applied) {
    const TensorEntry& e = slice[s->slice_applied];
    if (!Retired(e.k) && !fold(e.j, e.k)) return false;
  }
  for (; s->applied < s->appended.size(); ++s->applied) {
    const TensorCell& c = s->appended[s->applied];
    if (!fold(c.j, c.k)) return false;
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
  if (!HasObservations(user)) return nullptr;
  UserState& s = users_[user];
  if (!CatchUp(user, &s)) return nullptr;  // observation outside the model
  if (s.solved) return &s.embedding;

  if (!base_valid_) {
    // Whole-grid negative-weight Gram term, shared by every user of this
    // generation: w₋ · (h hᵀ) ⊙ (U2ᵀU2) ⊙ (U3ᵀU3).
    const Matrix g2 = Gram(model_->u2);
    const Matrix g3 = Gram(model_->u3);
    base_lhs_ = Matrix(r, r);
    for (size_t a = 0; a < r; ++a) {
      for (size_t b = 0; b < r; ++b) {
        base_lhs_(a, b) = kWeights.w_neg * model_->h[a] * model_->h[b] *
                          g2(a, b) * g3(a, b);
      }
    }
    base_valid_ = true;
  }

  Matrix lhs = base_lhs_;
  lhs.Add(s.obs_lhs);
  auto solved = CholeskySolve(lhs, s.obs_rhs, kWeights.ridge);
  ++stats_.solves;
  if (!solved.ok()) return nullptr;
  s.embedding = solved.MoveValue();
  s.solved = true;
  return &s.embedding;
}

}  // namespace tcss
