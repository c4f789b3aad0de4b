#ifndef TCSS_CORE_INCREMENTAL_FOLD_IN_H_
#define TCSS_CORE_INCREMENTAL_FOLD_IN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/factor_model.h"
#include "data/tensor_builder.h"
#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Incremental, generation-consistent version of the ridge fold-in tier
/// (DESIGN.md §14), at FoldInOptions' default weights. FoldInUser
/// re-derives the whole normal system on every call: the base Gram term
/// (h hᵀ) ⊙ (U2ᵀU2) ⊙ (U3ᵀU3) costs O(r² (J + K)) and every observation
/// adds a rank-1 update. Under a streaming workload the observations
/// arrive one at a time, so this class keeps the decomposition live
/// instead:
///
///   * the base term is computed ONCE per bound model generation and
///     shared by every user;
///   * per user, the observation sums Σ dw·φφᵀ and Σ w₊·φ are maintained
///     incrementally — an appended check-in is one O(r²) rank-1 update,
///     never a re-scan of the user's history;
///   * a solve (O(r³) Cholesky over base + user sums) happens only when
///     the user is dirty (new observations since the last solve).
///
/// A user's observations are, in order, their slice of the bound check-in
/// tensor minus retired bins, then their appended cells. The tensor is
/// shared, not copied: per-user state holds only the appended cells, the
/// sums and the cached embedding, and exists only for users with an
/// appended cell or a solve.
///
/// Generation consistency: every piece of derived state (base term,
/// per-user sums, cached embeddings) is keyed by the model generation
/// passed to BindModel. Binding a different generation invalidates all of
/// it; the observations persist (they are data, not derived state) and
/// are replayed lazily, in order, the next time a user's embedding is
/// requested. An embedding solved against generation N can therefore
/// never be served after a hot reload to N+1.
///
/// Differential contract (enforced by tests/stream_test.cc): after any
/// interleaving of appends, retirements and rebinds, Embedding(u) equals
/// FoldInUser(model, Observations(u)) to <= 1e-12 — the only arithmetic
/// difference is the association of the base-plus-observations sum.
///
/// Threading: single-writer, like the RecommendService that owns it. The
/// serving dispatcher is the only thread that may call any method.
class IncrementalFoldIn {
 public:
  /// Binds the fold-in state to `model` at `generation` (the
  /// ModelWatcher's counter). Same generation: no-op. Different
  /// generation: drops the base Gram term, every per-user sum and every
  /// cached embedding; observations are kept for lazy replay.
  /// A null model unbinds (Embedding returns null until rebound).
  void BindModel(std::shared_ptr<const FactorModel> model,
                 uint64_t generation);

  /// Binds the finalized check-in tensor whose slices are every user's
  /// first observations (RecommendService::Init passes its own). Call it
  /// once, before any Append or Embedding.
  void BindCheckins(std::shared_ptr<const SparseTensor> checkins);

  /// Appends one observed (poi, time) cell for `user`. A cell the user
  /// already has — in their slice at a live bin, or appended — is ignored
  /// (the check-in tensor is binary). Returns true when the cell was new.
  /// No model needs to be bound; the cell is folded into the user's sums
  /// on the next Embedding call.
  bool Append(uint32_t user, uint32_t poi, uint32_t time_bin);

  /// Slice retirement: retires time bin `bin` of the bound tensor for
  /// good and drops the appended cells at `bin` (a later Append may
  /// refill it). Every user who had a cell at `bin` loses their sums and
  /// cached embedding, rebuilt by replay on the next Embedding call —
  /// removal cannot be expressed as a rank-1 update because dw·φφᵀ of the
  /// dropped cells was folded against a possibly different generation.
  void RetireBin(uint32_t bin);

  bool HasObservations(uint32_t user) const;

  /// The user's observed cells in order (the differential oracle's
  /// input). Empty vector for users with none.
  std::vector<TensorCell> Observations(uint32_t user) const;

  /// The embedding solved against the bound model. Re-solves only when
  /// the user has unapplied observations or the generation changed since
  /// their last solve; otherwise returns the cached vector. Null when no
  /// model is bound, the user has no observations, or the solve fails
  /// (singular system — caller degrades a tier, exactly like FoldInUser).
  const std::vector<double>* Embedding(uint32_t user);

  struct Stats {
    uint64_t solves = 0;            ///< Cholesky solves performed
    uint64_t rank_one_updates = 0;  ///< observation folds into user sums
  };
  const Stats& stats() const { return stats_; }

 private:
  struct UserState {
    /// Appended cells in append order; (j,k) dedup set beside it.
    std::vector<TensorCell> appended;
    std::unordered_set<uint64_t> seen;
    /// Derived, generation-keyed state: sums over the slice's entries
    /// before slice_applied (live bins only) and appended[0..applied).
    uint64_t sums_generation = 0;
    size_t slice_applied = 0;
    size_t applied = 0;
    Matrix obs_lhs;                ///< Σ dw · φφᵀ  (r x r); empty: none
    std::vector<double> obs_rhs;   ///< Σ w₊ · φ
    /// Cached solve, valid while `solved`.
    bool solved = false;
    std::vector<double> embedding;
  };

  /// The user's slice of the bound tensor; empty when none is bound.
  std::span<const TensorEntry> Slice(uint32_t user) const;
  bool Retired(uint32_t bin) const {
    return bin < retired_.size() && retired_[bin];
  }
  /// Folds the user's unapplied observations into `s`'s sums against the
  /// bound model. Returns false when a cell is outside the model's ranges.
  bool CatchUp(uint32_t user, UserState* s);

  std::shared_ptr<const FactorModel> model_;
  uint64_t generation_ = 0;
  bool base_valid_ = false;
  Matrix base_lhs_;  ///< w₋ · (h hᵀ) ⊙ (U2ᵀU2) ⊙ (U3ᵀU3)
  std::shared_ptr<const SparseTensor> checkins_;
  std::vector<bool> retired_;  ///< by time bin, for the tensor's cells
  std::unordered_map<uint32_t, UserState> users_;
  Stats stats_;
};

}  // namespace tcss

#endif  // TCSS_CORE_INCREMENTAL_FOLD_IN_H_
