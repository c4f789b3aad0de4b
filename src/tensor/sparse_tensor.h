#ifndef TCSS_TENSOR_SPARSE_TENSOR_H_
#define TCSS_TENSOR_SPARSE_TENSOR_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "linalg/kernel_table.h"

namespace tcss {

/// Order-3 sparse tensor in coordinate (COO) format: an array of
/// TensorEntry, sorted lexicographically by (i, j, k) once finalized.
/// Duplicate coordinates added before Finalize() are coalesced (summed,
/// or clamped to 1 for binary tensors). The finalized tensor is also its
/// own mode-0 CSF tree (csf()): Finalize() records where each i slice and
/// each (i, j) fiber starts in the sorted entries, which are the tree's
/// nonzeros.
///
/// This is the check-in tensor X of the paper: X[i,j,k] = 1 iff user i
/// checked in at POI j during time bin k.
class SparseTensor {
 public:
  SparseTensor() : dim_i_(0), dim_j_(0), dim_k_(0) {}
  SparseTensor(size_t dim_i, size_t dim_j, size_t dim_k)
      : dim_i_(dim_i), dim_j_(dim_j), dim_k_(dim_k) {}

  size_t dim(int mode) const;  ///< mode in {0,1,2}
  size_t dim_i() const { return dim_i_; }
  size_t dim_j() const { return dim_j_; }
  size_t dim_k() const { return dim_k_; }

  size_t nnz() const { return entries_.size(); }
  bool finalized() const { return finalized_; }

  /// Total number of cells I*J*K.
  double NumCells() const;
  /// nnz / (I*J*K).
  double Density() const;

  /// Appends an entry; indices must be in range. Invalid after Finalize().
  Status Add(uint32_t i, uint32_t j, uint32_t k, double value = 1.0);

  /// Room for n entries, so that n Add() calls allocate once.
  void Reserve(size_t n);

  /// Sorts entries, coalesces duplicates (summed in the order they were
  /// added) and records the CSF levels. If `binary`, coalesced values are
  /// clamped to 1 (a user visiting the same POI twice in the same bin
  /// still yields X=1, per the paper's problem formulation) and zero sums
  /// are dropped. Every vector is left at its exact size. The sort is
  /// three stable counting passes, by k, j and i (DESIGN.md §12).
  Status Finalize(bool binary = true);

  /// Value at (i,j,k), searched for in Entries(i); 0 for unobserved
  /// cells. Requires finalized().
  double Get(uint32_t i, uint32_t j, uint32_t k) const;

  /// True iff (i,j,k) is an observed (nonzero) entry. Requires finalized().
  bool Contains(uint32_t i, uint32_t j, uint32_t k) const;

  const std::vector<TensorEntry>& entries() const { return entries_; }

  /// The mode-0 CSF tree over entries(), walked by the L2 head's entry
  /// loop (KernelTable::csf_rewritten_entries), by Mttkrp and by location
  /// entropy, which needs each fiber's entries. Requires finalized();
  /// valid while this tensor is alive.
  CsfView csf() const;
  size_t num_fibers() const { return fiber_id_.size(); }

  /// The distinct j of slice i in ascending order: on the check-in tensor,
  /// the POIs user i visited. The tree's fiber level, found by binary
  /// search over the slice ids; empty for an i with no entries (i >=
  /// dim_i() included). The one per-user POI index: the Hausdorff head,
  /// the zero-out mask, visited-POI exclusion and the baselines read it.
  /// Requires finalized(); valid while this tensor is alive.
  std::span<const uint32_t> Pois(uint32_t i) const;

  /// Slice i's entries in (j, k) order: on the check-in tensor, user i's
  /// distinct (POI, time bin) cells. Found by Pois(i)'s slice search;
  /// empty for an i with no entries.
  std::span<const TensorEntry> Entries(uint32_t i) const;

 private:
  size_t dim_i_, dim_j_, dim_k_;
  std::vector<TensorEntry> entries_;
  bool finalized_ = false;
  // CSF levels over entries_, filled by Finalize().
  std::vector<uint32_t> slice_id_;   // distinct i
  std::vector<size_t> slice_start_;  // into fibers, size slices + 1
  std::vector<uint32_t> fiber_id_;   // j of each (i, j) fiber
  std::vector<size_t> fiber_start_;  // into entries_, size fibers + 1

  /// Slice i's fibers [first, last); {0, 0} for an i with no entries.
  std::pair<size_t, size_t> SliceFibers(uint32_t i) const;
};

}  // namespace tcss

#endif  // TCSS_TENSOR_SPARSE_TENSOR_H_
