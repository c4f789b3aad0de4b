#ifndef TCSS_TENSOR_CSF_TENSOR_H_
#define TCSS_TENSOR_CSF_TENSOR_H_

#include <cstdint>
#include <vector>

#include "linalg/kernel_table.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Compressed Sparse Fiber (CSF) representation of an order-3 tensor,
/// rooted at mode 0 (SPLATT-style). The tree has three levels:
///   level 0: distinct i values (slices)
///   level 1: distinct (i, j) pairs (fibers), delimited per slice
///   level 2: (k, value) nonzeros, delimited per fiber
///
/// Walking the tree lets a kernel hoist per-slice and per-fiber factor
/// rows out of the nonzero loop: on check-in data a user visits the same
/// POI in several time bins. Two kernels walk it: the observed-entry loop
/// of the rewritten loss (KernelTable::csf_rewritten_entries, run by
/// RewrittenLoss in core/whole_data_loss.cc) and CP-ALS's MTTKRP
/// (tensor/mttkrp.h), which serves all three modes from this one
/// mode-0-rooted tree.
class CsfTensor {
 public:
  CsfTensor() : dim_i_(0), dim_j_(0), dim_k_(0) {}

  /// Builds from a finalized sparse tensor.
  explicit CsfTensor(const SparseTensor& coo);

  size_t dim_i() const { return dim_i_; }
  size_t dim_j() const { return dim_j_; }
  size_t dim_k() const { return dim_k_; }
  size_t nnz() const { return kk_.size(); }
  size_t num_slices() const { return slice_id_.size(); }
  size_t num_fibers() const { return fiber_id_.size(); }

  /// Sum of squared values.
  double SquaredSum() const;

  /// Raw pointer view consumed by the tree-walking kernels. Valid while
  /// this object is alive and unmodified.
  CsfView view() const {
    CsfView v;
    v.slice_id = slice_id_.data();
    v.slice_start = slice_start_.data();
    v.num_slices = slice_id_.size();
    v.fiber_id = fiber_id_.data();
    v.fiber_start = fiber_start_.data();
    v.kk = kk_.data();
    v.val = val_.data();
    return v;
  }

  // --- Introspection (tests) ---------------------------------------------
  const std::vector<uint32_t>& slice_ids() const { return slice_id_; }
  const std::vector<uint32_t>& fiber_ids() const { return fiber_id_; }
  const std::vector<size_t>& slice_starts() const { return slice_start_; }
  const std::vector<size_t>& fiber_starts() const { return fiber_start_; }
  const std::vector<uint32_t>& kks() const { return kk_; }
  const std::vector<double>& vals() const { return val_; }

 private:
  size_t dim_i_, dim_j_, dim_k_;
  // Level 0: slices.
  std::vector<uint32_t> slice_id_;     // distinct i
  std::vector<size_t> slice_start_;    // into fibers, size slices+1
  // Level 1: fibers.
  std::vector<uint32_t> fiber_id_;     // j of each (i, j) fiber
  std::vector<size_t> fiber_start_;    // into nonzeros, size fibers+1
  // Level 2: nonzeros.
  std::vector<uint32_t> kk_;
  std::vector<double> val_;
};

}  // namespace tcss

#endif  // TCSS_TENSOR_CSF_TENSOR_H_
