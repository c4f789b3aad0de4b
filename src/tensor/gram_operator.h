#ifndef TCSS_TENSOR_GRAM_OPERATOR_H_
#define TCSS_TENSOR_GRAM_OPERATOR_H_

#include <cstdint>
#include <vector>

#include "linalg/linear_operator.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Implicit symmetric operator G = A A^T (optionally with the diagonal
/// zeroed, per the spectral initialization of the paper, Eq 4), where A is
/// the mode-n unfolding of a sparse tensor. Never materializes A or G:
/// each Apply is O(nnz).
///
/// Construction groups the nonzeros by unfolding column; Apply computes
///   Y = A (A^T X)        [then subtracts diag(G) ⊙ X if zero_diagonal]
/// for all columns of the block X in one pass over the column groups
/// (KernelTable::gram_block_apply).
class ModeGramOperator : public LinearOperator {
 public:
  /// `x` must be finalized and must outlive the operator.
  ModeGramOperator(const SparseTensor& x, int mode, bool zero_diagonal);

  size_t Dim() const override { return dim_; }
  void Apply(const Matrix& x, Matrix* y) const override;

  /// diag(A A^T), exposed for tests.
  const std::vector<double>& Diagonal() const { return diag_; }

  /// The column groups, exposed for the single-vector reference
  /// (proptest::ReferenceGramApply): nonzero t has unfolding row
  /// GroupRows()[t] and value GroupValues()[t], and group g spans
  /// [GroupStarts()[g], GroupStarts()[g + 1]).
  const std::vector<uint32_t>& GroupRows() const { return row_; }
  const std::vector<double>& GroupValues() const { return val_; }
  const std::vector<size_t>& GroupStarts() const { return col_start_; }
  bool zero_diagonal() const { return zero_diagonal_; }

 private:
  size_t dim_;
  bool zero_diagonal_;
  // Nonzeros sorted by unfolding column; col_start_ delimits groups.
  std::vector<uint32_t> row_;      // unfolding row of each nonzero
  std::vector<double> val_;        // value of each nonzero
  std::vector<size_t> col_start_;  // group g spans [col_start_[g], col_start_[g+1])
  std::vector<double> diag_;
};

}  // namespace tcss

#endif  // TCSS_TENSOR_GRAM_OPERATOR_H_
