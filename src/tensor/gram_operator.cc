#include "tensor/gram_operator.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "linalg/kernel_table.h"
#include "tensor/matricization.h"

namespace tcss {

ModeGramOperator::ModeGramOperator(const SparseTensor& x, int mode,
                                   bool zero_diagonal)
    : dim_(x.dim(mode)), zero_diagonal_(zero_diagonal) {
  TCSS_CHECK(x.finalized()) << "ModeGramOperator requires a finalized tensor";
  const auto& entries = x.entries();
  const size_t n = entries.size();

  // Sort nonzero ids by unfolding column to form column groups.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<size_t> col(n);
  for (size_t t = 0; t < n; ++t) col[t] = UnfoldCol(x, entries[t], mode);
  std::sort(order.begin(), order.end(),
            [&col](size_t a, size_t b) { return col[a] < col[b]; });

  row_.resize(n);
  val_.resize(n);
  col_start_.clear();
  diag_.assign(dim_, 0.0);
  size_t prev_col = static_cast<size_t>(-1);
  for (size_t t = 0; t < n; ++t) {
    const TensorEntry& e = entries[order[t]];
    if (col[order[t]] != prev_col) {
      col_start_.push_back(t);
      prev_col = col[order[t]];
    }
    row_[t] = static_cast<uint32_t>(UnfoldRow(e, mode));
    val_[t] = e.value;
    diag_[row_[t]] += e.value * e.value;
  }
  col_start_.push_back(n);
}

void ModeGramOperator::Apply(const Matrix& x, Matrix* y) const {
  TCSS_CHECK(x.rows() == dim_);
  const size_t b = x.cols();
  y->Resize(dim_, b);
  // For each unfolding column c with nonzeros {(row_t, val_t)}:
  //   s_c = sum_t val_t * X[row_t, :]   (this is (A^T X)_c)
  //   Y[row_t, :] += val_t * s_c        (accumulating A (A^T X))
  ActiveKernels().gram_block_apply(row_.data(), val_.data(),
                                   col_start_.data(), col_start_.size() - 1,
                                   x.data(), b, y->data());
  if (zero_diagonal_) {
    for (size_t i = 0; i < dim_; ++i) {
      const double* xr = x.row(i);
      double* yr = y->row(i);
      for (size_t c = 0; c < b; ++c) yr[c] -= diag_[i] * xr[c];
    }
  }
}

}  // namespace tcss
