#include "tensor/csf_tensor.h"

#include "common/logging.h"

namespace tcss {

CsfTensor::CsfTensor(const SparseTensor& coo)
    : dim_i_(coo.dim_i()), dim_j_(coo.dim_j()), dim_k_(coo.dim_k()) {
  TCSS_CHECK(coo.finalized()) << "CsfTensor requires a finalized tensor";
  const auto& entries = coo.entries();  // sorted by (i, j, k)
  kk_.reserve(entries.size());
  val_.reserve(entries.size());
  for (size_t t = 0; t < entries.size(); ++t) {
    const TensorEntry& e = entries[t];
    const bool new_slice = slice_id_.empty() || slice_id_.back() != e.i;
    if (new_slice) {
      slice_id_.push_back(e.i);
      slice_start_.push_back(fiber_id_.size());
    }
    // Fiber boundary: first entry of a slice, or j changed.
    if (new_slice || fiber_id_.back() != e.j) {
      fiber_id_.push_back(e.j);
      fiber_start_.push_back(kk_.size());
    }
    kk_.push_back(e.k);
    val_.push_back(e.value);
  }
  slice_start_.push_back(fiber_id_.size());
  fiber_start_.push_back(kk_.size());
}

double CsfTensor::SquaredSum() const {
  double s = 0.0;
  for (double v : val_) s += v * v;
  return s;
}

}  // namespace tcss
