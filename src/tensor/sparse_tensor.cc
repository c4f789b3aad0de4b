#include "tensor/sparse_tensor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace tcss {

size_t SparseTensor::dim(int mode) const {
  switch (mode) {
    case 0:
      return dim_i_;
    case 1:
      return dim_j_;
    default:
      return dim_k_;
  }
}

double SparseTensor::NumCells() const {
  return static_cast<double>(dim_i_) * static_cast<double>(dim_j_) *
         static_cast<double>(dim_k_);
}

double SparseTensor::Density() const {
  double cells = NumCells();
  return cells > 0 ? static_cast<double>(nnz()) / cells : 0.0;
}

Status SparseTensor::Add(uint32_t i, uint32_t j, uint32_t k, double value) {
  if (finalized_) {
    return Status::FailedPrecondition("SparseTensor: Add after Finalize");
  }
  if (i >= dim_i_ || j >= dim_j_ || k >= dim_k_) {
    return Status::OutOfRange(
        StrFormat("SparseTensor: (%u,%u,%u) outside %zux%zux%zu", i, j, k,
                  dim_i_, dim_j_, dim_k_));
  }
  entries_.push_back({i, j, k, value});
  return Status::OK();
}

Status SparseTensor::Finalize(bool binary) {
  if (finalized_) {
    return Status::FailedPrecondition("SparseTensor: double Finalize");
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const TensorEntry& a, const TensorEntry& b) {
              if (a.i != b.i) return a.i < b.i;
              if (a.j != b.j) return a.j < b.j;
              return a.k < b.k;
            });
  // Coalesce duplicates in place.
  size_t w = 0;
  for (size_t r = 0; r < entries_.size(); ++r) {
    if (w > 0 && entries_[w - 1].i == entries_[r].i &&
        entries_[w - 1].j == entries_[r].j &&
        entries_[w - 1].k == entries_[r].k) {
      entries_[w - 1].value += entries_[r].value;
    } else {
      entries_[w++] = entries_[r];
    }
  }
  entries_.resize(w);
  if (binary) {
    for (auto& e : entries_) e.value = e.value != 0.0 ? 1.0 : 0.0;
    // Drop explicit zeros that a binary clamp may have produced.
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [](const TensorEntry& e) {
                                    return e.value == 0.0;
                                  }),
                   entries_.end());
  }
  // CSF levels: a slice starts where i changes, a fiber where i or j does.
  for (size_t e = 0; e < entries_.size(); ++e) {
    const TensorEntry& x = entries_[e];
    const bool new_slice = slice_id_.empty() || slice_id_.back() != x.i;
    if (new_slice) {
      slice_id_.push_back(x.i);
      slice_start_.push_back(fiber_id_.size());
    }
    if (new_slice || fiber_id_.back() != x.j) {
      fiber_id_.push_back(x.j);
      fiber_start_.push_back(e);
    }
  }
  slice_start_.push_back(fiber_id_.size());
  fiber_start_.push_back(entries_.size());
  entries_.shrink_to_fit();
  slice_id_.shrink_to_fit();
  slice_start_.shrink_to_fit();
  fiber_id_.shrink_to_fit();
  fiber_start_.shrink_to_fit();
  finalized_ = true;
  return Status::OK();
}

CsfView SparseTensor::csf() const {
  TCSS_CHECK(finalized_) << "SparseTensor::csf requires a finalized tensor";
  CsfView v;
  v.slice_id = slice_id_.data();
  v.slice_start = slice_start_.data();
  v.num_slices = slice_id_.size();
  v.fiber_id = fiber_id_.data();
  v.fiber_start = fiber_start_.data();
  v.entry = entries_.data();
  return v;
}

std::pair<size_t, size_t> SparseTensor::SliceFibers(uint32_t i) const {
  TCSS_CHECK(finalized_) << "SparseTensor::Pois and ::Entries require a "
                            "finalized tensor";
  const auto it = std::lower_bound(slice_id_.begin(), slice_id_.end(), i);
  if (it == slice_id_.end() || *it != i) return {0, 0};
  const size_t s = static_cast<size_t>(it - slice_id_.begin());
  return {slice_start_[s], slice_start_[s + 1]};
}

std::span<const uint32_t> SparseTensor::Pois(uint32_t i) const {
  const auto [first, last] = SliceFibers(i);
  return {fiber_id_.data() + first, last - first};
}

std::span<const TensorEntry> SparseTensor::Entries(uint32_t i) const {
  const auto [first, last] = SliceFibers(i);
  return {entries_.data() + fiber_start_[first],
          fiber_start_[last] - fiber_start_[first]};
}

double SparseTensor::Get(uint32_t i, uint32_t j, uint32_t k) const {
  const std::span<const TensorEntry> slice = Entries(i);
  const auto it = std::ranges::lower_bound(
      slice, std::pair(j, k), {},
      [](const TensorEntry& e) { return std::pair(e.j, e.k); });
  return it != slice.end() && it->j == j && it->k == k ? it->value : 0.0;
}

bool SparseTensor::Contains(uint32_t i, uint32_t j, uint32_t k) const {
  return Get(i, j, k) != 0.0;
}

double SparseTensor::SquaredSum() const {
  double s = 0.0;
  for (const auto& e : entries_) s += e.value * e.value;
  return s;
}

}  // namespace tcss
