#include "tensor/sparse_tensor.h"

#include <algorithm>
#include <memory>
#include <utility>

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

void SparseTensor::Reserve(size_t n) { entries_.reserve(n); }

Status SparseTensor::Finalize(bool binary) {
  if (finalized_) {
    return Status::FailedPrecondition("SparseTensor: double Finalize");
  }
  // Three stable counting passes, by k, then j, then i, leave the entries
  // in (i, j, k) order with duplicates in the order they were added. Each
  // pass writes one 16-byte cell per entry: the two indices it does not
  // bucket by, and the value. The bucket a cell sits in gives the third,
  // so the next pass walks the cells bucket by bucket. `starts` turns a
  // pass's counts per bucket into bucket starts, which its scatter
  // advances to bucket ends. The entries are freed after the first pass,
  // and at most two cell arrays are alive at a time.
  struct Cell {
    uint32_t a, b;
    double value;
  };
  auto starts = [](std::vector<size_t>* counts) {
    size_t next = 0;
    for (size_t& c : *counts) next += std::exchange(c, next);
  };
  const size_t n = entries_.size();
  std::vector<size_t> k_end(dim_k_, 0);
  for (const TensorEntry& e : entries_) ++k_end[e.k];
  starts(&k_end);
  auto by_k = std::make_unique_for_overwrite<Cell[]>(n);  // {i, j}
  for (const TensorEntry& e : entries_) {
    by_k[k_end[e.k]++] = {e.i, e.j, e.value};
  }
  std::vector<TensorEntry>().swap(entries_);

  std::vector<size_t> j_end(dim_j_, 0);
  for (size_t c = 0; c < n; ++c) ++j_end[by_k[c].b];
  starts(&j_end);
  auto by_j = std::make_unique_for_overwrite<Cell[]>(n);  // {i, k}
  for (size_t k = 0, c = 0; k < dim_k_; ++k) {
    for (; c < k_end[k]; ++c) {
      by_j[j_end[by_k[c].b]++] = {by_k[c].a, static_cast<uint32_t>(k),
                                  by_k[c].value};
    }
  }
  by_k.reset();

  std::vector<size_t> i_end(dim_i_, 0);
  for (size_t c = 0; c < n; ++c) ++i_end[by_j[c].a];
  starts(&i_end);
  auto by_i = std::make_unique_for_overwrite<Cell[]>(n);  // {j, k}
  for (size_t j = 0, c = 0; j < dim_j_; ++j) {
    for (; c < j_end[j]; ++c) {
      by_i[i_end[by_j[c].a]++] = {static_cast<uint32_t>(j), by_j[c].b,
                                  by_j[c].value};
    }
  }
  by_j.reset();

  // Coalesce each run of equal (i, j, k) in order; the kept cells move
  // down to the front of by_i, and i_end[i] becomes the end of slice i's
  // kept cells.
  size_t kept = 0, fibers = 0, slices = 0;
  for (size_t i = 0, c = 0; i < dim_i_; ++i) {
    const size_t first = kept;
    while (c < i_end[i]) {
      Cell x = by_i[c];
      while (++c < i_end[i] && by_i[c].a == x.a && by_i[c].b == x.b) {
        x.value += by_i[c].value;
      }
      if (binary) {
        // Drop explicit zeros that a binary clamp would produce.
        if (x.value == 0.0) continue;
        x.value = 1.0;
      }
      if (kept == first || by_i[kept - 1].a != x.a) ++fibers;
      by_i[kept++] = x;
    }
    if (kept > first) ++slices;
    i_end[i] = kept;
  }

  // The entries and the CSF levels, each at its exact size: a slice
  // starts where i changes, a fiber where i or j does.
  entries_.reserve(kept);
  slice_id_.reserve(slices);
  slice_start_.reserve(slices + 1);
  fiber_id_.reserve(fibers);
  fiber_start_.reserve(fibers + 1);
  for (size_t i = 0, c = 0; i < dim_i_; ++i) {
    if (c == i_end[i]) continue;
    slice_id_.push_back(static_cast<uint32_t>(i));
    slice_start_.push_back(fiber_id_.size());
    for (const size_t first = c; c < i_end[i]; ++c) {
      const Cell& x = by_i[c];
      if (c == first || fiber_id_.back() != x.a) {
        fiber_id_.push_back(x.a);
        fiber_start_.push_back(entries_.size());
      }
      entries_.push_back({static_cast<uint32_t>(i), x.a, x.b, x.value});
    }
  }
  slice_start_.push_back(fiber_id_.size());
  fiber_start_.push_back(entries_.size());
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

}  // namespace tcss
