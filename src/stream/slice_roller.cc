#include "stream/slice_roller.h"

namespace tcss {

SliceRoller::SliceRoller(size_t num_bins) : num_bins_(num_bins) {}

SliceRoller::Rolled SliceRoller::Roll(const FactorModel& base) {
  Rolled out;
  out.retired_bin = next_;
  out.model = base;
  const size_t K = out.model.u3.rows();
  const size_t r = out.model.u3.cols();
  if (num_bins_ >= 3 && next_ < K) {
    const uint32_t prev =
        static_cast<uint32_t>((next_ + num_bins_ - 1) % num_bins_);
    const uint32_t succ = static_cast<uint32_t>((next_ + 1) % num_bins_);
    if (prev < K && succ < K) {
      const double* p = base.u3.row(prev);
      const double* n = base.u3.row(succ);
      double* row = out.model.u3.row(next_);
      for (size_t t = 0; t < r; ++t) row[t] = 0.5 * (p[t] + n[t]);
    }
  }
  if (num_bins_ > 0) next_ = static_cast<uint32_t>((next_ + 1) % num_bins_);
  return out;
}

}  // namespace tcss
