#ifndef TCSS_STREAM_SLICE_ROLLER_H_
#define TCSS_STREAM_SLICE_ROLLER_H_

#include <cstdint>

#include "core/factor_model.h"

namespace tcss {

/// Time-slice rollover (DESIGN.md §14). The paper's time mode is a fixed
/// cyclic binning (12 months / 53 weeks / 24 hours); under continuous
/// traffic the bin about to be refilled with fresh data is the *oldest*
/// slice of the cycle. Rolling it forward means: forget what the factors
/// learned about that bin and warm-start its U3 row from its cyclic
/// neighbours — the temporal-smoothing prior of TATD (arXiv:2012.08855):
/// adjacent time slices share structure, so the mean of the two
/// neighbouring rows is a far better initialization for the refilling
/// slice than either zeros or its own stale values.
///
/// The roller is intentionally serial and allocation-light: a rollover is
/// a copy of the model plus one O(r) row rewrite, so its output is
/// bit-identical at any thread count (locked in by stream_test).
class SliceRoller {
 public:
  explicit SliceRoller(size_t num_bins);

  struct Rolled {
    uint32_t retired_bin = 0;
    FactorModel model;
  };

  /// Retires the next bin in cycle order: returns a copy of `base` whose
  /// U3 row for that bin is 0.5 * (U3[prev] + U3[next]) (cyclic
  /// neighbours), and advances the retire pointer. With fewer than three
  /// bins there are no distinct neighbours and the row is left unchanged.
  Rolled Roll(const FactorModel& base);

  /// The bin the next Roll() will retire.
  uint32_t next_retired() const { return next_; }

 private:
  size_t num_bins_;
  uint32_t next_ = 0;
};

}  // namespace tcss

#endif  // TCSS_STREAM_SLICE_ROLLER_H_
