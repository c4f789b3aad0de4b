#ifndef TCSS_LINALG_KERNEL_TABLE_H_
#define TCSS_LINALG_KERNEL_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "linalg/simd.h"

namespace tcss {

/// One nonzero of an order-3 tensor (tensor/sparse_tensor.h).
struct TensorEntry {
  uint32_t i;  ///< mode-1 index (user)
  uint32_t j;  ///< mode-2 index (POI)
  uint32_t k;  ///< mode-3 index (time bin)
  double value;

  bool operator==(const TensorEntry& o) const {
    return i == o.i && j == o.j && k == o.k && value == o.value;
  }
};

/// Compressed Sparse Fiber (CSF) tree of an order-3 tensor rooted at mode
/// 0, as SparseTensor::csf() returns it, so the linalg-layer kernels can
/// walk it without a dependency on the tensor library. Three levels:
/// distinct i values (slices) index into fibers via slice_start (size
/// num_slices + 1), distinct (i, j) pairs (fibers) index into the
/// nonzeros via fiber_start (size num_fibers + 1), and the nonzeros are
/// the tensor's own (i, j, k)-sorted entries. A kernel hoists per-slice
/// and per-fiber factor rows out of the nonzero loop: on check-in data a
/// user visits the same POI in several time bins.
struct CsfView {
  const uint32_t* slice_id = nullptr;
  const size_t* slice_start = nullptr;
  size_t num_slices = 0;
  const uint32_t* fiber_id = nullptr;
  const size_t* fiber_start = nullptr;
  const TensorEntry* entry = nullptr;
};

/// The dispatchable micro-kernels: the dense products, the L2 head's
/// entry loop, spectral init's block Gram apply, the social Hausdorff
/// head (and its distance block) and serving's top-k scan. Two tables
/// exist — scalar reference and native/vectorized — built from the SAME
/// kernel bodies (kernels_impl.h) in two translation units with
/// different flags. Every kernel keeps each output element's
/// floating-point accumulation chain in a fixed (ascending) order, so the
/// tables are interchangeable bit for bit; tests/kernels_test.cc enforces
/// it.
///
/// Matrix arguments are row-major with a row stride equal to the
/// logical column count (the only layout tcss::Matrix produces).
struct KernelTable {
  const char* name;

  /// out[i,:] += sum_k a[i * a_row + k * a_k] * b[k,:] for i in
  /// [i_begin, i_end), k ascending in [0, kk); b is (kk x n), out is
  /// (rows x n). MatMul's a b passes (a_row, a_k) = (kk, 1) and MatTMul's
  /// a^T b passes (1, a_cols): one panel loop serves both.
  void (*gemm_rows)(const double* a, size_t a_row, size_t a_k,
                    const double* b, double* out, size_t i_begin,
                    size_t i_end, size_t kk, size_t n);

  /// Upper triangle of the Gram product: out[i,j] += sum_k a[k,i]*a[k,j]
  /// for i in [i_begin, i_end), j in [i, cols). The caller mirrors the
  /// strict lower triangle; the (i,j) chain equals the full-rectangle
  /// (j,i) chain term for term (multiplication commutes), so mirroring
  /// is bitwise-faithful.
  void (*gram_upper)(const double* a, double* out, size_t i_begin,
                     size_t i_end, size_t rows, size_t cols);

  /// Observed-entry loop of the rewritten loss (Eq 15 positive part)
  /// over slices [s_begin, s_end): returns
  ///   sum (w+ - w-) y^2 - 2 w+ x y + w+ x^2,  y = sum_t h_t a_t b_t c_t
  /// (y summed in ascending t, the terms in entry order) and, when
  /// gu1 != nullptr, accumulates dL/dU1 into gu1 (global, slice rows are
  /// disjoint across shards), dL/dU2, dL/dU3, dL/dh into gu2/gu3/gh
  /// (shard buffers, merged by RewrittenLoss through ParallelReduce): per
  /// entry (g·hb)·c, (g·ha)·c, g·hab and (g·ab)·c with the fiber's
  /// products ha = h·a, hb = h·b, hab = (h·a)·b, ab = a·b, each element's
  /// terms in entry order. All g* must be null or non-null together.
  double (*csf_rewritten_entries)(const CsfView& x, const double* u1,
                                  const double* u2, const double* u3,
                                  const double* h, size_t r, double w_pos,
                                  double w_neg, double* gu1, double* gu2,
                                  double* gu3, double* gh, size_t s_begin,
                                  size_t s_end);

  /// Block Gram apply of ModeGramOperator (tensor/gram_operator.cc):
  /// for each of `groups` column groups, g spanning nonzeros
  /// [start[g], start[g + 1]),
  ///   s = sum_t val[t] * x[row[t], :]   (ascending t, from 0.0),
  ///   y[row[t], :] += val[t] * s        (ascending t),
  /// with x and y n x b row-major and the b columns side by side as
  /// lanes. Each column's chains are the single-vector operator's.
  void (*gram_block_apply)(const uint32_t* row, const double* val,
                           const size_t* start, size_t groups,
                           const double* x, size_t b, double* y);

  // --- Social Hausdorff head, one user per call -------------------------
  // (core/hausdorff_loss.cc). The user's candidate POIs S come as a list
  // of u2 row indices `pois`; the friend POIs N only through the float
  // distance block dist[a * nn + b]. Per-candidate arrays are padded to
  // HausdorffLanes(ns) entries and per-cell arrays (dp_dy, gate) use the
  // lane-grouped layout HausdorffCell(): four candidates side by side
  // per time bin. Padding entries are scratch the caller ignores.

  /// Prediction block: for candidate a and bin k,
  ///   y = sum_t (hu[t] * u2[pois[a], t]) * u3[k, t]   (ascending t),
  /// with hu = h * u1[user] — Predict()'s chain. y is clamped to [0, cap]
  /// (gate 0 where clamped, else 1); p[a] = 1 - prod_k (1 - y) and
  /// dp_dy = prod_{k' != k} (1 - y_k') as prefix * suffix products in
  /// ascending / descending k. `work` holds 4 * (r + K) doubles.
  void (*hausdorff_predict)(const double* hu, const double* u2,
                            const uint32_t* pois, size_t ns,
                            const double* u3, size_t K, size_t r, double cap,
                            double* p, double* dp_dy, uint8_t* gate,
                            double* work);

  /// Soft-min sweep, one pass for the value and dL/dp: for
  ///   f = max(p[a] * dist[a * nn + b] + (1 - p[a]) * d_max, floor),
  /// s[b] = sum_a f^alpha in ascending a, f^alpha being 1 / f when
  /// alpha == -1 and std::pow otherwise. When dl_dp != nullptr it also
  /// adds dL/dp for the soft-min means M_b = (s[b] / ns)^(1/alpha):
  /// strips of four friend POIs b keep q = f^(alpha-1) * (dist - d_max)
  /// in `work` (f^(alpha-1) = (1/f) * (1/f) when alpha == -1; q = 0 where
  /// f <= floor), and once a strip's sums are complete, lane l of
  /// candidate a gains
  /// q * (coef[b] * (s_pow * inv_ns)), s_pow = (s[b] * inv_ns)^(1/alpha
  /// - 1), b = 4 * strip + l, strips ascending. Finally dl_dp[a] +=
  /// ((l0 + l1) + (l2 + l3)). `work` holds 8 * ns doubles (unread when
  /// dl_dp is null).
  void (*hausdorff_softmin)(const double* p, const float* dist, size_t ns,
                            size_t nn, double d_max, double floor,
                            double alpha, const double* coef, double inv_ns,
                            double* s, double* dl_dp, double* work);

  /// Factor scatter: for candidates a with dl_dp[a] != 0 and bins k with
  /// gate 1, both ascending, g = grad_scale * dl_dp[a] * dp_dy; a nonzero
  /// g adds AccumulateEntryGrad's update of cell (user, pois[a], k) into
  /// gu1_row (the user's row), gu2, gu3 and gh.
  void (*hausdorff_scatter)(const double* u1_row, const double* u2,
                            const double* u3, const double* h, size_t r,
                            const uint32_t* pois, size_t ns, size_t K,
                            const double* dl_dp, const double* dp_dy,
                            const uint8_t* gate, double grad_scale,
                            double* gu1_row, double* gu2, double* gu3,
                            double* gh);

  /// Chord-form distance block (HausdorffDistanceBlock, which derives the
  /// margin and mirrors the pairs left out): `s` holds the ns candidates'
  /// unit vectors as three arrays side by side (x, then y, then z; 3 ns
  /// doubles) and `n` the nn friend POIs' likewise. Row a covers the
  /// pairs (a, b) with first[a] <= b < nn. For pair (a, b), with
  /// (dx, dy, dz) = s_a − n_b,
  ///   s = 0.5 · sqrt((dx·dx + dy·dy) + dz·dz),
  ///   d = two_r · asin(s),  m = m_abs + m_rel · d,
  /// asin being the kernels' own rational core (valid for s < 0.5). Writes
  /// dist[a * nn + b] = float(d) where s < 0.5 and float(d − m) ==
  /// float(d + m); every other covered pair's index a * nn + b goes into
  /// `exact` in ascending order, and the count is returned.
  size_t (*hausdorff_distances)(const double* s, size_t ns, const double* n,
                                size_t nn, const uint32_t* first,
                                double two_r, double m_abs, double m_rel,
                                float* dist, uint32_t* exact);

  /// Exact top-k scan (serve/recommend_service.cc): f32 scores of
  /// `groups` lane groups of a POI panel, kPanelLanes POIs side by side
  /// per t, against the query q (length r):
  ///   out[g * kPanelLanes + l] = sum_t panel[(g * r + t) * kPanelLanes + l]
  ///                                    * q[t],
  /// each lane a multiply-then-add chain in ascending t from 0.
  void (*panel_scores)(const float* panel, size_t groups, const float* q,
                       size_t r, float* out);
};

/// POIs per lane group of the panel_scores kernel.
inline constexpr size_t kPanelLanes = 8;

/// Candidate count of the Hausdorff kernels rounded up to whole lane
/// groups of four.
inline size_t HausdorffLanes(size_t ns) { return (ns + 3) & ~size_t{3}; }

/// Index of cell (candidate a, bin k) in the Hausdorff kernels' per-cell
/// arrays of a user with K bins.
inline size_t HausdorffCell(size_t a, size_t k, size_t K) {
  return ((a >> 2) * K + k) * 4 + (a & 3);
}

/// The two concrete tables (kernels_scalar.cc / kernels_native.cc).
const KernelTable& ScalarKernelTable();
const KernelTable& NativeKernelTable();

/// Table selected by ActiveSimdMode(). Resolve once per kernel call
/// site, outside parallel loops.
const KernelTable& ActiveKernels();

}  // namespace tcss

#endif  // TCSS_LINALG_KERNEL_TABLE_H_
