#include "tensor/mttkrp.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/vector_ops.h"

namespace tcss {

namespace {

/// Below nnz * r multiply-adds, fork/join overhead dominates and the
/// serial loop runs. The choice depends on the tensor and the rank, never
/// on the thread count.
constexpr size_t kParallelWorkThreshold = 1u << 14;

/// Adds the contributions of slices [s_begin, s_end) to `out`.
void AddSlices(const CsfView& x, const Matrix factors[3], int mode,
               size_t s_begin, size_t s_end, Matrix* out) {
  const size_t r = out->cols();
  std::vector<double> acc(r);
  for (size_t s = s_begin; s < s_end; ++s) {
    const uint32_t i = x.slice_id[s];
    for (size_t f = x.slice_start[s]; f < x.slice_start[s + 1]; ++f) {
      const uint32_t j = x.fiber_id[f];
      const size_t begin = x.fiber_start[f];
      const size_t end = x.fiber_start[f + 1];
      if (mode == 2) {
        const double* a = factors[0].row(i);
        const double* b = factors[1].row(j);
        for (size_t e = begin; e < end; ++e) {
          const double v = x.entry[e].value;
          double* dst = out->row(x.entry[e].k);
          for (size_t t = 0; t < r; ++t) dst[t] += v * (a[t] * b[t]);
        }
        continue;
      }
      double* dst = out->row(mode == 0 ? i : j);
      const double* xr = mode == 0 ? factors[1].row(j) : factors[0].row(i);
      if (end - begin == 1) {
        const double v = x.entry[begin].value;
        const double* c = factors[2].row(x.entry[begin].k);
        for (size_t t = 0; t < r; ++t) dst[t] += v * xr[t] * c[t];
        continue;
      }
      std::fill(acc.begin(), acc.end(), 0.0);
      for (size_t e = begin; e < end; ++e) {
        const double v = x.entry[e].value;
        const double* c = factors[2].row(x.entry[e].k);
        for (size_t t = 0; t < r; ++t) acc[t] += v * c[t];
      }
      for (size_t t = 0; t < r; ++t) dst[t] += acc[t] * xr[t];
    }
  }
}

}  // namespace

Matrix Mttkrp(const SparseTensor& x, const Matrix factors[3], int mode) {
  TCSS_CHECK(mode >= 0 && mode <= 2);
  const size_t dims[3] = {x.dim_i(), x.dim_j(), x.dim_k()};
  const size_t r = factors[(mode + 1) % 3].cols();
  for (int m = 0; m < 3; ++m) {
    if (m == mode) continue;
    TCSS_CHECK(factors[m].rows() == dims[m] && factors[m].cols() == r);
  }
  Matrix out(dims[mode], r);
  const CsfView v = x.csf();
  if (x.nnz() * r < kParallelWorkThreshold) {
    AddSlices(v, factors, mode, 0, v.num_slices, &out);
    return out;
  }

  const size_t grain = ReduceGrain(v.num_slices, 1);
  if (mode == 0) {
    // Slices are distinct i values: shards write disjoint out rows, so
    // any decomposition is bit-identical to the serial loop.
    ParallelFor(v.num_slices, grain, [&](size_t begin, size_t end, size_t) {
      AddSlices(v, factors, mode, begin, end, &out);
    });
    return out;
  }

  // Modes 1/2 scatter into rows shared across slices, so the shards go
  // through ParallelReduce, which has no value to sum here. The
  // decomposition depends only on the tensor, so the bytes never depend
  // on the thread count. A free function keeps no state: its shard
  // buffers live for this call.
  ShardScratch<Matrix> scratch;
  ParallelReduce(
      v.num_slices, grain, &out, &scratch,
      [&] { return Matrix(dims[mode], r); },
      [&](size_t begin, size_t end, size_t, Matrix* dst) {
        AddSlices(v, factors, mode, begin, end, dst);
        return 0;
      },
      [](Matrix* part, Matrix* dst) {
        AddAndZero(dst->data(), part->data(), dst->size());
      });
  return out;
}

}  // namespace tcss
