#ifndef TCSS_CORE_FACTOR_MODEL_H_
#define TCSS_CORE_FACTOR_MODEL_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace tcss {

/// The learnable state of TCSS (Eq 6): three factor matrices plus the
/// dense-layer weight vector h. Plain value type; trainers own the
/// optimizer state separately.
struct FactorModel {
  Matrix u1;              ///< I x r (users)
  Matrix u2;              ///< J x r (POIs)
  Matrix u3;              ///< K x r (time bins)
  std::vector<double> h;  ///< r importance weights

  size_t rank() const { return h.size(); }

  /// X-hat(i,j,k) = sum_t h_t * U1[i,t] * U2[j,t] * U3[k,t].
  double Predict(uint32_t i, uint32_t j, uint32_t k) const {
    const double* a = u1.row(i);
    const double* b = u2.row(j);
    const double* c = u3.row(k);
    double s = 0.0;
    for (size_t t = 0; t < h.size(); ++t) s += h[t] * a[t] * b[t] * c[t];
    return s;
  }
};

/// Gradient accumulator shaped like a FactorModel. Also reused as the
/// container for Adam moment estimates (same shape as the model).
struct FactorGrads {
  Matrix u1, u2, u3;
  std::vector<double> h;

  /// Empty shape; filled in by deserialization (checkpoint restore).
  FactorGrads() = default;

  explicit FactorGrads(const FactorModel& m)
      : u1(m.u1.rows(), m.u1.cols()),
        u2(m.u2.rows(), m.u2.cols()),
        u3(m.u3.rows(), m.u3.cols()),
        h(m.h.size(), 0.0) {}

  /// Bytes of the four blocks' values.
  size_t bytes() const {
    return (u1.size() + u2.size() + u3.size() + h.size()) * sizeof(double);
  }

  void Zero() {
    u1.Fill(0.0);
    u2.Fill(0.0);
    u3.Fill(0.0);
    std::fill(h.begin(), h.end(), 0.0);
  }

  /// this += alpha * *part, leaving *part all +0.0, one pass per block
  /// (shapes must match): the merge that ParallelReduce
  /// (common/thread_pool.h) applies to a shard's gradient buffer after
  /// each wave, in ascending shard order, before the buffer serves the
  /// next shard (DESIGN.md, "Deterministic parallelism").
  void AddAndZero(FactorGrads* part, double alpha = 1.0) {
    TCSS_CHECK(part->u1.size() == u1.size() && part->u2.size() == u2.size() &&
               part->u3.size() == u3.size() && part->h.size() == h.size());
    tcss::AddAndZero(u1.data(), part->u1.data(), u1.size(), alpha);
    tcss::AddAndZero(u2.data(), part->u2.data(), u2.size(), alpha);
    tcss::AddAndZero(u3.data(), part->u3.data(), u3.size(), alpha);
    tcss::AddAndZero(h.data(), part->h.data(), h.size(), alpha);
  }
};

/// A zeroed gradient buffer for one shard of a ParallelReduce site
/// (common/thread_pool.h), shaped like `m` but with an empty U1 unless
/// `with_u1`. Every shard writes the small U3 and h blocks, so each is
/// allocated with a spare 64-byte line after its values: no two shard
/// buffers' U3 or h then share a cache line.
inline FactorGrads ShardGrads(const FactorModel& m, bool with_u1) {
  constexpr size_t kLineDoubles = 64 / sizeof(double);
  FactorGrads g;
  if (with_u1) g.u1 = Matrix(m.u1.rows(), m.u1.cols());
  g.u2 = Matrix(m.u2.rows(), m.u2.cols());
  g.u3 = Matrix(1, m.u3.size() + kLineDoubles);
  g.u3.Resize(m.u3.rows(), m.u3.cols());  // keeps the capacity
  g.h.reserve(m.h.size() + kLineDoubles);
  g.h.assign(m.h.size(), 0.0);
  return g;
}

/// The shard buffer of a ParallelReduce site whose shards each write a few
/// rows of U1 and U2 (the L2 head's entry loop, the Hausdorff minibatch):
/// ShardGrads' blocks plus one bit per U1 and U2 row. A shard marks every
/// row it writes; MergeInto adds and zeroes only the marked rows, U3 and h
/// whole, and clears the marks. It leaves `out` as a full merge would: an
/// unmarked row holds +0.0, and out + +0.0 == out unless out is -0.0,
/// which a gradient that starts at +0.0 and is only added into never is.
struct ShardRowGrads : FactorGrads {
  std::vector<uint64_t> u1_rows, u2_rows;  ///< bit i: row i was written

  ShardRowGrads() = default;
  ShardRowGrads(const FactorModel& m, bool with_u1)
      : FactorGrads(ShardGrads(m, with_u1)),
        u1_rows(RowBits(u1.rows())),
        u2_rows(RowBits(u2.rows())) {}

  void MarkU1(size_t i) { u1_rows[i >> 6] |= uint64_t{1} << (i & 63); }
  void MarkU2(size_t j) { u2_rows[j >> 6] |= uint64_t{1} << (j & 63); }

  /// *out += *this on the marked rows and all of U3 and h, leaving this
  /// buffer all +0.0 and unmarked.
  void MergeInto(FactorGrads* out) {
    MergeRows(&u1_rows, &u1, &out->u1);
    MergeRows(&u2_rows, &u2, &out->u2);
    tcss::AddAndZero(out->u3.data(), u3.data(), u3.size());
    tcss::AddAndZero(out->h.data(), h.data(), h.size());
  }

 private:
  /// Zeroed bits for `rows` rows, with a spare 64-byte line after them
  /// (as ShardGrads' U3 and h): shards mark their own words only.
  static std::vector<uint64_t> RowBits(size_t rows) {
    std::vector<uint64_t> bits;
    bits.reserve((rows + 63) / 64 + 8);
    bits.assign((rows + 63) / 64, 0);
    return bits;
  }

  /// Adds and zeroes each run of marked rows with one call.
  static void MergeRows(std::vector<uint64_t>* bits, Matrix* part,
                        Matrix* out) {
    for (size_t w = 0; w < bits->size(); ++w) {
      uint64_t word = (*bits)[w];
      while (word != 0) {
        const int lo = std::countr_zero(word);
        const int len = std::countr_one(word >> lo);
        const size_t row = w * 64 + static_cast<size_t>(lo);
        tcss::AddAndZero(out->row(row), part->row(row),
                         static_cast<size_t>(len) * part->cols());
        word = lo + len == 64 ? 0 : word & (~uint64_t{0} << (lo + len));
      }
      (*bits)[w] = 0;
    }
  }
};

}  // namespace tcss

#endif  // TCSS_CORE_FACTOR_MODEL_H_
