// Shared micro-kernel bodies, compiled twice: kernels_scalar.cc includes
// this with TCSS_KERNEL_NS=scalar under the project-default flags, and
// kernels_native.cc with TCSS_KERNEL_NS=native plus vector flags
// (-fopenmp-simd, -O3, -mavx2 where supported, -ffp-contract=off). The
// bodies are written so the two builds are BITWISE-identical:
//
//  * every output element accumulates its terms in a fixed ascending
//    order (k for gemm, entry order for CSF) — vector hints only apply
//    across independent elements, never across terms of one chain;
//  * dot-product style reductions (the y predictions) stay plain scalar
//    loops in both builds — an omp-simd reduction would tree-reorder;
//  * -ffp-contract=off on the native TU forbids mul+add fusion, so both
//    builds round every product and sum identically.
//
// Register blocking: the dense products share one tile, 1 or 2 output
// rows x up to 16 columns held in local accumulators across a whole k
// tile, so each output element is loaded/stored twice per kKc
// multiply-adds instead of once per iteration. One panel loop drives it
// for MatMul and MatTMul (a read along its rows or down its columns), and
// GramUpper walks its triangle on the same tile; the b panel streamed per
// pass stays cache-resident across output rows. This moves data and
// never changes any chain's order: contributions stay sequential
// statements in ascending k.
//
// This header intentionally has no include guard semantics beyond the
// two dedicated TUs; do not include it elsewhere.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/kernel_table.h"

#if defined(TCSS_KERNELS_VECTORIZE)
#define TCSS_SIMD_LOOP _Pragma("omp simd")
#else
#define TCSS_SIMD_LOOP
#endif

// The gemm tile uses explicit AVX2 intrinsics in the native TU: GCC
// will not keep a local array of double accumulators in registers across
// the k loop (it round-trips the tile through the stack every iteration),
// which caps the pragma version well below port throughput. Explicit
// _mm256_mul_pd/_mm256_add_pd are exactly the scalar mul and add applied
// lane-wise — never contracted into FMA — so each output element's chain
// rounds identically to the scalar build.
#if defined(TCSS_KERNELS_VECTORIZE) && defined(__AVX2__)
#include <immintrin.h>
#define TCSS_KERNELS_USE_AVX2 1
#endif

namespace tcss {
namespace kern {
namespace TCSS_KERNEL_NS {

namespace {

/// k-tile for the dense products: 64 rows of b stay hot across the whole
/// [i_begin, i_end) row block while the output tile sits in registers.
constexpr size_t kKc = 64;
/// Widest gemm tile: 16 columns, four AVX2 vectors of doubles.
constexpr size_t kJc = 16;

#if defined(TCSS_KERNELS_USE_AVX2)
/// Mask of the first `lanes` (1-4) doubles of a vector: the partial last
/// vector of a row narrower than a whole number of vectors. Masked loads
/// and stores touch nothing past the row, so operands read in place
/// (unpacked) never spill into the next row or off the end of an array.
inline __m256i TailMask(size_t lanes) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(lanes)),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

/// GemmTile on AVX2: R rows of NV vectors; with kMask the last vector
/// holds only the lanes in `tail`, so a whole number of vectors (a full
/// 16-wide tile among them) runs unmasked. Each lane takes the scalar
/// chain: a multiply, then an add, per k in ascending k.
template <int R, int NV, bool kMask>
inline void GemmTileAvx2(const double* a0, const double* a1, size_t stride,
                         const double* bp, size_t bstride, double* o0,
                         double* o1, size_t kc, size_t kc_end,
                         __m256i tail) {
  double* o[2] = {o0, o1};
  const double* pa[2] = {a0 + kc * stride, a1 + kc * stride};
  auto load = [tail](const double* p, int v) {
    return kMask && v == NV - 1 ? _mm256_maskload_pd(p + 4 * v, tail)
                                : _mm256_loadu_pd(p + 4 * v);
  };
  __m256d acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) acc[r][v] = load(o[r], v);
  }
  // One k step: row r adds pa[r][off] times the b row at brow. Each row
  // loads its own unmasked b vectors: a single-use load folds
  // into the multiply as a memory operand (one fused uop instead of a
  // load plus a mul), which is what the 4-wide front end rations; the
  // loads hit L1 and the load ports are otherwise idle. A masked load
  // cannot fold, so both rows share it.
  auto step = [&](const double* brow, size_t off) {
    const __m256d last = load(brow, NV - 1);
    for (int r = 0; r < R; ++r) {
      const __m256d av = _mm256_broadcast_sd(pa[r] + off);
      for (int v = 0; v < NV; ++v) {
        const __m256d bv = kMask && v == NV - 1
                               ? last
                               : _mm256_loadu_pd(brow + 4 * v);
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(av, bv));
      }
    }
  };
  // Two k steps per trip amortize the loop control (the body is front-end
  // bound, not port bound); every accumulator still takes k before k + 1.
  size_t k = kc;
  for (; k + 2 <= kc_end; k += 2) {
    const double* brow = bp + (k - kc) * bstride;
    // The first row sweep per (kc, j0) tile streams the b tile from L2
    // faster than this vCPU's hardware prefetcher pulls it; fetch ~16
    // rows ahead by hand. A prefetch never changes architectural state,
    // so past-the-end addresses are harmless.
    _mm_prefetch(reinterpret_cast<const char*>(brow) + 2048, _MM_HINT_T0);
    step(brow, 0);
    step(brow + bstride, stride);
    for (int r = 0; r < R; ++r) pa[r] += 2 * stride;
  }
  if (k < kc_end) step(bp + (k - kc) * bstride, 0);
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      if (kMask && v == NV - 1) {
        _mm256_maskstore_pd(o[r] + 4 * v, tail, acc[r][v]);
      } else {
        _mm256_storeu_pd(o[r] + 4 * v, acc[r][v]);
      }
    }
  }
}
#endif

/// One (R x jw) output tile, R in {1, 2} and 1 <= jw <= kJc, accumulated
/// over [kc, kc_end): row r (a_r, o_r; R = 1 ignores a1 and o1) adds
/// a_r[k * stride] * bp[(k - kc) * bstride + t] into o_r[t]. `stride` is
/// how far a row of a advances per k; bp row 0 is k = kc. Contributions
/// are sequential adds in ascending k, the chain of a naive dot product.
template <int R>
inline void GemmTile(const double* a0, const double* a1, size_t stride,
                     const double* bp, size_t bstride, double* o0,
                     double* o1, size_t kc, size_t kc_end, size_t jw) {
#if defined(TCSS_KERNELS_USE_AVX2)
  const __m256i tail = TailMask(((jw - 1) & 3) + 1);
  const bool mask = (jw & 3) != 0;
  switch ((jw + 3) / 4) {
#define TCSS_GEMM_CASE(NV)                                                 \
  case NV:                                                                 \
    return mask ? GemmTileAvx2<R, NV, true>(a0, a1, stride, bp, bstride,   \
                                            o0, o1, kc, kc_end, tail)      \
                : GemmTileAvx2<R, NV, false>(a0, a1, stride, bp, bstride,  \
                                             o0, o1, kc, kc_end, tail);
    TCSS_GEMM_CASE(1) TCSS_GEMM_CASE(2) TCSS_GEMM_CASE(3) TCSS_GEMM_CASE(4)
#undef TCSS_GEMM_CASE
  }
#else
  double* o[2] = {o0, o1};
  const double* pa[2] = {a0 + kc * stride, a1 + kc * stride};
  double acc[R][kJc];
  for (int r = 0; r < R; ++r) {
    for (size_t t = 0; t < jw; ++t) acc[r][t] = o[r][t];
  }
  for (size_t k = kc; k < kc_end; ++k) {
    double av[R];
    for (int r = 0; r < R; ++r) {
      av[r] = *pa[r];
      pa[r] += stride;
    }
    const double* __restrict brow = bp + (k - kc) * bstride;
    TCSS_SIMD_LOOP
    for (size_t t = 0; t < jw; ++t) {
      for (int r = 0; r < R; ++r) acc[r][t] += av[r] * brow[t];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (size_t t = 0; t < jw; ++t) o[r][t] = acc[r][t];
  }
#endif
}

/// Packs the (kc_end - kc) x jw sub-panel of b at column j0 into `bp`
/// with a fixed kJc row stride. The packed copy is contiguous (<= 8 KB),
/// so the tile's k-loop loads can never alias in L1 — with a
/// power-of-two n (e.g. 512) the unpacked rows sit exactly 4 KB apart
/// and all map to one L1 set, turning every load into a miss. Packing is
/// pure data movement: the values the chains consume are bit-identical.
inline void PackBPanel(const double* b, size_t n, size_t kc, size_t kc_end,
                       size_t j0, size_t jw, double* __restrict bp) {
  for (size_t k = kc; k < kc_end; ++k) {
    const double* __restrict src = b + k * n + j0;
    double* __restrict row = bp + (k - kc) * kJc;
    for (size_t t = 0; t < jw; ++t) row[t] = src[t];
  }
}

void GemmRows(const double* a, size_t a_row, size_t a_k, const double* b,
              double* out, size_t i_begin, size_t i_end, size_t kk,
              size_t n) {
  // Loop order: kc -> j0 -> i. A b wider than one tile is packed per kc
  // tile, kJc columns per block; with j0 outer, the 8 KB packed block
  // stays L1-resident across the entire i sweep, and the dominant stream
  // becomes the a block (kKc columns of a, re-read once per j0 tile)
  // instead of the full packed panel being re-streamed per row pair,
  // which is n/kJc times more traffic. (Blocking i to bound the a
  // re-reads was tried and measured slower: it cuts the b tile's
  // L1-resident reuse from the full row sweep to one block's worth.) A b
  // at most one tile wide is read in place: its rows sit <= 128 bytes
  // apart, so nothing aliases in L1, and the tall-skinny products skip a
  // copy of b per output-row shard. Per-element accumulation order is
  // untouched — i/j0 only enumerate independent outputs.
  const bool packed = n > kJc;
  const size_t ntiles = (n + kJc - 1) / kJc;
  std::vector<double> bp_all(packed ? ntiles * kKc * kJc : 0);
  for (size_t kc = 0; kc < kk; kc += kKc) {
    const size_t kc_end = std::min(kc + kKc, kk);
    for (size_t jt = 0; packed && jt < ntiles; ++jt) {
      const size_t j0 = jt * kJc;
      PackBPanel(b, n, kc, kc_end, j0, std::min(kJc, n - j0),
                 &bp_all[jt * kKc * kJc]);
    }
    for (size_t jt = 0; jt < ntiles; ++jt) {
      const size_t j0 = jt * kJc;
      const size_t jw = std::min(kJc, n - j0);
      const double* bp = packed ? &bp_all[jt * kKc * kJc] : b + kc * n;
      const size_t bstride = packed ? kJc : n;
      size_t i = i_begin;
      for (; i + 2 <= i_end; i += 2) {
        GemmTile<2>(a + i * a_row, a + (i + 1) * a_row, a_k, bp, bstride,
                    out + i * n + j0, out + (i + 1) * n + j0, kc, kc_end, jw);
      }
      if (i < i_end) {
        GemmTile<1>(a + i * a_row, a + i * a_row, a_k, bp, bstride,
                    out + i * n + j0, out + i * n + j0, kc, kc_end, jw);
      }
    }
  }
}

void GramUpper(const double* a, double* out, size_t i_begin, size_t i_end,
               size_t rows, size_t cols) {
  // Upper triangle only: row i covers j in [i, cols). No b packing
  // here: the k panel of a is contiguous (cols is the rank, so its row
  // stride is a few hundred bytes, never a power-of-two page) and stays
  // L1-hot across the whole i loop — the tiles read it in place.
  for (size_t kc = 0; kc < rows; kc += kKc) {
    const size_t kc_end = std::min(kc + kKc, rows);
    for (size_t i = i_begin; i < i_end; ++i) {
      for (size_t j0 = i; j0 < cols; j0 += kJc) {
        GemmTile<1>(a + i, a + i, cols, a + kc * cols + j0, cols,
                    out + i * cols + j0, out + i * cols + j0, kc, kc_end,
                    std::min(kJc, cols - j0));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Block Gram apply: one pass over the column groups serves all b columns
// of the block. The lanes are block columns, so SIMD never enters a chain.
// The single-vector operator skipped a group whose s was zero; adding the
// zero product val * s instead leaves y bitwise unchanged: s == 0 means
// every val in the group is finite, so val * s is +-0, and y, which starts
// at +0.0 and only ever has values added to it, is never -0.0.
// ---------------------------------------------------------------------------

#if defined(TCSS_KERNELS_USE_AVX2)
/// One group over the W block columns at j0: W / 4 full vectors, then a
/// 2-lane and a 1-lane remainder as W % 4 needs. Plain (unmasked) stores:
/// a row of y that the next groups update again can forward from them.
template <int W>
inline void GramGroupLanes(const uint32_t* row, const double* val, size_t tb,
                           size_t te, const double* x, size_t b, double* y,
                           size_t j0) {
  constexpr int NV = W / 4;
  constexpr bool k2 = (W & 2) != 0;
  constexpr bool k1 = (W & 1) != 0;
  constexpr int o2 = 4 * NV;
  constexpr int o1 = o2 + (k2 ? 2 : 0);
  __m256d s[NV > 0 ? NV : 1];
  __m128d s2 = _mm_setzero_pd();
  double s1 = 0.0;
  for (int v = 0; v < NV; ++v) s[v] = _mm256_setzero_pd();
  for (size_t t = tb; t < te; ++t) {
    const double vs = val[t];
    const __m256d vt = _mm256_set1_pd(vs);
    const double* xr = x + size_t{row[t]} * b + j0;
    for (int v = 0; v < NV; ++v) {
      s[v] = _mm256_add_pd(s[v],
                           _mm256_mul_pd(vt, _mm256_loadu_pd(xr + 4 * v)));
    }
    if (k2) {
      s2 = _mm_add_pd(s2, _mm_mul_pd(_mm256_castpd256_pd128(vt),
                                     _mm_loadu_pd(xr + o2)));
    }
    if (k1) s1 += vs * xr[o1];
  }
  for (size_t t = tb; t < te; ++t) {
    const double vs = val[t];
    const __m256d vt = _mm256_set1_pd(vs);
    double* yr = y + size_t{row[t]} * b + j0;
    for (int v = 0; v < NV; ++v) {
      _mm256_storeu_pd(yr + 4 * v, _mm256_add_pd(_mm256_loadu_pd(yr + 4 * v),
                                                 _mm256_mul_pd(vt, s[v])));
    }
    if (k2) {
      _mm_storeu_pd(yr + o2,
                    _mm_add_pd(_mm_loadu_pd(yr + o2),
                               _mm_mul_pd(_mm256_castpd256_pd128(vt), s2)));
    }
    if (k1) yr[o1] += vs * s1;
  }
}

/// GramGroupLanes for a runtime width w in [1, kJc].
inline void GramGroupAny(const uint32_t* row, const double* val, size_t tb,
                         size_t te, const double* x, size_t b, double* y,
                         size_t j0, size_t w) {
  switch (w) {
#define TCSS_GRAM_CASE(W) \
  case W:                 \
    GramGroupLanes<W>(row, val, tb, te, x, b, y, j0); \
    break;
    TCSS_GRAM_CASE(1) TCSS_GRAM_CASE(2) TCSS_GRAM_CASE(3) TCSS_GRAM_CASE(4)
    TCSS_GRAM_CASE(5) TCSS_GRAM_CASE(6) TCSS_GRAM_CASE(7) TCSS_GRAM_CASE(8)
    TCSS_GRAM_CASE(9) TCSS_GRAM_CASE(10) TCSS_GRAM_CASE(11)
    TCSS_GRAM_CASE(12) TCSS_GRAM_CASE(13) TCSS_GRAM_CASE(14)
    TCSS_GRAM_CASE(15) TCSS_GRAM_CASE(16)
#undef TCSS_GRAM_CASE
    default:
      break;
  }
}
#endif

void GramBlockApply(const uint32_t* row, const double* val,
                    const size_t* start, size_t groups, const double* x,
                    size_t b, double* y) {
  if (b == 0) return;
  // Block columns go in kJc-wide chunks; all but the last are full.
  const size_t last_j0 = (b - 1) / kJc * kJc;
  const size_t last_w = b - last_j0;
  for (size_t g = 0; g < groups; ++g) {
    const size_t tb = start[g];
    const size_t te = start[g + 1];
    for (size_t j0 = 0; j0 <= last_j0; j0 += kJc) {
      const size_t w = j0 < last_j0 ? kJc : last_w;
#if defined(TCSS_KERNELS_USE_AVX2)
      GramGroupAny(row, val, tb, te, x, b, y, j0, w);
#else
      double s[kJc] = {};
      for (size_t t = tb; t < te; ++t) {
        const double v = val[t];
        const double* __restrict xr = x + size_t{row[t]} * b + j0;
        TCSS_SIMD_LOOP
        for (size_t c = 0; c < w; ++c) s[c] += v * xr[c];
      }
      for (size_t t = tb; t < te; ++t) {
        const double v = val[t];
        double* __restrict yr = y + size_t{row[t]} * b + j0;
        TCSS_SIMD_LOOP
        for (size_t c = 0; c < w; ++c) yr[c] += v * s[c];
      }
#endif
    }
  }
}

// ---------------------------------------------------------------------------
// Lane widths of the register-resident gradient panels (the L2 entry loop
// and the Hausdorff scatter): four (ymm), two (xmm) and one (scalar)
// doubles, each applying the scalar mul and add lane-wise. The scalar
// build's four- and two-lane types are plain arrays with the same ops, so
// one panel body serves both tables.
// ---------------------------------------------------------------------------

#if defined(TCSS_KERNELS_USE_AVX2)
struct Ymm {
  using V = __m256d;
  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V Set1(double x) { return _mm256_set1_pd(x); }
  static V Mul(V x, V y) { return _mm256_mul_pd(x, y); }
  static V Add(V x, V y) { return _mm256_add_pd(x, y); }
};
struct Xmm {
  using V = __m128d;
  static V Load(const double* p) { return _mm_loadu_pd(p); }
  static void Store(double* p, V v) { _mm_storeu_pd(p, v); }
  static V Set1(double x) { return _mm_set1_pd(x); }
  static V Mul(V x, V y) { return _mm_mul_pd(x, y); }
  static V Add(V x, V y) { return _mm_add_pd(x, y); }
};
#else
template <size_t N>
struct Lanes {
  struct V {
    double l[N];
  };
  static V Load(const double* p) {
    V v;
    for (size_t i = 0; i < N; ++i) v.l[i] = p[i];
    return v;
  }
  static void Store(double* p, V v) {
    for (size_t i = 0; i < N; ++i) p[i] = v.l[i];
  }
  static V Set1(double x) {
    V v;
    for (size_t i = 0; i < N; ++i) v.l[i] = x;
    return v;
  }
  static V Mul(V x, V y) {
    for (size_t i = 0; i < N; ++i) x.l[i] = x.l[i] * y.l[i];
    return x;
  }
  static V Add(V x, V y) {
    for (size_t i = 0; i < N; ++i) x.l[i] = x.l[i] + y.l[i];
    return x;
  }
};
using Ymm = Lanes<4>;
using Xmm = Lanes<2>;
#endif
struct Sd {
  using V = double;
  static V Load(const double* p) { return *p; }
  static void Store(double* p, V v) { *p = v; }
  static V Set1(double x) { return x; }
  static V Mul(V x, V y) { return x * y; }
  static V Add(V x, V y) { return x + y; }
};

/// W lanes of one gradient row held in registers: W / 4 ymm chunks, then
/// the W % 4 tail as an xmm pair and/or a scalar lane, so no access strays
/// past a row. Named members, since GCC spills an array of vectors; a
/// partial sum held in a register has the bits it would have in memory.
template <size_t W>
struct PanelRow {
  static constexpr size_t kVecs = W / 4;
  Ymm::V v0, v1, v2, v3;
  Xmm::V x;
  double s;

  /// Calls f(lanes, t, &a's chunk, &b's chunk) for every chunk, t being
  /// the chunk's first lane and `lanes` its width type.
  template <typename F>
  static void Zip(PanelRow* a, PanelRow* b, F f) {
    if constexpr (kVecs > 0) f(Ymm{}, 0, &a->v0, &b->v0);
    if constexpr (kVecs > 1) f(Ymm{}, 4, &a->v1, &b->v1);
    if constexpr (kVecs > 2) f(Ymm{}, 8, &a->v2, &b->v2);
    if constexpr (kVecs > 3) f(Ymm{}, 12, &a->v3, &b->v3);
    if constexpr (W % 4 >= 2) f(Xmm{}, 4 * kVecs, &a->x, &b->x);
    if constexpr (W % 2 == 1) f(Sd{}, W - 1, &a->s, &b->s);
  }
  static PanelRow Load(const double* p) {
    PanelRow row;
    Zip(&row, &row, [p](auto lanes, size_t t, auto* v, auto*) {
      *v = decltype(lanes)::Load(p + t);
    });
    return row;
  }
  void Store(double* p) {
    Zip(this, this, [p](auto lanes, size_t t, auto* v, auto*) {
      decltype(lanes)::Store(p + t, *v);
    });
  }
};

/// The entry loop on the W-lane rank panel at t0: per fiber the panel's
/// products ha = h*a, hb = h*b, hab = (h*a)*b and ab = a*b sit on the
/// stack; per entry y is the ascending-t sum over the whole rank (the
/// panel's hab, and outside it (h*a)*b recomputed: the same product), and
/// the four updates (g*hb)*c, (g*ha)*c, g*hab and (g*ab)*c go to the
/// panel's lanes in entry order. The slice's dL/dU1 lanes and dL/dh's stay
/// in registers. Every panel returns the same loss.
template <size_t W>
double CsfEntriesPanel(const CsfView& x, const double* __restrict u1,
                       const double* __restrict u2,
                       const double* __restrict u3,
                       const double* __restrict h, size_t r, size_t t0,
                       double w_pos, double w_neg, double* __restrict gu1,
                       double* __restrict gu2, double* __restrict gu3,
                       double* __restrict gh, size_t s_begin, size_t s_end) {
  // A slice's fibers reach U2 and its gradient at ascending but scattered
  // rows, which the hardware prefetcher does not follow: fetch both rows
  // this many fibers ahead.
  constexpr size_t kAhead = 8;
  const bool grads = gu1 != nullptr;
  double ha[W + 1], hb[W + 1], hab[W + 1], ab[W + 1];  // + 1: W may be 0
  PanelRow<W> dh{};
  if (grads) dh = PanelRow<W>::Load(gh + t0);
  const size_t f_end = x.slice_start[s_end];
  const size_t last = r == 0 ? 0 : r - 1;  // a row's last element
  double loss = 0.0;
  for (size_t s = s_begin; s < s_end; ++s) {
    const double* a = u1 + size_t{x.slice_id[s]} * r;
    double* ga_row = grads ? gu1 + size_t{x.slice_id[s]} * r + t0 : nullptr;
    PanelRow<W> ga{};
    if (grads) ga = PanelRow<W>::Load(ga_row);
    for (size_t f = x.slice_start[s]; f < x.slice_start[s + 1]; ++f) {
      if (f + kAhead < f_end) {
        const size_t ahead = size_t{x.fiber_id[f + kAhead]} * r;
        __builtin_prefetch(u2 + ahead);
        __builtin_prefetch(u2 + ahead + last);
        if (grads) {
          __builtin_prefetch(gu2 + ahead, 1);
          __builtin_prefetch(gu2 + ahead + last, 1);
        }
      }
      const double* b = u2 + size_t{x.fiber_id[f]} * r;
      double* gb = grads ? gu2 + size_t{x.fiber_id[f]} * r + t0 : nullptr;
      TCSS_SIMD_LOOP
      for (size_t t = 0; t < W; ++t) {
        const double hat = h[t0 + t] * a[t0 + t];
        ha[t] = hat;
        hb[t] = h[t0 + t] * b[t0 + t];
        hab[t] = hat * b[t0 + t];
        ab[t] = a[t0 + t] * b[t0 + t];
      }
      for (size_t e = x.fiber_start[f]; e < x.fiber_start[f + 1]; ++e) {
        const double* c = u3 + size_t{x.entry[e].k} * r;
        const double v = x.entry[e].value;
        // Ascending-t scalar sum in BOTH builds: a simd reduction would
        // tree-reorder the chain and break scalar/native bit equality.
        double y = 0.0;
        if (W == r) {
          for (size_t t = 0; t < W; ++t) y += hab[t] * c[t];
        } else {
          for (size_t t = 0; t < r; ++t) {
            y += (t - t0 < W ? hab[t - t0] : h[t] * a[t] * b[t]) * c[t];
          }
        }
        loss += (w_pos - w_neg) * y * y - 2.0 * w_pos * v * y +
                w_pos * v * v;
        if (!grads) continue;
        const double g = 2.0 * (w_pos - w_neg) * y - 2.0 * w_pos * v;
        const double* cp = c + t0;
        double* gc = gu3 + size_t{x.entry[e].k} * r + t0;
        PanelRow<W>::Zip(&ga, &dh, [&](auto lanes, size_t t, auto* ga_v,
                                       auto* dh_v) {
          using L = decltype(lanes);
          const typename L::V gv = L::Set1(g);
          const typename L::V cv = L::Load(cp + t);
          *ga_v = L::Add(*ga_v, L::Mul(L::Mul(gv, L::Load(hb + t)), cv));
          L::Store(gb + t, L::Add(L::Load(gb + t),
                                  L::Mul(L::Mul(gv, L::Load(ha + t)), cv)));
          L::Store(gc + t,
                   L::Add(L::Load(gc + t), L::Mul(gv, L::Load(hab + t))));
          *dh_v = L::Add(*dh_v, L::Mul(L::Mul(gv, L::Load(ab + t)), cv));
        });
      }
    }
    if (grads) ga.Store(ga_row);
  }
  if (grads) dh.Store(gh + t0);
  return loss;
}

template <size_t... W>
constexpr auto EntryPanels(std::index_sequence<W...>) {
  return std::array{&CsfEntriesPanel<W>...};
}

double CsfRewrittenEntries(const CsfView& x, const double* u1,
                           const double* u2, const double* u3,
                           const double* h, size_t r, double w_pos,
                           double w_neg, double* gu1, double* gu2,
                           double* gu3, double* gh, size_t s_begin,
                           size_t s_end) {
  // Panels of at most 16 lanes of r keep the gradient lanes within the
  // sixteen ymm registers; the paper's rank 10 is one panel. Each panel
  // walks the shard's entries once, so every lane's chain keeps entry
  // order; the loss is the first walk's, and a value-only call walks once.
  static constexpr auto kPanel = EntryPanels(std::make_index_sequence<17>());
  double loss = 0.0;
  size_t t0 = 0;
  do {
    const double l = kPanel[std::min<size_t>(16, r - t0)](
        x, u1, u2, u3, h, r, t0, w_pos, w_neg, gu1, gu2, gu3, gh, s_begin,
        s_end);
    if (t0 == 0) loss = l;
    t0 += 16;
  } while (t0 < r && gu1 != nullptr);
  return loss;
}

// ---------------------------------------------------------------------------
// Social Hausdorff head, one user per call. Each pass puts independent
// chains side by side — four candidates per lane group in the prediction
// block, four friend POIs in the soft-min sweep, four rank components in
// the scatter. The prediction block, the soft-min sums and the scatter
// keep the scalar reference's order (proptest::ReferenceHausdorffUser);
// the sweep's dL/dp is reassociated (lane partials per friend POI
// residue, one division per pair) and the same in both builds. The AVX2
// bodies apply the scalar mul/add/sub/div lane-wise and otherwise only
// convert floats exactly or select whole lanes; _mm256_max_pd(floor, f)
// returns f whenever f is NaN or not below the floor, exactly as
// std::max(f, floor).
// ---------------------------------------------------------------------------

void HausdorffPredict(const double* hu, const double* u2,
                      const uint32_t* pois, size_t ns, const double* u3,
                      size_t K, size_t r, double cap, double* p,
                      double* dp_dy, uint8_t* gate, double* work) {
  double* __restrict panel = work;       // r x 4: hu[t] * u2[pois[a], t]
  double* __restrict om = work + 4 * r;  // K x 4: 1 - clamped y
  for (size_t a0 = 0; a0 < ns; a0 += 4) {
    const double* rows[4];
    for (size_t l = 0; l < 4; ++l) {
      // Padding lanes of a partial group repeat the last candidate.
      rows[l] = u2 + size_t{pois[std::min(a0 + l, ns - 1)]} * r;
    }
    for (size_t t = 0; t < r; ++t) {
      for (size_t l = 0; l < 4; ++l) panel[t * 4 + l] = hu[t] * rows[l][t];
    }
    double* __restrict dp = dp_dy + a0 * K;  // HausdorffCell(a0, 0, K)
    uint8_t* __restrict gt = gate + a0 * K;
#if defined(TCSS_KERNELS_USE_AVX2)
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d capv = _mm256_set1_pd(cap);
    // Raw predictions, staged in om: four bins per t sweep, so four
    // independent chains hide the add latency.
    size_t k = 0;
    for (; k + 4 <= K; k += 4) {
      const double* c = u3 + k * r;
      __m256d y0 = zero, y1 = zero, y2 = zero, y3 = zero;
      for (size_t t = 0; t < r; ++t) {
        const __m256d v = _mm256_loadu_pd(panel + 4 * t);
        y0 = _mm256_add_pd(y0, _mm256_mul_pd(v, _mm256_broadcast_sd(c + t)));
        y1 = _mm256_add_pd(
            y1, _mm256_mul_pd(v, _mm256_broadcast_sd(c + r + t)));
        y2 = _mm256_add_pd(
            y2, _mm256_mul_pd(v, _mm256_broadcast_sd(c + 2 * r + t)));
        y3 = _mm256_add_pd(
            y3, _mm256_mul_pd(v, _mm256_broadcast_sd(c + 3 * r + t)));
      }
      _mm256_storeu_pd(om + 4 * k, y0);
      _mm256_storeu_pd(om + 4 * k + 4, y1);
      _mm256_storeu_pd(om + 4 * k + 8, y2);
      _mm256_storeu_pd(om + 4 * k + 12, y3);
    }
    for (; k < K; ++k) {
      const double* c = u3 + k * r;
      __m256d y = zero;
      for (size_t t = 0; t < r; ++t) {
        y = _mm256_add_pd(y, _mm256_mul_pd(_mm256_loadu_pd(panel + 4 * t),
                                           _mm256_broadcast_sd(c + t)));
      }
      _mm256_storeu_pd(om + 4 * k, y);
    }
    for (k = 0; k < K; ++k) {
      const __m256d y = _mm256_loadu_pd(om + 4 * k);
      // NaN compares false on both sides: unclamped, gate 1.
      const __m256d lo = _mm256_cmp_pd(y, zero, _CMP_LE_OQ);
      const __m256d hi = _mm256_cmp_pd(y, capv, _CMP_GE_OQ);
      const __m256d yc = _mm256_andnot_pd(lo, _mm256_blendv_pd(y, capv, hi));
      _mm256_storeu_pd(om + 4 * k, _mm256_sub_pd(one, yc));
      const int clamped = _mm256_movemask_pd(_mm256_or_pd(lo, hi));
      for (size_t l = 0; l < 4; ++l) {
        gt[4 * k + l] = static_cast<uint8_t>(((clamped >> l) & 1) ^ 1);
      }
    }
    // dp holds suffix[k + 1] = prod_{k' > k} (1 - y) after this sweep.
    __m256d suffix = one;
    for (size_t k = K; k-- > 0;) {
      _mm256_storeu_pd(dp + 4 * k, suffix);
      suffix = _mm256_mul_pd(suffix, _mm256_loadu_pd(om + 4 * k));
    }
    __m256d prefix = one;
    for (size_t k = 0; k < K; ++k) {
      _mm256_storeu_pd(dp + 4 * k,
                       _mm256_mul_pd(prefix, _mm256_loadu_pd(dp + 4 * k)));
      prefix = _mm256_mul_pd(prefix, _mm256_loadu_pd(om + 4 * k));
    }
    _mm256_storeu_pd(p + a0, _mm256_sub_pd(one, prefix));
#else
    for (size_t k = 0; k < K; ++k) {
      const double* c = u3 + k * r;
      for (size_t l = 0; l < 4; ++l) {
        double y = 0.0;
        for (size_t t = 0; t < r; ++t) y += panel[t * 4 + l] * c[t];
        uint8_t g = 1;
        if (y <= 0.0) {
          y = 0.0;
          g = 0;
        } else if (y >= cap) {
          y = cap;
          g = 0;
        }
        om[4 * k + l] = 1.0 - y;
        gt[4 * k + l] = g;
      }
    }
    for (size_t l = 0; l < 4; ++l) {
      double suffix = 1.0;
      for (size_t k = K; k-- > 0;) {
        dp[4 * k + l] = suffix;
        suffix = suffix * om[4 * k + l];
      }
      double prefix = 1.0;
      for (size_t k = 0; k < K; ++k) {
        dp[4 * k + l] = prefix * dp[4 * k + l];
        prefix = prefix * om[4 * k + l];
      }
      p[a0 + l] = 1.0 - prefix;
    }
#endif
  }
}

/// HausdorffSoftmin's weights of one strip: w[l] = coef[b] * (s_pow *
/// inv_ns) for lane l's friend POI b = b0 + l, from its complete sum s[b];
/// 0 for the lanes past the last friend POI.
inline void SoftminStripWeights(const double* s, const double* coef,
                                size_t b0, size_t lanes, double alpha,
                                double inv_ns, double* w) {
  for (size_t l = 0; l < 4; ++l) {
    if (l >= lanes) {
      w[l] = 0.0;
      continue;
    }
    const double s_alpha = s[b0 + l] * inv_ns;
    const double s_pow = alpha == -1.0
                             ? 1.0 / (s_alpha * s_alpha)
                             : std::pow(s_alpha, 1.0 / alpha - 1.0);
    w[l] = coef[b0 + l] * (s_pow * inv_ns);
  }
}

#if defined(TCSS_KERNELS_USE_AVX2)
/// One strip of HausdorffSoftmin at alpha = -1 on AVX2: the four friend
/// POIs b0.. as lanes, one division per pair. A masked load puts the lanes
/// past nn at distance 0; their sums are not stored and their weights are
/// 0. The floor lanes of q are masked to +0.0, as the scalar select.
template <bool kGrads>
inline void SoftminStripAvx2(const double* p, const float* dist, size_t ns,
                             size_t nn, size_t b0, size_t lanes,
                             double d_max, double floor, double* s,
                             double* q) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d fl = _mm256_set1_pd(floor);
  const __m256d dmax = _mm256_set1_pd(d_max);
  const __m128i tail =
      _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(lanes)),
                      _mm_setr_epi32(0, 1, 2, 3));
  const float* col = dist + b0;
  const bool ahead = b0 + 16 < nn;
  __m256d acc = _mm256_setzero_pd();
  for (size_t a = 0; a < ns; ++a, col += nn) {
    if (ahead) __builtin_prefetch(col + 16);
    const __m256d d = _mm256_cvtps_pd(lanes == 4 ? _mm_loadu_ps(col)
                                                 : _mm_maskload_ps(col, tail));
    const __m256d q0 = _mm256_set1_pd((1.0 - p[a]) * d_max);
    const __m256d f = _mm256_max_pd(
        fl, _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(p[a]), d), q0));
    const __m256d v = _mm256_div_pd(one, f);
    acc = _mm256_add_pd(acc, v);
    if constexpr (kGrads) {
      const __m256d keep = _mm256_cmp_pd(f, fl, _CMP_NLE_UQ);
      _mm256_storeu_pd(
          q + 4 * a,
          _mm256_and_pd(keep, _mm256_mul_pd(_mm256_mul_pd(v, v),
                                            _mm256_sub_pd(d, dmax))));
    }
  }
  double sum[4];
  _mm256_storeu_pd(sum, acc);
  for (size_t l = 0; l < lanes; ++l) s[b0 + l] = sum[l];
}
#endif

void HausdorffSoftmin(const double* p, const float* dist, size_t ns,
                      size_t nn, double d_max, double floor, double alpha,
                      const double* coef, double inv_ns, double* s,
                      double* dl_dp, double* work) {
  const bool harmonic = alpha == -1.0;
  const bool grads = dl_dp != nullptr;
#if defined(TCSS_KERNELS_USE_AVX2)
  const bool strips = grads || harmonic;
#else
  const bool strips = grads;
#endif
  if (!strips) {
    // The value pass without the AVX2 strips walks whole rows: each b's
    // sum still takes its terms in ascending a, the strips' chain.
    std::fill(s, s + nn, 0.0);
    for (size_t a = 0; a < ns; ++a) {
      const float* row = dist + a * nn;
      const double q0 = (1.0 - p[a]) * d_max;
      for (size_t b = 0; b < nn; ++b) {
        const double f = std::max(p[a] * row[b] + q0, floor);
        s[b] += harmonic ? 1.0 / f : std::pow(f, alpha);
      }
    }
    return;
  }
  double* __restrict q = work;              // ns x 4: the strip's q
  double* __restrict part = work + 4 * ns;  // ns x 4: lane partials
  if (grads) std::fill(part, part + 4 * ns, 0.0);
  // The block comes from L3 at best (the gowalla preset's distance cache
  // holds 13 MB), and a strip read down the rows is a stride the hardware
  // prefetcher does not follow (DESIGN.md §12.1): ask for the lines of
  // every row's first 16 floats now, and in each strip for the line 16
  // floats (four strips) ahead in the row.
  const size_t last = std::min<size_t>(15, nn - 1);
  for (size_t a = 0; nn > 0 && a < ns; ++a) {
    __builtin_prefetch(dist + a * nn);
    __builtin_prefetch(dist + a * nn + last);
  }
  for (size_t b0 = 0; b0 < nn; b0 += 4) {
    const size_t lanes = std::min<size_t>(4, nn - b0);
    const bool ahead = b0 + 16 < nn;
#if defined(TCSS_KERNELS_USE_AVX2)
    if (harmonic) {
      if (grads) {
        SoftminStripAvx2<true>(p, dist, ns, nn, b0, lanes, d_max, floor, s,
                               q);
      } else {
        SoftminStripAvx2<false>(p, dist, ns, nn, b0, lanes, d_max, floor, s,
                                nullptr);
      }
    } else
#endif
    {
      double acc[4] = {0.0, 0.0, 0.0, 0.0};
      for (size_t a = 0; a < ns; ++a) {
        const float* row = dist + a * nn + b0;
        if (ahead) __builtin_prefetch(row + 16);
        const double q0 = (1.0 - p[a]) * d_max;
        for (size_t l = 0; l < 4; ++l) {
          if (l >= lanes) {
            q[4 * a + l] = 0.0;
            continue;
          }
          const double d = row[l];
          const double f = std::max(p[a] * d + q0, floor);
          const double v = harmonic ? 1.0 / f : std::pow(f, alpha);
          acc[l] += v;
          const double f_pow = harmonic ? v * v : std::pow(f, alpha - 1.0);
          q[4 * a + l] = f <= floor ? 0.0 : f_pow * (d - d_max);
        }
      }
      for (size_t l = 0; l < lanes; ++l) s[b0 + l] = acc[l];
    }
    if (!grads) continue;
    double w[4];
    SoftminStripWeights(s, coef, b0, lanes, alpha, inv_ns, w);
#if defined(TCSS_KERNELS_USE_AVX2)
    const __m256d wv = _mm256_loadu_pd(w);
    for (size_t a = 0; a < ns; ++a) {
      _mm256_storeu_pd(
          part + 4 * a,
          _mm256_add_pd(_mm256_loadu_pd(part + 4 * a),
                        _mm256_mul_pd(_mm256_loadu_pd(q + 4 * a), wv)));
    }
#else
    for (size_t a = 0; a < ns; ++a) {
      for (size_t l = 0; l < 4; ++l) part[4 * a + l] += q[4 * a + l] * w[l];
    }
#endif
  }
  if (!grads) return;
  for (size_t a = 0; a < ns; ++a) {
    const double* l = part + 4 * a;
    dl_dp[a] += (l[0] + l[1]) + (l[2] + l[3]);
  }
}

/// HausdorffScatter on a panel of W lanes of rows with stride r (every
/// pointer already offset to the panel): each cell adds
/// AccumulateEntryGrad's four updates lane-wise, term for term, and the
/// user's U1 and h gradient lanes stay in registers across all cells.
template <size_t W>
void HausdorffScatterPanel(const double* a, const double* u2,
                           const double* u3, const double* h, size_t r,
                           const uint32_t* pois, size_t ns, size_t K,
                           const double* dl_dp, const double* dp_dy,
                           const uint8_t* gate, double grad_scale,
                           double* gu1_row, double* gu2, double* gu3,
                           double* gh) {
  PanelRow<W> ga = PanelRow<W>::Load(gu1_row);
  PanelRow<W> dh = PanelRow<W>::Load(gh);
  for (size_t s = 0; s < ns; ++s) {
    if (dl_dp[s] == 0.0) continue;
    const double scaled = grad_scale * dl_dp[s];
    const double* b = u2 + size_t{pois[s]} * r;
    double* gb = gu2 + size_t{pois[s]} * r;
    for (size_t k = 0; k < K; ++k) {
      const size_t cell = HausdorffCell(s, k, K);
      if (!gate[cell]) continue;
      const double g = scaled * dp_dy[cell];
      if (g == 0.0) continue;
      const double* c = u3 + k * r;
      double* gc = gu3 + k * r;
      PanelRow<W>::Zip(&ga, &dh, [&](auto lanes, size_t t, auto* ga_v,
                                     auto* dh_v) {
        using L = decltype(lanes);
        const typename L::V gv = L::Set1(g);
        const typename L::V av = L::Load(a + t);
        const typename L::V bv = L::Load(b + t);
        const typename L::V cv = L::Load(c + t);
        const typename L::V gh_t = L::Mul(gv, L::Load(h + t));
        const typename L::V gha = L::Mul(gh_t, av);
        *ga_v = L::Add(*ga_v, L::Mul(L::Mul(gh_t, bv), cv));
        L::Store(gb + t, L::Add(L::Load(gb + t), L::Mul(gha, cv)));
        L::Store(gc + t, L::Add(L::Load(gc + t), L::Mul(gha, bv)));
        *dh_v = L::Add(*dh_v, L::Mul(L::Mul(L::Mul(gv, av), bv), cv));
      });
    }
  }
  ga.Store(gu1_row);
  dh.Store(gh);
}

template <size_t... W>
constexpr auto ScatterPanels(std::index_sequence<W...>) {
  return std::array{&HausdorffScatterPanel<W>...};
}

void HausdorffScatter(const double* u1_row, const double* u2,
                      const double* u3, const double* h, size_t r,
                      const uint32_t* pois, size_t ns, size_t K,
                      const double* dl_dp, const double* dp_dy,
                      const uint8_t* gate, double grad_scale,
                      double* gu1_row, double* gu2, double* gu3, double* gh) {
  // Panels of at most 16 lanes keep the accumulators within the sixteen
  // ymm registers; the paper's rank 10 is one panel. Lanes are independent
  // chains, so walking the cells once per panel keeps every chain's order.
  static constexpr auto kPanel = ScatterPanels(std::make_index_sequence<17>());
  for (size_t t0 = 0; t0 < r; t0 += 16) {
    kPanel[std::min<size_t>(16, r - t0)](
        u1_row + t0, u2 + t0, u3 + t0, h + t0, r, pois, ns, K, dl_dp, dp_dy,
        gate, grad_scale, gu1_row + t0, gu2 + t0, gu3 + t0, gh + t0);
  }
}

// ---------------------------------------------------------------------------
// Chord-form distances of the Hausdorff head: 2R·asin(‖u − v‖ / 2) over
// unit vectors. The arcsine is fdlibm's rational for 0 <= x < 0.5, with
// one fixed evaluation order. The AVX2 body runs four friend POIs side by
// side and applies the scalar sub, mul, add, sqrt and div lane-wise; its
// float conversions and compares are the scalar casts and == lane-wise.
// So both tables write the same floats and list the same pairs.
// ---------------------------------------------------------------------------

/*
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunPro, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 */
// asin(x) = x + x·(t·P(t) / Q(t)), t = x², for |x| < 0.5: the rational of
// fdlibm's e_asin.c, which bounds its error below one ulp. fdlibm returns
// x itself for |x| < 2^-27, where x + x·w rounds to x anyway.
constexpr double kAsinP0 = 1.66666666666666657415e-01;
constexpr double kAsinP1 = -3.25565818622400915405e-01;
constexpr double kAsinP2 = 2.01212532134862925881e-01;
constexpr double kAsinP3 = -4.00555345006794114027e-02;
constexpr double kAsinP4 = 7.91534994289814532176e-04;
constexpr double kAsinP5 = 3.47933107596021167570e-05;
constexpr double kAsinQ1 = -2.40339491173441421878e+00;
constexpr double kAsinQ2 = 2.02094576023350569471e+00;
constexpr double kAsinQ3 = -6.88283971605453293030e-01;
constexpr double kAsinQ4 = 7.70381505559019352791e-02;

/// One pair of hausdorff_distances: stores float(d) in *df and returns
/// whether the pair may keep it.
inline bool ChordDistance(double ux, double uy, double uz, double vx,
                          double vy, double vz, double two_r, double m_abs,
                          double m_rel, float* df) {
  const double dx = ux - vx;
  const double dy = uy - vy;
  const double dz = uz - vz;
  const double s = 0.5 * std::sqrt(dx * dx + dy * dy + dz * dz);
  const double t = s * s;
  const double p =
      t * (kAsinP0 +
           t * (kAsinP1 +
                t * (kAsinP2 + t * (kAsinP3 + t * (kAsinP4 + t * kAsinP5)))));
  const double q =
      1.0 + t * (kAsinQ1 + t * (kAsinQ2 + t * (kAsinQ3 + t * kAsinQ4)));
  const double d = two_r * (s + s * (p / q));
  const double m = m_abs + m_rel * d;
  *df = static_cast<float>(d);
  return s < 0.5 &&
         static_cast<float>(d - m) == static_cast<float>(d + m);
}

#if defined(TCSS_KERNELS_USE_AVX2)
/// ChordDistance on four lanes: returns float(d) and sets *keep to the
/// mask of lanes that may keep it.
inline __m128 ChordLanes(__m256d ux, __m256d uy, __m256d uz, __m256d vx,
                         __m256d vy, __m256d vz, __m256d two_r,
                         __m256d m_abs, __m256d m_rel, int* keep) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d dx = _mm256_sub_pd(ux, vx);
  const __m256d dy = _mm256_sub_pd(uy, vy);
  const __m256d dz = _mm256_sub_pd(uz, vz);
  const __m256d s = _mm256_mul_pd(
      half, _mm256_sqrt_pd(_mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz))));
  const __m256d t = _mm256_mul_pd(s, s);
  auto horner = [&t](__m256d acc, double c) {
    return _mm256_add_pd(_mm256_set1_pd(c), _mm256_mul_pd(t, acc));
  };
  __m256d p = horner(_mm256_set1_pd(kAsinP5), kAsinP4);
  p = horner(p, kAsinP3);
  p = horner(p, kAsinP2);
  p = horner(p, kAsinP1);
  p = _mm256_mul_pd(t, horner(p, kAsinP0));
  __m256d q = horner(_mm256_set1_pd(kAsinQ4), kAsinQ3);
  q = horner(q, kAsinQ2);
  q = horner(q, kAsinQ1);
  q = horner(q, 1.0);
  const __m256d d = _mm256_mul_pd(
      two_r, _mm256_add_pd(s, _mm256_mul_pd(s, _mm256_div_pd(p, q))));
  const __m256d m = _mm256_add_pd(m_abs, _mm256_mul_pd(m_rel, d));
  const __m128 lo = _mm256_cvtpd_ps(_mm256_sub_pd(d, m));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_add_pd(d, m));
  *keep = _mm_movemask_ps(_mm_cmpeq_ps(lo, hi)) &
          _mm256_movemask_pd(_mm256_cmp_pd(s, half, _CMP_LT_OQ));
  return _mm256_cvtpd_ps(d);
}
#endif

size_t HausdorffDistances(const double* s, size_t ns, const double* n,
                          size_t nn, const uint32_t* first, double two_r,
                          double m_abs, double m_rel, float* dist,
                          uint32_t* exact) {
  const double* nx = n;
  const double* ny = n + nn;
  const double* nz = n + 2 * nn;
  size_t count = 0;
  for (size_t a = 0; a < ns; ++a) {
    float* row = dist + a * nn;
    const uint32_t base = static_cast<uint32_t>(a * nn);
    size_t b = first[a];
#if defined(TCSS_KERNELS_USE_AVX2)
    const __m256d ux = _mm256_set1_pd(s[a]);
    const __m256d uy = _mm256_set1_pd(s[ns + a]);
    const __m256d uz = _mm256_set1_pd(s[2 * ns + a]);
    const __m256d tr = _mm256_set1_pd(two_r);
    const __m256d ma = _mm256_set1_pd(m_abs);
    const __m256d mr = _mm256_set1_pd(m_rel);
    for (; b < nn; b += 4) {
      const size_t lanes = std::min<size_t>(4, nn - b);
      int keep = 0;
      __m128 df;
      if (lanes == 4) {
        df = ChordLanes(ux, uy, uz, _mm256_loadu_pd(nx + b),
                        _mm256_loadu_pd(ny + b), _mm256_loadu_pd(nz + b), tr,
                        ma, mr, &keep);
        if (keep == 0xF) {
          _mm_storeu_ps(row + b, df);
          continue;
        }
      } else {
        const __m256i tail = TailMask(lanes);
        df = ChordLanes(ux, uy, uz, _mm256_maskload_pd(nx + b, tail),
                        _mm256_maskload_pd(ny + b, tail),
                        _mm256_maskload_pd(nz + b, tail), tr, ma, mr, &keep);
      }
      float f[4];
      _mm_storeu_ps(f, df);
      for (size_t l = 0; l < lanes; ++l) {
        if ((keep >> l) & 1) {
          row[b + l] = f[l];
        } else {
          exact[count++] = base + static_cast<uint32_t>(b + l);
        }
      }
    }
#endif
    for (; b < nn; ++b) {
      float df;
      if (ChordDistance(s[a], s[ns + a], s[2 * ns + a], nx[b], ny[b], nz[b],
                        two_r, m_abs, m_rel, &df)) {
        row[b] = df;
      } else {
        exact[count++] = base + static_cast<uint32_t>(b);
      }
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Exact top-k scan: one f32 chain per lane, a multiply then an add per t in
// ascending order. The AVX2 body applies those two roundings lane-wise and
// runs eight lane groups at once so their add latencies overlap; each
// lane's chain is unchanged.
// ---------------------------------------------------------------------------

void PanelScores(const float* panel, size_t groups, const float* q, size_t r,
                 float* out) {
  constexpr size_t L = kPanelLanes;
  size_t g = 0;
#if defined(TCSS_KERNELS_USE_AVX2)
  static_assert(L == 8, "one ymm register per lane group");
  constexpr size_t G = 8;  // lane groups in flight
  for (; g + G <= groups; g += G) {
    const float* p = panel + g * r * L;
    __m256 s[G];
    for (size_t i = 0; i < G; ++i) s[i] = _mm256_setzero_ps();
    for (size_t t = 0; t < r; ++t) {
      const __m256 qt = _mm256_set1_ps(q[t]);
      for (size_t i = 0; i < G; ++i) {
        s[i] = _mm256_add_ps(
            s[i], _mm256_mul_ps(_mm256_loadu_ps(p + (i * r + t) * L), qt));
      }
    }
    for (size_t i = 0; i < G; ++i) _mm256_storeu_ps(out + (g + i) * L, s[i]);
  }
#endif
  for (; g < groups; ++g) {
    const float* p = panel + g * r * L;
    float s[L] = {};
    for (size_t t = 0; t < r; ++t) {
      TCSS_SIMD_LOOP
      for (size_t l = 0; l < L; ++l) s[l] = s[l] + p[t * L + l] * q[t];
    }
    for (size_t l = 0; l < L; ++l) out[g * L + l] = s[l];
  }
}

}  // namespace

const KernelTable kTable = {
    TCSS_KERNEL_NAME,     GemmRows,
    GramUpper,            CsfRewrittenEntries,
    GramBlockApply,       HausdorffPredict,
    HausdorffSoftmin,     HausdorffScatter,
    HausdorffDistances,   PanelScores,
};

}  // namespace TCSS_KERNEL_NS
}  // namespace kern
}  // namespace tcss

#undef TCSS_SIMD_LOOP
