#include "core/whole_data_loss.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/kernel_table.h"
#include "linalg/vector_ops.h"
#include "obs/metrics.h"

namespace tcss {

namespace {

/// Derives an independent RNG stream for (seed, call, shard).
/// Counter-based: no mutable generator state crosses calls, so the draws
/// of call n are a pure function of these three.
uint64_t MixStream(uint64_t seed, uint64_t call, uint64_t shard) {
  return Mix64(seed + 0x9e3779b97f4a7c15ULL * (call + 1) +
               0xbf58476d1ce4e5b9ULL * (shard + 1));
}

/// Gauge of the L2 head's kept shard buffers (bytes).
obs::Gauge* L2ScratchGauge() {
  static obs::Gauge* const g =
      obs::MetricRegistry::Global()->GetGauge("train.l2.scratch_bytes");
  return g;
}

/// Observed-entry part of Eq 15 over the CSF tree of `x`:
///   sum_{(i,j,k) in nnz} (w+ - w-) y^2 - 2 w+ X y + w+ X^2
/// with y = sum_t h_t u1[i,t] u2[j,t] u3[k,t], accumulating its gradients
/// into `grads` when non-null. Shards hold >= ~1024 entries, at most
/// kMaxReduceShards of them, cut on slice boundaries: a pure function of
/// (nnz, num_slices). dL/dU1 rows are slice rows, disjoint across shards,
/// so every shard writes grads->u1 in place; only U2, U3 and h go through
/// the shard buffers of `scratch`, whose merge adds the U2 rows of the
/// shard's fibers only.
double RewrittenEntryLoss(const SparseTensor& x, const FactorModel& model,
                          double w_pos, double w_neg, FactorGrads* grads,
                          ShardScratch<ShardRowGrads>* scratch) {
  const size_t r = model.rank();
  const CsfView v = x.csf();
  const KernelTable& kern = ActiveKernels();
  const size_t target =
      std::clamp<size_t>(x.nnz() / 1024, 1, kMaxReduceShards);
  const size_t grain =
      std::max<size_t>(1, (v.num_slices + target - 1) / target);
  scratch->Reshape({model.u2.rows(), model.u3.rows(), r, 0});
  const double loss = ParallelReduce(
      v.num_slices, grain, grads, scratch,
      [&] { return ShardRowGrads(model, /*with_u1=*/false); },
      [&](size_t begin, size_t end, size_t, auto* g) {
        if constexpr (std::is_same_v<decltype(g), ShardRowGrads*>) {
          if (g != nullptr) {
            for (size_t f = v.slice_start[begin]; f < v.slice_start[end];
                 ++f) {
              g->MarkU2(v.fiber_id[f]);
            }
          }
        }
        return kern.csf_rewritten_entries(
            v, model.u1.data(), model.u2.data(), model.u3.data(),
            model.h.data(), r, w_pos, w_neg,
            g != nullptr ? grads->u1.data() : nullptr,
            g != nullptr ? g->u2.data() : nullptr,
            g != nullptr ? g->u3.data() : nullptr,
            g != nullptr ? g->h.data() : nullptr, begin, end);
      },
      [](ShardRowGrads* part, FactorGrads* g) { part->MergeInto(g); });
  if (grads != nullptr) {
    L2ScratchGauge()->Set(static_cast<double>(
        scratch->size() * (model.u2.size() + model.u3.size() + r) *
        sizeof(double)));
  }
  return loss;
}

}  // namespace

void AccumulateEntryGrad(const FactorModel& model, uint32_t i, uint32_t j,
                         uint32_t k, double g, FactorGrads* grads) {
  const size_t r = model.rank();
  const double* a = model.u1.row(i);
  const double* b = model.u2.row(j);
  const double* c = model.u3.row(k);
  double* ga = grads->u1.row(i);
  double* gb = grads->u2.row(j);
  double* gc = grads->u3.row(k);
  for (size_t t = 0; t < r; ++t) {
    const double h = model.h[t];
    ga[t] += g * h * b[t] * c[t];
    gb[t] += g * h * a[t] * c[t];
    gc[t] += g * h * a[t] * b[t];
    grads->h[t] += g * a[t] * b[t] * c[t];
  }
}

std::unique_ptr<WholeDataLoss> WholeDataLoss::Create(
    const TcssConfig& config) {
  switch (config.loss_mode) {
    case LossMode::kRewritten:
      return std::make_unique<RewrittenLoss>(config.w_pos, config.w_neg);
    case LossMode::kNaive:
      return std::make_unique<NaiveLoss>(config.w_pos, config.w_neg);
    case LossMode::kNegativeSampling:
      return std::make_unique<NegativeSamplingLoss>(config.w_pos,
                                                    config.w_neg,
                                                    config.seed ^ 0x5eed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// RewrittenLoss (Eq 15)
// ---------------------------------------------------------------------------

double RewrittenLoss::ComputeWithGrads(const FactorModel& model,
                                       const SparseTensor& train,
                                       FactorGrads* grads) {
  const size_t r = model.rank();

  // --- positive part: sum over observed entries -------------------------
  // (w+ - w-) yhat^2 - 2 w+ X yhat  [+ w+ X^2 constant for exactness]
  double loss =
      RewrittenEntryLoss(train, model, w_pos_, w_neg_, grads, &scratch_);

  // --- whole-data part: w- * sum_{all cells} yhat^2 ---------------------
  // T = sum_{r1,r2} h_r1 h_r2 G1_{r1r2} G2_{r1r2} G3_{r1r2}
  // with Gn = Un^T Un (r x r Gram matrices): O((I+J+K) r^2).
  const Matrix g1 = Gram(model.u1);
  const Matrix g2 = Gram(model.u2);
  const Matrix g3 = Gram(model.u3);
  double t_val = 0.0;
  // M_{r1r2} = h_r1 h_r2 * G2 * G3 (used for the U1 gradient), and the
  // analogous products for the other factors.
  Matrix m1(r, r), m2(r, r), m3(r, r);
  std::vector<double> gh(r, 0.0);
  for (size_t r1 = 0; r1 < r; ++r1) {
    for (size_t r2 = 0; r2 < r; ++r2) {
      const double hh = model.h[r1] * model.h[r2];
      t_val += hh * g1(r1, r2) * g2(r1, r2) * g3(r1, r2);
      m1(r1, r2) = hh * g2(r1, r2) * g3(r1, r2);
      m2(r1, r2) = hh * g1(r1, r2) * g3(r1, r2);
      m3(r1, r2) = hh * g1(r1, r2) * g2(r1, r2);
      // dT/dh_r1 = 2 h_r2 G1 G2 G3 summed over r2 (symmetry).
      gh[r1] += 2.0 * model.h[r2] * g1(r1, r2) * g2(r1, r2) * g3(r1, r2);
    }
  }
  loss += w_neg_ * t_val;

  if (grads != nullptr) {
    // dT/dU1 = 2 U1 M1 (M1 symmetric), etc.
    Matrix d1 = MatMul(model.u1, m1);
    Matrix d2 = MatMul(model.u2, m2);
    Matrix d3 = MatMul(model.u3, m3);
    grads->u1.Add(d1, 2.0 * w_neg_);
    grads->u2.Add(d2, 2.0 * w_neg_);
    grads->u3.Add(d3, 2.0 * w_neg_);
    for (size_t t = 0; t < r; ++t) grads->h[t] += w_neg_ * gh[t];
  }
  return loss;
}

// ---------------------------------------------------------------------------
// NaiveLoss (Eq 14)
// ---------------------------------------------------------------------------

double NaiveLoss::ComputeWithGrads(const FactorModel& model,
                                   const SparseTensor& train,
                                   FactorGrads* grads) {
  const size_t I = train.dim_i();
  const size_t J = train.dim_j();
  const size_t K = train.dim_k();
  // Walk all cells in (i,j,k) order in lockstep with the sorted nonzeros,
  // so membership tests are O(1) amortized.
  const auto& entries = train.entries();
  size_t cursor = 0;
  double loss = 0.0;
  for (uint32_t i = 0; i < I; ++i) {
    for (uint32_t j = 0; j < J; ++j) {
      for (uint32_t k = 0; k < K; ++k) {
        double x = 0.0;
        if (cursor < entries.size() && entries[cursor].i == i &&
            entries[cursor].j == j && entries[cursor].k == k) {
          x = entries[cursor].value;
          ++cursor;
        }
        const double w = (x != 0.0) ? w_pos_ : w_neg_;
        const double y = model.Predict(i, j, k);
        const double d = y - x;
        loss += w * d * d;
        if (grads != nullptr) {
          AccumulateEntryGrad(model, i, j, k, 2.0 * w * d, grads);
        }
      }
    }
  }
  TCSS_CHECK(cursor == entries.size());
  return loss;
}

// ---------------------------------------------------------------------------
// NegativeSamplingLoss
// ---------------------------------------------------------------------------

double NegativeSamplingLoss::ComputeWithGrads(const FactorModel& model,
                                              const SparseTensor& train,
                                              FactorGrads* grads) {
  const std::vector<TensorEntry>& entries = train.entries();
  const ShardScratch<FactorGrads>::Shape shape = {
      model.u1.rows(), model.u2.rows(), model.u3.rows(), model.rank()};
  positives_.Reshape(shape);
  negatives_.Reshape(shape);
  auto make_buffer = [&] { return ShardGrads(model, /*with_u1=*/true); };
  double loss = ParallelReduce(
      entries.size(), ReduceGrain(entries.size(), 1024), grads, &positives_,
      make_buffer,
      [&](size_t begin, size_t end, size_t, FactorGrads* g) {
        double local = 0.0;
        for (size_t n = begin; n < end; ++n) {
          const TensorEntry& e = entries[n];
          const double y = model.Predict(e.i, e.j, e.k);
          const double d = y - e.value;
          local += w_pos_ * d * d;
          if (g != nullptr) {
            AccumulateEntryGrad(model, e.i, e.j, e.k, 2.0 * w_pos_ * d, g);
          }
        }
        return local;
      },
      [](FactorGrads* part, FactorGrads* g) { g->AddAndZero(part); });
  // One sampled negative per positive (He et al. ratio 1:1), uniformly
  // over the unlabeled cells via rejection. Each shard draws its quota
  // from its own counter-derived stream, so the sample set is a pure
  // function of (seed, call counter) — same at any thread count, and
  // reproducible after a checkpoint restore of the counter. Shard s keeps
  // its draws at cells_[begin, begin + drawn_[s]).
  const size_t I = train.dim_i();
  const size_t J = train.dim_j();
  const size_t K = train.dim_k();
  const size_t want = train.nnz();
  const size_t grain = ReduceGrain(want, 256);
  const uint64_t call = calls_++;
  cells_.resize(want);
  drawn_.assign(ParallelForShards(want, grain), 0);
  ParallelFor(want, grain, [&](size_t begin, size_t end, size_t s) {
    Rng rng(MixStream(seed_, call, s));
    const size_t quota = end - begin;
    size_t guard = 0;
    size_t drawn = 0;
    while (drawn < quota && guard < quota * 50 + 100) {
      ++guard;
      const uint32_t i = static_cast<uint32_t>(rng.UniformInt(I));
      const uint32_t j = static_cast<uint32_t>(rng.UniformInt(J));
      const uint32_t k = static_cast<uint32_t>(rng.UniformInt(K));
      if (train.Contains(i, j, k)) continue;
      cells_[begin + drawn++] = {i, j, k};
    }
    drawn_[s] = drawn;
  });
  size_t drawn = 0;
  for (size_t d : drawn_) drawn += d;
  // Under-draw (rejection guard exhausted on a near-dense tensor): the
  // drawn negatives are still uniform over unlabeled cells, so rescale by
  // want/drawn to keep the w- term an unbiased estimate of the intended
  // `want`-sample sum instead of silently shrinking it.
  const double scale =
      drawn < want && drawn > 0
          ? static_cast<double>(want) / static_cast<double>(drawn)
          : 1.0;
  // Negatives go through shard buffers even as one shard, so that every
  // shard's gradients reach `grads` scaled the same way.
  const double neg = ParallelReduce(
      want, grain, grads, &negatives_, make_buffer,
      [&](size_t begin, size_t, size_t s, FactorGrads* g) {
        double local = 0.0;
        for (size_t n = begin; n < begin + drawn_[s]; ++n) {
          const Cell& c = cells_[n];
          const double y = model.Predict(c.i, c.j, c.k);
          local += w_neg_ * y * y;
          if (g != nullptr) {
            AccumulateEntryGrad(model, c.i, c.j, c.k, 2.0 * w_neg_ * y, g);
          }
        }
        return local;
      },
      [scale](FactorGrads* part, FactorGrads* g) {
        g->AddAndZero(part, scale);
      },
      /*buffer_one_shard=*/true);
  if (grads != nullptr) {
    L2ScratchGauge()->Set(static_cast<double>(
        (positives_.size() + negatives_.size()) * grads->bytes()));
  }
  if (drawn < want) {
    TCSS_LOG(Warning) << "negative sampling under-drew " << drawn << "/"
                      << want << " negatives (tensor too dense for the "
                      << "rejection guard); rescaling the w- term by "
                      << scale;
  }
  return loss + scale * neg;
}

}  // namespace tcss
