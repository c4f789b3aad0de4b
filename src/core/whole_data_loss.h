#ifndef TCSS_CORE_WHOLE_DATA_LOSS_H_
#define TCSS_CORE_WHOLE_DATA_LOSS_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/factor_model.h"
#include "core/tcss_config.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Least-squares head L2 over the whole data (Eq 14), with three
/// interchangeable implementations so Table IV's cost comparison is a
/// like-for-like measurement and tests can assert value equivalence:
///
///  * RewrittenLoss      - Eq 15, O((I+J+K) r^2 + nnz r)
///  * NaiveLoss          - Eq 14 literally, O(I*J*K*r)
///  * NegativeSampling   - nnz uniformly sampled negatives per call
///
/// All three include the constant term  w+ * sum X^2  so that Rewritten
/// and Naive return *identical* values (Remark 1 of the paper).
class WholeDataLoss {
 public:
  virtual ~WholeDataLoss() = default;
  virtual const char* name() const = 0;

  /// Computes L2 and *accumulates* dL2/dparams into `grads`; a null
  /// `grads` means value only (no gradient work).
  virtual double ComputeWithGrads(const FactorModel& model,
                                  const SparseTensor& train,
                                  FactorGrads* grads) = 0;

  /// Loss value only: ComputeWithGrads without gradients.
  double Compute(const FactorModel& model, const SparseTensor& train) {
    return ComputeWithGrads(model, train, nullptr);
  }

  /// Opaque sampler state for checkpointing. Deterministic losses return
  /// 0; NegativeSamplingLoss returns its call counter, from which every
  /// random stream is re-derivable (seed + counter), so restoring it makes
  /// kill-and-resume bit-identical.
  virtual uint64_t sampler_state() const { return 0; }
  virtual void set_sampler_state(uint64_t state) { (void)state; }

  /// Factory for the mode selected in the config.
  static std::unique_ptr<WholeDataLoss> Create(const TcssConfig& config);
};

/// Eq 15. Its entry loop walks the CSF tree of `train` (train.csf()),
/// which must be finalized. The loop's shard buffers are made on the first
/// call with gradients and kept, at most min(shards, threads) of them; the
/// gauge train.l2.scratch_bytes reports the bytes of their gradients.
class RewrittenLoss : public WholeDataLoss {
 public:
  RewrittenLoss(double w_pos, double w_neg) : w_pos_(w_pos), w_neg_(w_neg) {}
  const char* name() const override { return "rewritten"; }
  double ComputeWithGrads(const FactorModel& model, const SparseTensor& train,
                          FactorGrads* grads) override;

  /// The entry loop's kept shard buffers (tests).
  const ShardScratch<ShardRowGrads>& shard_scratch() const {
    return scratch_;
  }

 private:
  double w_pos_, w_neg_;
  ShardScratch<ShardRowGrads> scratch_;
};

/// Eq 14, literal triple loop (kept for Table IV and equivalence tests).
class NaiveLoss : public WholeDataLoss {
 public:
  NaiveLoss(double w_pos, double w_neg) : w_pos_(w_pos), w_neg_(w_neg) {}
  const char* name() const override { return "naive"; }
  double ComputeWithGrads(const FactorModel& model, const SparseTensor& train,
                          FactorGrads* grads) override;

 private:
  double w_pos_, w_neg_;
};

/// He et al.-style sampling: every positive plus an equal number of
/// uniformly sampled unlabeled entries, re-drawn on every call.
///
/// Randomness is counter-based: call n draws from streams derived purely
/// from (seed, n, shard), never from mutable generator state. That makes
/// the draws (a) identical at any thread count — each shard owns its own
/// stream — and (b) checkpointable as a single integer (the call counter,
/// exposed via sampler_state()). The shard buffers of the positives and
/// of the negatives are kept across calls like RewrittenLoss's and counted
/// in the same gauge, train.l2.scratch_bytes.
class NegativeSamplingLoss : public WholeDataLoss {
 public:
  NegativeSamplingLoss(double w_pos, double w_neg, uint64_t seed)
      : w_pos_(w_pos), w_neg_(w_neg), seed_(seed) {}
  const char* name() const override { return "negative-sampling"; }
  double ComputeWithGrads(const FactorModel& model, const SparseTensor& train,
                          FactorGrads* grads) override;

  uint64_t sampler_state() const override { return calls_; }
  void set_sampler_state(uint64_t state) override { calls_ = state; }

 private:
  struct Cell {
    uint32_t i, j, k;
  };

  double w_pos_, w_neg_;
  uint64_t seed_;
  uint64_t calls_ = 0;  ///< number of completed sampling passes
  std::vector<Cell> cells_;    ///< the call's negatives, shard by shard
  std::vector<size_t> drawn_;  ///< negatives each shard drew
  ShardScratch<FactorGrads> positives_, negatives_;
};

/// Accumulates g = dL/dXhat(i,j,k) into factor gradients (shared helper).
void AccumulateEntryGrad(const FactorModel& model, uint32_t i, uint32_t j,
                         uint32_t k, double g, FactorGrads* grads);

}  // namespace tcss

#endif  // TCSS_CORE_WHOLE_DATA_LOSS_H_
