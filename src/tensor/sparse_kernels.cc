#include "tensor/sparse_kernels.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/kernel_table.h"

namespace tcss {

namespace {

/// Upper bound on the shard count of the entry loop.
constexpr size_t kTargetShards = 16;

}  // namespace

double SparseKernels::RewrittenEntryLoss(const CsfTensor& x, const Matrix& u1,
                                         const Matrix& u2, const Matrix& u3,
                                         const std::vector<double>& h,
                                         double w_pos, double w_neg,
                                         Matrix* gu1, Matrix* gu2,
                                         Matrix* gu3,
                                         std::vector<double>* gh) {
  const size_t r = h.size();
  if (x.nnz() == 0) return 0.0;
  const CsfView v = x.view();
  const KernelTable& kern = ActiveKernels();
  const bool want_grads = gu1 != nullptr;

  // Shard decomposition mirrors the COO entry loop's sizing (>= ~1024
  // entries per shard, <= 16 shards) but splits on slice boundaries; a
  // pure function of (nnz, num_slices), so the summation structure — and
  // hence every rounding decision — is thread-count invariant.
  const size_t target = std::clamp<size_t>(x.nnz() / 1024, 1, kTargetShards);
  const size_t grain =
      std::max<size_t>(1, (v.num_slices + target - 1) / target);
  const size_t shards = ParallelForShards(v.num_slices, grain);

  if (shards <= 1) {
    return kern.csf_rewritten_entries(
        v, u1.data(), u2.data(), u3.data(), h.data(), r, w_pos, w_neg,
        want_grads ? gu1->data() : nullptr,
        want_grads ? gu2->data() : nullptr,
        want_grads ? gu3->data() : nullptr,
        want_grads ? gh->data() : nullptr, 0, v.num_slices);
  }

  // dL/dU1 rows are slice rows — disjoint across shards — so shards
  // write gu1 in place. dL/dU2, dL/dU3 and dL/dh overlap, so they go
  // through per-shard buffers merged in ascending shard order.
  std::vector<double> shard_loss(shards, 0.0);
  std::vector<Matrix> shard_gu2, shard_gu3;
  std::vector<std::vector<double>> shard_gh;
  if (want_grads) {
    shard_gu2.assign(shards, Matrix(u2.rows(), r));
    shard_gu3.assign(shards, Matrix(u3.rows(), r));
    shard_gh.assign(shards, std::vector<double>(r, 0.0));
  }
  ParallelFor(v.num_slices, grain, [&](size_t begin, size_t end, size_t s) {
    shard_loss[s] = kern.csf_rewritten_entries(
        v, u1.data(), u2.data(), u3.data(), h.data(), r, w_pos, w_neg,
        want_grads ? gu1->data() : nullptr,
        want_grads ? shard_gu2[s].data() : nullptr,
        want_grads ? shard_gu3[s].data() : nullptr,
        want_grads ? shard_gh[s].data() : nullptr, begin, end);
  });
  double loss = 0.0;
  for (size_t s = 0; s < shards; ++s) loss += shard_loss[s];
  if (want_grads) {
    for (size_t s = 0; s < shards; ++s) {
      gu2->Add(shard_gu2[s]);
      gu3->Add(shard_gu3[s]);
      for (size_t t = 0; t < r; ++t) (*gh)[t] += shard_gh[s][t];
    }
  }
  return loss;
}

}  // namespace tcss
