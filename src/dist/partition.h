#ifndef TCSS_DIST_PARTITION_H_
#define TCSS_DIST_PARTITION_H_

#include <cstdint>
#include <cstddef>

#include "common/status.h"
#include "core/tcss_config.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Contiguous block partition of the user mode (mode 0) across `world`
/// workers: rank r owns rows [Begin(r), End(r)). The remainder is spread
/// over the first rows%world ranks, so block sizes differ by at most one.
/// A pure function of (rows, world) — every process computes the same
/// partition without communication.
struct RowPartition {
  size_t rows = 0;
  int world = 1;

  RowPartition() = default;
  RowPartition(size_t rows_in, int world_in)
      : rows(rows_in), world(world_in < 1 ? 1 : world_in) {}

  size_t Begin(int rank) const {
    const size_t base = rows / static_cast<size_t>(world);
    const size_t rem = rows % static_cast<size_t>(world);
    const size_t r = static_cast<size_t>(rank);
    return r * base + (r < rem ? r : rem);
  }
  size_t End(int rank) const { return Begin(rank + 1); }
  size_t Count(int rank) const { return End(rank) - Begin(rank); }
};

/// Extracts rows [begin, end) of the user mode into a standalone tensor
/// with dims (end-begin, J, K); entry user indices are remapped to local
/// rows 0.. — exactly the tensor a worker trains its U1 block on. The
/// input must be finalized; the output is finalized (order is preserved,
/// COO order is row-major so a row range is a contiguous run).
Result<SparseTensor> SliceTensorRows(const SparseTensor& full, size_t begin,
                                     size_t end);

/// True when `config` is trainable by the distributed engine at
/// `num_workers` workers; otherwise fills *problem with a diagnostic.
/// Restrictions (see DESIGN.md §11): the loss must decompose exactly over
/// user row blocks (kRewritten/kNaive; kNegativeSampling's sampling
/// streams differ between one process and many), the social Hausdorff
/// head couples users across shards (lambda must be 0), and spectral
/// init needs the full tensor (multi-worker runs use kRandom/kOneHot,
/// which are reproducible from dims + seed alone).
bool ValidateDistConfig(const TcssConfig& config, int num_workers,
                        std::string* problem);

/// Order-insensitive digest of everything that must agree between the
/// coordinator and every worker for the run to make sense: tensor dims,
/// worker count, and the config fields that shape the trajectory. A
/// mismatched fingerprint in kHello aborts the handshake — a worker built
/// against yesterday's config cannot silently poison today's gradients.
uint64_t DistFingerprint(const TcssConfig& config, size_t dim_i, size_t dim_j,
                         size_t dim_k, int num_workers);

}  // namespace tcss

#endif  // TCSS_DIST_PARTITION_H_
