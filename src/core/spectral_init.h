#ifndef TCSS_CORE_SPECTRAL_INIT_H_
#define TCSS_CORE_SPECTRAL_INIT_H_

#include "common/status.h"
#include "core/factor_model.h"
#include "core/tcss_config.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Initializes a FactorModel for the given tensor and rank using one of
/// the strategies from the paper's Section IV-A / ablation:
///
///  * kSpectral (Eq 4): for each mode n, the top-r eigenvectors of the
///    off-diagonal Gram matrix of the mode-n unfolding, computed by
///    subspace iteration over the implicit Gram operator (O(nnz) per
///    matvec, never materialized). Columns are sign-aligned (positive
///    mean) and lightly jittered to break the eigenbasis symmetry.
///  * kRandom: i.i.d. N(0, 0.1^2).
///  * kOneHot: deterministic cyclic one-hot pattern U[i, i mod r] = 0.3
///    (the degenerate "index embedding" start; expected to trail the
///    other schemes, as in Table II).
///
/// h is initialized to all-ones (making the model start as plain CP).
///
/// For kSpectral, `stats` (when non-null) receives what each mode's
/// eigensolve reported; the other strategies leave it untouched.
struct SpectralInitStats {
  int iterations[3] = {0, 0, 0};  ///< operator applications per mode
  bool converged[3] = {false, false, false};
};
Result<FactorModel> InitializeFactors(const SparseTensor& train,
                                      const TcssConfig& config,
                                      SpectralInitStats* stats = nullptr);

/// The kRandom / kOneHot init of user rows [begin, end) of a dim_i x dim_j
/// x dim_k tensor: U1 holds those rows, byte for byte what
/// InitializeFactors gives them, and U2, U3 and h are whole. Random init
/// still draws every U1 row (one sequential stream) but stores only its
/// own. [0, dim_i) is InitializeFactors' random and one-hot path; a
/// distributed worker initializes its row block with it. InvalidArgument
/// for kSpectral, which needs the whole tensor, or a bad range.
Result<FactorModel> InitializeFactorRows(const TcssConfig& config,
                                         size_t dim_i, size_t dim_j,
                                         size_t dim_k, size_t begin,
                                         size_t end);

}  // namespace tcss

#endif  // TCSS_CORE_SPECTRAL_INIT_H_
