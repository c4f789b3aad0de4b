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
  int iterations[3] = {0, 0, 0};  ///< subspace iterations per mode
  bool converged[3] = {false, false, false};
};
Result<FactorModel> InitializeFactors(const SparseTensor& train,
                                      const TcssConfig& config,
                                      SpectralInitStats* stats = nullptr);

}  // namespace tcss

#endif  // TCSS_CORE_SPECTRAL_INIT_H_
