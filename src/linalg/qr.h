#ifndef TCSS_LINALG_QR_H_
#define TCSS_LINALG_QR_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace tcss {

/// In-place orthonormalization of the columns of `a` (m x n, m >= n) via
/// modified Gram-Schmidt with one re-orthogonalization pass. Columns that
/// projection leaves numerically zero (rank deficiency: zero, or shorter
/// than 1e-12 * min(1, the column's norm before projection)) are replaced
/// by random directions re-orthogonalized against the rest, so the result
/// always has orthonormal columns. `rng` may be null if the input is
/// full-rank. Requires m >= n. On error the contents of `a` are
/// unspecified.
Status Orthonormalize(Matrix* a, Rng* rng = nullptr);

}  // namespace tcss

#endif  // TCSS_LINALG_QR_H_
