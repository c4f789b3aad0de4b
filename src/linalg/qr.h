#ifndef TCSS_LINALG_QR_H_
#define TCSS_LINALG_QR_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace tcss {

/// In-place orthonormalization of the columns of `a` (m x n, m >= n) via
/// modified Gram-Schmidt with one re-orthogonalization pass. Columns that
/// become numerically zero (rank deficiency) are replaced by random
/// directions re-orthogonalized against the rest, so the result always has
/// orthonormal columns. `rng` may be null if the input is full-rank. On
/// error the contents of `a` are unspecified.
Status Orthonormalize(Matrix* a, Rng* rng = nullptr);

/// Thin QR decomposition a = q * r with q (m x n) orthonormal columns and
/// r (n x n) upper triangular. Requires m >= n and full column rank.
Status ThinQr(const Matrix& a, Matrix* q, Matrix* r);

}  // namespace tcss

#endif  // TCSS_LINALG_QR_H_
