#ifndef TCSS_TENSOR_MTTKRP_H_
#define TCSS_TENSOR_MTTKRP_H_

#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"

namespace tcss {

/// Sparse MTTKRP (matricized tensor times Khatri-Rao product), the core
/// kernel of CP-ALS and its only caller. For mode 0 it computes
///   M[i, :] = sum_{(i,j,k) in nnz} X[i,j,k] * (B[j, :] ⊙ C[k, :])
/// where B and C are the factor matrices of the other two modes (J x r and
/// K x r). Analogous contractions for modes 1 and 2. O(nnz * r).
///
/// `factors` are the three factor matrices {U1 (I x r), U2 (J x r),
/// U3 (K x r)}; the factor for `mode` itself is not read.
///
/// One plain loop walks the tensor's mode-0 CSF tree (x.csf(), so `x`
/// must be finalized) for every mode: a singleton fiber adds
/// v·x[t]·c[t], a longer fiber adds (Σ_e v_e·c_e[t])·x[t], with c = U3[k]
/// and x = U2[j] for mode 0 or U1[i] for mode 1; mode 2 adds
/// v·(U1[i][t]·U2[j][t]) into row k. The result is bit-identical at any
/// thread count and matches the dense oracle (proptest::OracleMttkrp) to
/// <= 1e-12 relative.
Matrix Mttkrp(const SparseTensor& x, const Matrix factors[3], int mode);

}  // namespace tcss

#endif  // TCSS_TENSOR_MTTKRP_H_
