#include "baselines/cp_als.h"

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "tensor/mttkrp.h"

namespace tcss {

Status CpAls::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr) {
    return Status::InvalidArgument("CpAls: null train tensor");
  }
  const SparseTensor& x = *ctx.train;
  if (!x.finalized()) {
    return Status::InvalidArgument("CpAls: train tensor not finalized");
  }
  const size_t r = opts_.rank;
  Rng rng(opts_.seed ^ ctx.seed);
  factors_[0] = Matrix::GaussianRandom(x.dim_i(), r, &rng, 0.1);
  factors_[1] = Matrix::GaussianRandom(x.dim_j(), r, &rng, 0.1);
  factors_[2] = Matrix::GaussianRandom(x.dim_k(), r, &rng, 0.1);

  for (int sweep = 0; sweep < opts_.sweeps; ++sweep) {
    for (int mode = 0; mode < 3; ++mode) {
      // Normal equations gram: Hadamard of the other two factor Grams.
      const Matrix& f1 = factors_[(mode + 1) % 3];
      const Matrix& f2 = factors_[(mode + 2) % 3];
      Matrix gram = Hadamard(Gram(f1), Gram(f2));
      Matrix rhs = Mttkrp(x, factors_, mode);  // dim x r
      // Solve gram * a_row = rhs_row for every row (shared factorization).
      auto solved = CholeskySolveMulti(gram, rhs.Transposed(), opts_.ridge);
      if (!solved.ok()) return solved.status();
      factors_[mode] = solved.MoveValue().Transposed();
    }
  }
  return Status::OK();
}

double CpAls::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const double* a = factors_[0].row(i);
  const double* b = factors_[1].row(j);
  const double* c = factors_[2].row(k);
  double s = 0.0;
  for (size_t t = 0; t < factors_[0].cols(); ++t) s += a[t] * b[t] * c[t];
  return s;
}

}  // namespace tcss
