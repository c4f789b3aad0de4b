#include "baselines/pure_svd.h"

#include <algorithm>
#include <vector>

#include "linalg/svd.h"

namespace tcss {
namespace {

// Sparse user x POI binary matrix (tensor collapsed over time) exposed as
// a MatVecOperator for the implicit SVD.
class UserPoiMatrix : public MatVecOperator {
 public:
  explicit UserPoiMatrix(const SparseTensor& x) : x_(&x) {}

  size_t Rows() const override { return x_->dim_i(); }
  size_t Cols() const override { return x_->dim_j(); }
  void Apply(const std::vector<double>& x,
             std::vector<double>* y) const override {
    y->assign(Rows(), 0.0);
    for (uint32_t i = 0; i < Rows(); ++i) {
      for (uint32_t j : x_->Pois(i)) (*y)[i] += x[j];
    }
  }
  void ApplyTranspose(const std::vector<double>& x,
                      std::vector<double>* y) const override {
    y->assign(Cols(), 0.0);
    for (uint32_t i = 0; i < Rows(); ++i) {
      for (uint32_t j : x_->Pois(i)) (*y)[j] += x[i];
    }
  }

 private:
  const SparseTensor* x_;  ///< its distinct (i, j) pairs are the nonzeros
};

}  // namespace

Status PureSvd::Fit(const TrainContext& ctx) {
  if (ctx.train == nullptr) {
    return Status::InvalidArgument("PureSvd: null train tensor");
  }
  UserPoiMatrix m(*ctx.train);
  const size_t r = std::min(opts_.rank, std::min(m.Rows(), m.Cols()));
  auto svd = ComputeTruncatedSvd(m, r, opts_.seed ^ ctx.seed);
  if (!svd.ok()) return svd.status();
  TruncatedSvd dec = svd.MoveValue();
  user_ = std::move(dec.u);
  for (size_t i = 0; i < user_.rows(); ++i)
    for (size_t t = 0; t < r; ++t) user_(i, t) *= dec.s[t];
  poi_ = std::move(dec.v);
  return Status::OK();
}

double PureSvd::Score(uint32_t i, uint32_t j, uint32_t k) const {
  const double* a = user_.row(i);
  const double* b = poi_.row(j);
  double s = 0.0;
  for (size_t t = 0; t < user_.cols(); ++t) s += a[t] * b[t];
  return s;
}

}  // namespace tcss
