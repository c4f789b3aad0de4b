#ifndef TCSS_TENSOR_DENSE_TENSOR_H_
#define TCSS_TENSOR_DENSE_TENSOR_H_

#include <cstddef>
#include <vector>

namespace tcss {

/// Dense order-3 tensor: the core of the Tucker baselines. Intentionally
/// simple (contiguous, i-major layout).
class DenseTensor {
 public:
  DenseTensor() : dim_i_(0), dim_j_(0), dim_k_(0) {}
  DenseTensor(size_t dim_i, size_t dim_j, size_t dim_k, double fill = 0.0)
      : dim_i_(dim_i), dim_j_(dim_j), dim_k_(dim_k),
        data_(dim_i * dim_j * dim_k, fill) {}

  size_t dim_i() const { return dim_i_; }
  size_t dim_j() const { return dim_j_; }
  size_t dim_k() const { return dim_k_; }
  size_t size() const { return data_.size(); }

  double& at(size_t i, size_t j, size_t k) {
    return data_[(i * dim_j_ + j) * dim_k_ + k];
  }
  double at(size_t i, size_t j, size_t k) const {
    return data_[(i * dim_j_ + j) * dim_k_ + k];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

 private:
  size_t dim_i_, dim_j_, dim_k_;
  std::vector<double> data_;
};

}  // namespace tcss

#endif  // TCSS_TENSOR_DENSE_TENSOR_H_
