#ifndef TCSS_NN_OPTIMIZER_H_
#define TCSS_NN_OPTIMIZER_H_

#include <vector>

#include "nn/parameter.h"

namespace tcss::nn {

/// Adam optimizer over all parameters of a store: the update of the TCSS
/// trainer (tcss::AdamUpdate, β1 0.9, β2 0.999, ε 1e-8) without weight
/// decay. The neural baselines train with it at their own learning rate.
class Adam {
 public:
  Adam(ParameterStore* store, double lr);

  /// Applies one update from the accumulated grads, then zeroes grads.
  void Step();

  int64_t steps() const { return t_; }

 private:
  ParameterStore* store_;
  double lr_;
  int64_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace tcss::nn

#endif  // TCSS_NN_OPTIMIZER_H_
