#include "nn/optimizer.h"

#include "linalg/vector_ops.h"

namespace tcss::nn {

Adam::Adam(ParameterStore* store, double lr) : store_(store), lr_(lr) {
  m_.reserve(store->size());
  v_.reserve(store->size());
  for (size_t idx = 0; idx < store->size(); ++idx) {
    const Matrix& val = store->at(idx)->value;
    m_.emplace_back(val.rows(), val.cols());
    v_.emplace_back(val.rows(), val.cols());
  }
}

void Adam::Step() {
  ++t_;
  for (size_t idx = 0; idx < store_->size(); ++idx) {
    Parameter* p = store_->at(idx);
    AdamUpdate(p->value.data(), p->grad.data(), m_[idx].data(),
               v_[idx].data(), p->value.size(), t_, lr_,
               /*weight_decay=*/0.0);
    p->ZeroGrad();
  }
}

}  // namespace tcss::nn
