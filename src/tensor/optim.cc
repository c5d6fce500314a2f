#include "src/tensor/optim.h"

#include <cmath>

#include "src/util/check.h"

namespace firzen {

void Sgd::Step(const std::vector<Tensor>& params) {
  for (const Tensor& p : params) {
    TensorNode* node = p.node().get();
    if (node->grad.empty()) continue;
    if (weight_decay_ != 0.0) {
      node->grad.Axpy(weight_decay_, node->value);
    }
    node->value.Axpy(-lr_, node->grad);
    node->grad.Zero();
  }
}

Adam::State* Adam::GetState(const Tensor& param) {
  TensorNode* key = param.node().get();
  auto it = states_.find(key);
  if (it != states_.end()) return it->second.get();
  auto state = std::make_unique<State>();
  state->m.Resize(param.rows(), param.cols());
  state->v.Resize(param.rows(), param.cols());
  if (options_.lazy) {
    state->row_steps.assign(static_cast<size_t>(param.rows()), 0);
  }
  State* raw = state.get();
  states_.emplace(key, std::move(state));
  return raw;
}

void Adam::Step(const std::vector<Tensor>& params) {
  for (const Tensor& p : params) {
    TensorNode* node = p.node().get();
    if (node->grad.empty()) continue;
    State* state = GetState(p);
    const Index rows = node->value.rows();
    const Index cols = node->value.cols();
    FIRZEN_CHECK_EQ(state->m.rows(), rows);

    if (!options_.lazy) {
      ++state->steps;
      const Real bc1 = 1.0 - std::pow(options_.beta1, state->steps);
      const Real bc2 = 1.0 - std::pow(options_.beta2, state->steps);
      for (Index i = 0; i < rows * cols; ++i) {
        Real g = node->grad.data()[i];
        if (options_.weight_decay != 0.0) {
          g += options_.weight_decay * node->value.data()[i];
        }
        Real& m = state->m.data()[i];
        Real& v = state->v.data()[i];
        m = options_.beta1 * m + (1.0 - options_.beta1) * g;
        v = options_.beta2 * v + (1.0 - options_.beta2) * g * g;
        const Real mhat = m / bc1;
        const Real vhat = v / bc2;
        node->value.data()[i] -=
            options_.lr * mhat / (std::sqrt(vhat) + options_.eps);
      }
    } else {
      for (Index r = 0; r < rows; ++r) {
        const Real* grow = node->grad.row(r);
        bool dirty = false;
        for (Index c = 0; c < cols; ++c) {
          if (grow[c] != 0.0) {
            dirty = true;
            break;
          }
        }
        if (!dirty) continue;
        const int64_t t = ++state->row_steps[static_cast<size_t>(r)];
        const Real bc1 = 1.0 - std::pow(options_.beta1, t);
        const Real bc2 = 1.0 - std::pow(options_.beta2, t);
        Real* prow = node->value.row(r);
        Real* mrow = state->m.row(r);
        Real* vrow = state->v.row(r);
        for (Index c = 0; c < cols; ++c) {
          Real g = grow[c];
          if (options_.weight_decay != 0.0) {
            g += options_.weight_decay * prow[c];
          }
          mrow[c] = options_.beta1 * mrow[c] + (1.0 - options_.beta1) * g;
          vrow[c] = options_.beta2 * vrow[c] + (1.0 - options_.beta2) * g * g;
          const Real mhat = mrow[c] / bc1;
          const Real vhat = vrow[c] / bc2;
          prow[c] -= options_.lr * mhat / (std::sqrt(vhat) + options_.eps);
        }
      }
    }
    node->grad.Zero();
  }
}

}  // namespace firzen
