#include "src/tensor/optim.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

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
  const Options& o = options_;
  for (const Tensor& p : params) {
    TensorNode* node = p.node().get();
    if (node->grad.empty()) continue;
    State* state = GetState(p);
    const Index rows = node->value.rows();
    const Index cols = node->value.cols();
    FIRZEN_CHECK_EQ(state->m.rows(), rows);
    Real* value = node->value.data();
    Real* grad = node->grad.data();
    Real* m = state->m.data();
    Real* v = state->v.data();
    // Updates elements [begin, end) at step t and clears their gradient.
    // Each element is independent, so shards give the same bits.
    const auto update = [&](Index begin, Index end, int64_t t) {
      const Real bc1 = 1.0 - std::pow(o.beta1, t);
      const Real bc2 = 1.0 - std::pow(o.beta2, t);
      for (Index i = begin; i < end; ++i) {
        Real g = grad[i];
        grad[i] = 0.0;
        if (o.weight_decay != 0.0) g += o.weight_decay * value[i];
        m[i] = o.beta1 * m[i] + (1.0 - o.beta1) * g;
        v[i] = o.beta2 * v[i] + (1.0 - o.beta2) * g * g;
        const Real mhat = m[i] / bc1;
        const Real vhat = v[i] / bc2;
        value[i] -= o.lr * mhat / (std::sqrt(vhat) + o.eps);
      }
    };
    if (!o.lazy) {
      const int64_t t = ++state->steps;
      ParallelFor(
          ThreadPool::Global(), rows * cols,
          [&](Index begin, Index end) { update(begin, end, t); },
          ops::detail::kElementwiseGrain);
      continue;
    }
    // Lazy: a row whose gradient is all zero keeps its moments and step.
    const Index row_grain = std::max<Index>(
        1, ops::detail::kElementwiseGrain / std::max<Index>(1, cols));
    ParallelFor(
        ThreadPool::Global(), rows,
        [&](Index begin, Index end) {
          for (Index r = begin; r < end; ++r) {
            Real* grow = grad + r * cols;
            if (std::all_of(grow, grow + cols,
                            [](Real g) { return g == 0.0; })) {
              std::fill(grow, grow + cols, 0.0);  // clears -0.0 too
              continue;
            }
            update(r * cols, (r + 1) * cols,
                   ++state->row_steps[static_cast<size_t>(r)]);
          }
        },
        row_grain);
  }
}

}  // namespace firzen
