// First-order optimizers over Tensor parameters. Adam keeps per-parameter
// moment state keyed by node identity; LazyAdam skips moment updates for
// embedding rows whose gradient is exactly zero this step (the common case
// for large entity tables under mini-batch sampling).
#ifndef FIRZEN_TENSOR_OPTIM_H_
#define FIRZEN_TENSOR_OPTIM_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/tensor/tensor.h"

namespace firzen {

/// Abstract optimizer interface.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update using each parameter's accumulated gradient, then
  /// zeroes the gradients.
  virtual void Step(const std::vector<Tensor>& params) = 0;
};

/// Plain SGD with optional L2 weight decay.
class Sgd : public Optimizer {
 public:
  explicit Sgd(Real lr, Real weight_decay = 0.0)
      : lr_(lr), weight_decay_(weight_decay) {}

  void Step(const std::vector<Tensor>& params) override;

  Real lr() const { return lr_; }

 private:
  Real lr_;
  Real weight_decay_;
};

/// Adam (Kingma & Ba, 2015) with optional decoupled weight decay and a lazy
/// row-sparse mode for embedding tables.
class Adam : public Optimizer {
 public:
  struct Options {
    Real lr = 1e-3;
    Real beta1 = 0.9;
    Real beta2 = 0.999;
    Real eps = 1e-8;
    Real weight_decay = 0.0;
    /// When true, rows whose gradient is all-zero are skipped entirely
    /// (moments are not decayed) — "lazy Adam" semantics.
    bool lazy = false;
  };

  explicit Adam(Options options) : options_(options) {}

  void Step(const std::vector<Tensor>& params) override;

  Real lr() const { return options_.lr; }

 private:
  struct State {
    Matrix m;
    Matrix v;
    // Per-row step counts for lazy mode; single shared count otherwise.
    std::vector<int64_t> row_steps;
    int64_t steps = 0;
  };

  State* GetState(const Tensor& param);

  Options options_;
  std::unordered_map<TensorNode*, std::unique_ptr<State>> states_;
};

}  // namespace firzen

#endif  // FIRZEN_TENSOR_OPTIM_H_
