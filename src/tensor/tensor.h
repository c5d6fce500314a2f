// Define-by-run reverse-mode automatic differentiation over dense matrices.
// Every model in this library (Firzen and all fifteen baselines) builds its
// per-step loss as a graph of Tensor ops and calls Backward().
//
// Design notes:
//  * A Tensor is a cheap shared handle to a Node holding the forward value,
//    a lazily allocated gradient, and a backward closure.
//  * Backward() seeds only the loss. A node's gradient is allocated when the
//    first contribution reaches it, which stores 0.0 + x into uninitialized
//    storage (the bits of adding x to a zeroed buffer: -0.0 becomes +0.0);
//    later contributions add, in reverse topological order of the children.
//  * An interior node's gradient is released as soon as its backward
//    closure has run, so after Backward() only leaves hold gradients. Leaf
//    gradients keep accumulating across Backward() calls until ZeroGrad()
//    or an optimizer step.
//  * Graphs are rebuilt each training step (define-by-run); leaf parameter
//    nodes persist across steps and are updated by an Optimizer.
//  * Sparse graph matrices (the paper's frozen graphs) enter the graph as
//    constants through the SpMM op only — gradients never flow into graph
//    structure, which is exactly the paper's "frozen" semantics.
#ifndef FIRZEN_TENSOR_TENSOR_H_
#define FIRZEN_TENSOR_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/matrix.h"

namespace firzen {

/// Internal autograd graph node. Use the Tensor handle instead of touching
/// nodes directly.
struct TensorNode {
  Matrix value;
  Matrix grad;  // empty until the first contribution reaches this node
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorNode>> parents;
  /// Propagates this->grad into parents' grads. Null for leaves.
  std::function<void(TensorNode*)> backward_fn;
  const char* op_name = "leaf";

  /// Allocates and zeroes grad if it does not match the value shape yet.
  /// For backward closures that scatter into parts of a parent's gradient.
  void EnsureGrad();
};

/// Value-semantic handle to an autograd node.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorNode> node) : node_(std::move(node)) {}

  /// A leaf that does not require gradients.
  static Tensor Constant(Matrix value);

  /// A trainable leaf (model parameter).
  static Tensor Variable(Matrix value);

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const { return node_->value; }
  Matrix* mutable_value() { return &node_->value; }
  const Matrix& grad() const { return node_->grad; }
  bool requires_grad() const { return node_->requires_grad; }

  Index rows() const { return node_->value.rows(); }
  Index cols() const { return node_->value.cols(); }

  /// Scalar payload of a 1x1 tensor.
  Real scalar() const;

  /// Zeroes the gradient buffer (keeps allocation).
  void ZeroGrad();

  const std::shared_ptr<TensorNode>& node() const { return node_; }

 private:
  std::shared_ptr<TensorNode> node_;
};

/// Runs reverse-mode differentiation from `loss` (must be 1x1). Gradients
/// accumulate into every reachable leaf with requires_grad; interior
/// gradients are released once propagated (see the design notes above).
void Backward(const Tensor& loss);

}  // namespace firzen

#endif  // FIRZEN_TENSOR_TENSOR_H_
