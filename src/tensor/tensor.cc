#include "src/tensor/tensor.h"

#include <unordered_set>

#include "src/util/check.h"

namespace firzen {

void TensorNode::EnsureGrad() {
  if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
    grad.Resize(value.rows(), value.cols());
  }
}

Tensor Tensor::Constant(Matrix value) {
  auto node = std::make_shared<TensorNode>();
  node->value = std::move(value);
  node->requires_grad = false;
  return Tensor(std::move(node));
}

Tensor Tensor::Variable(Matrix value) {
  auto node = std::make_shared<TensorNode>();
  node->value = std::move(value);
  node->requires_grad = true;
  node->op_name = "variable";
  return Tensor(std::move(node));
}

Real Tensor::scalar() const {
  FIRZEN_CHECK_EQ(rows(), 1);
  FIRZEN_CHECK_EQ(cols(), 1);
  return node_->value(0, 0);
}

void Tensor::ZeroGrad() {
  if (!node_->grad.empty()) node_->grad.Zero();
}

namespace {

// Iterative post-order topological sort over the requires_grad subgraph.
void TopoSort(TensorNode* root, std::vector<TensorNode*>* order) {
  std::unordered_set<TensorNode*> visited;
  struct Frame {
    TensorNode* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      TensorNode* parent = top.node->parents[top.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order->push_back(top.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Tensor& loss) {
  FIRZEN_CHECK(loss.defined());
  FIRZEN_CHECK_EQ(loss.rows(), 1);
  FIRZEN_CHECK_EQ(loss.cols(), 1);
  TensorNode* root = loss.node().get();
  if (!root->requires_grad) return;

  std::vector<TensorNode*> order;
  TopoSort(root, &order);

  // Seed only the root; every other gradient is written by its first
  // contribution.
  root->grad = Matrix(1, 1, 1.0);

  // Post-order gives parents before children; walk in reverse so each node's
  // gradient is complete before it is propagated, then release it.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorNode* node = *it;
    // A node no contribution reached propagates (and keeps) zeros, as if
    // every gradient had been zeroed up front.
    node->EnsureGrad();
    if (node->backward_fn) {
      node->backward_fn(node);
      node->grad = Matrix();
    }
  }
}

}  // namespace firzen
