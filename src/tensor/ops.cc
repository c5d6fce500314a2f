#include "src/tensor/ops.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "src/util/check.h"

namespace firzen {
namespace ops {
namespace {

using NodePtr = std::shared_ptr<TensorNode>;

NodePtr NewNode(const char* name, std::vector<NodePtr> parents) {
  auto node = std::make_shared<TensorNode>();
  node->op_name = name;
  node->parents = std::move(parents);
  for (const auto& p : node->parents) {
    node->requires_grad = node->requires_grad || p->requires_grad;
  }
  return node;
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  FIRZEN_CHECK_EQ(a.rows(), b.rows());
  FIRZEN_CHECK_EQ(a.cols(), b.cols());
}

// How one backward contribution x lands in a gradient element. The first
// contribution to a gradient writes 0.0 + x into uninitialized storage: the
// bits of adding x to a zeroed buffer, which maps -0.0 to +0.0 (a bare
// `= x` would not). Later contributions add. kBeta is the matching beta
// of a kernel computing out = product + beta * out: with beta = 0 the Gemm
// register tile starts every chain at +0.0, so it never stores -0.0 either.
struct FirstWrite {
  static constexpr Real kBeta = 0.0;
  void operator()(Real& dst, Real x) const { dst = 0.0 + x; }
};
struct AddTo {
  static constexpr Real kBeta = 1.0;
  void operator()(Real& dst, Real x) const { dst += x; }
};

// The one fresh-or-accumulate decision of the tape: calls
// body(&parent->grad, put) with AddTo when the parent already holds a
// gradient (a leaf accumulating across Backward calls, or a node reached
// by an earlier child), else sizes the gradient uninitialized and passes
// FirstWrite. `body` must put every element exactly once. No-op for
// parents that take no gradient.
template <typename Body>
void Accumulate(TensorNode* parent, Body body) {
  if (!parent->requires_grad) return;
  Matrix& grad = parent->grad;
  if (grad.rows() == parent->value.rows() &&
      grad.cols() == parent->value.cols()) {
    body(&grad, AddTo());
  } else {
    grad.ResizeUninitialized(parent->value.rows(), parent->value.cols());
    body(&grad, FirstWrite());
  }
}

// Accumulate for elementwise contributions: puts fn(i) at every flat index
// i, sharded like ApplyElementwise.
template <typename Fn>
void AccumulateEach(TensorNode* parent, Fn fn) {
  Accumulate(parent, [&](Matrix* grad, auto put) {
    Real* out = grad->data();
    ParallelFor(
        ThreadPool::Global(), grad->size(),
        [&](Index begin, Index end) {
          for (Index i = begin; i < end; ++i) put(out[i], fn(i));
        },
        detail::kElementwiseGrain);
  });
}

// Backward of ops whose output gradient passes unchanged to every parent
// (sums, scalar shifts, reshapes).
void PassGradToParents(TensorNode* self) {
  const Real* g = self->grad.data();
  for (auto& parent : self->parents) {
    AccumulateEach(parent.get(), [g](Index i) { return g[i]; });
  }
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  auto node = NewNode("add", {a.node(), b.node()});
  node->value.ResizeUninitialized(a.rows(), a.cols());
  ApplyElementwise(node->value.size(), a.value().data(), b.value().data(),
                   node->value.data(), [](Real x, Real y) { return x + y; });
  if (node->requires_grad) node->backward_fn = PassGradToParents;
  return Tensor(node);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  auto node = NewNode("sub", {a.node(), b.node()});
  node->value.ResizeUninitialized(a.rows(), a.cols());
  ApplyElementwise(node->value.size(), a.value().data(), b.value().data(),
                   node->value.data(), [](Real x, Real y) { return x - y; });
  if (node->requires_grad) {
    node->backward_fn = [](TensorNode* self) {
      const Real* g = self->grad.data();
      AccumulateEach(self->parents[0].get(), [g](Index i) { return g[i]; });
      AccumulateEach(self->parents[1].get(), [g](Index i) { return -g[i]; });
    };
  }
  return Tensor(node);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  auto node = NewNode("mul", {a.node(), b.node()});
  node->value.ResizeUninitialized(a.rows(), a.cols());
  ApplyElementwise(node->value.size(), a.value().data(), b.value().data(),
                   node->value.data(), [](Real x, Real y) { return x * y; });
  if (node->requires_grad) {
    node->backward_fn = [](TensorNode* self) {
      TensorNode* a_node = self->parents[0].get();
      TensorNode* b_node = self->parents[1].get();
      const Real* g = self->grad.data();
      const Real* x = a_node->value.data();
      const Real* y = b_node->value.data();
      AccumulateEach(a_node, [g, y](Index i) { return g[i] * y[i]; });
      AccumulateEach(b_node, [g, x](Index i) { return g[i] * x[i]; });
    };
  }
  return Tensor(node);
}

Tensor Div(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  auto node = NewNode("div", {a.node(), b.node()});
  node->value.ResizeUninitialized(a.rows(), a.cols());
  ApplyElementwise(node->value.size(), a.value().data(), b.value().data(),
                   node->value.data(), [](Real x, Real y) { return x / y; });
  if (node->requires_grad) {
    node->backward_fn = [](TensorNode* self) {
      const Real* g = self->grad.data();
      const Real* out = self->value.data();
      const Real* y = self->parents[1]->value.data();
      AccumulateEach(self->parents[0].get(),
                     [g, y](Index i) { return g[i] / y[i]; });
      AccumulateEach(self->parents[1].get(), [g, out, y](Index i) {
        return -g[i] * out[i] / y[i];
      });
    };
  }
  return Tensor(node);
}

Tensor Scale(const Tensor& a, Real alpha) {
  auto node = NewNode("scale", {a.node()});
  node->value.ResizeUninitialized(a.rows(), a.cols());
  ApplyElementwise(node->value.size(), a.value().data(), node->value.data(),
                   [alpha](Real v) { return v * alpha; });
  if (node->requires_grad) {
    node->backward_fn = [alpha](TensorNode* self) {
      const Real* g = self->grad.data();
      AccumulateEach(self->parents[0].get(),
                     [alpha, g](Index i) { return alpha * g[i]; });
    };
  }
  return Tensor(node);
}

Tensor AddScalar(const Tensor& a, Real alpha) {
  auto node = NewNode("add_scalar", {a.node()});
  node->value.ResizeUninitialized(a.rows(), a.cols());
  ApplyElementwise(node->value.size(), a.value().data(), node->value.data(),
                   [alpha](Real v) { return v + alpha; });
  if (node->requires_grad) node->backward_fn = PassGradToParents;
  return Tensor(node);
}

Tensor AddN(const std::vector<Tensor>& xs) {
  FIRZEN_CHECK(!xs.empty());
  std::vector<NodePtr> parents;
  parents.reserve(xs.size());
  for (const auto& x : xs) {
    CheckSameShape(xs[0], x);
    parents.push_back(x.node());
  }
  auto node = NewNode("add_n", std::move(parents));
  if (xs.size() == 1) {
    node->value = xs[0].value();
  } else {
    node->value.ResizeUninitialized(xs[0].rows(), xs[0].cols());
    Real* out = node->value.data();
    const auto add = [](Real x, Real y) { return x + y; };
    ApplyElementwise(node->value.size(), xs[0].value().data(),
                     xs[1].value().data(), out, add);
    for (size_t i = 2; i < xs.size(); ++i) {
      ApplyElementwise(node->value.size(), out, xs[i].value().data(), out,
                       add);
    }
  }
  if (node->requires_grad) node->backward_fn = PassGradToParents;
  return Tensor(node);
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  auto node = NewNode("matmul", {a.node(), b.node()});
  Gemm(trans_a, trans_b, 1.0, a.value(), b.value(), 0.0, &node->value);
  if (node->requires_grad) {
    node->backward_fn = [trans_a, trans_b](TensorNode* self) {
      TensorNode* a_node = self->parents[0].get();
      TensorNode* b_node = self->parents[1].get();
      const Matrix& g = self->grad;
      Accumulate(a_node, [&](Matrix* ga, auto put) {
        const Real beta = decltype(put)::kBeta;
        if (!trans_a) {
          // dA = dC * op(B)^T
          Gemm(false, !trans_b, 1.0, g, b_node->value, beta, ga);
        } else if (!trans_b) {
          // C = A^T B  =>  dA = B * dC^T
          Gemm(false, true, 1.0, b_node->value, g, beta, ga);
        } else {
          // C = A^T B^T  =>  dA = B^T * dC^T
          Gemm(true, true, 1.0, b_node->value, g, beta, ga);
        }
      });
      Accumulate(b_node, [&](Matrix* gb, auto put) {
        const Real beta = decltype(put)::kBeta;
        if (!trans_b) {
          // dB = op(A)^T * dC
          Gemm(!trans_a, false, 1.0, a_node->value, g, beta, gb);
        } else if (!trans_a) {
          // C = A B^T  =>  dB = dC^T * A
          Gemm(true, false, 1.0, g, a_node->value, beta, gb);
        } else {
          // C = A^T B^T  =>  dB = dC^T * A^T
          Gemm(true, true, 1.0, g, a_node->value, beta, gb);
        }
      });
    };
  }
  return Tensor(node);
}

Tensor SpMM(std::shared_ptr<const CsrMatrix> a, const Tensor& x) {
  FIRZEN_CHECK(a != nullptr);
  FIRZEN_CHECK_EQ(a->cols(), x.rows());
  auto node = NewNode("spmm", {x.node()});
  a->SpMM(x.value(), &node->value);
  if (node->requires_grad) {
    node->backward_fn = [a](TensorNode* self) {
      // SpMMT starts each output row at 0.0 and adds in the same order as
      // SpMMTAccum into a zeroed buffer, so it is the first write.
      Accumulate(self->parents[0].get(), [&](Matrix* gx, auto put) {
        if (decltype(put)::kBeta == 0.0) {
          a->SpMMT(self->grad, gx);
        } else {
          a->SpMMTAccum(1.0, self->grad, gx);
        }
      });
    };
  }
  return Tensor(node);
}

Tensor GatherRows(const Tensor& x, std::vector<Index> idx) {
  const Index d = x.cols();
  auto node = NewNode("gather_rows", {x.node()});
  node->value.ResizeUninitialized(static_cast<Index>(idx.size()), d);
  for (size_t k = 0; k < idx.size(); ++k) {
    FIRZEN_CHECK_GE(idx[k], 0);
    FIRZEN_CHECK_LT(idx[k], x.rows());
    const Real* src = x.value().row(idx[k]);
    Real* dst = node->value.row(static_cast<Index>(k));
    for (Index c = 0; c < d; ++c) dst[c] = src[c];
  }
  if (node->requires_grad) {
    node->backward_fn = [idx = std::move(idx), d](TensorNode* self) {
      TensorNode* x_node = self->parents[0].get();
      x_node->EnsureGrad();
      for (size_t k = 0; k < idx.size(); ++k) {
        const Real* src = self->grad.row(static_cast<Index>(k));
        Real* dst = x_node->grad.row(idx[k]);
        for (Index c = 0; c < d; ++c) dst[c] += src[c];
      }
    };
  }
  return Tensor(node);
}

Tensor SliceRows(const Tensor& x, Index begin, Index end) {
  FIRZEN_CHECK_LE(begin, end);
  std::vector<Index> idx(static_cast<size_t>(end - begin));
  std::iota(idx.begin(), idx.end(), begin);
  return GatherRows(x, std::move(idx));
}

Tensor SliceCols(const Tensor& x, Index begin, Index end) {
  FIRZEN_CHECK_GE(begin, 0);
  FIRZEN_CHECK_LT(begin, end);
  FIRZEN_CHECK_LE(end, x.cols());
  const Index n = x.rows();
  const Index w = end - begin;
  auto node = NewNode("slice_cols", {x.node()});
  node->value.ResizeUninitialized(n, w);
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r) + begin;
    Real* dst = node->value.row(r);
    for (Index c = 0; c < w; ++c) dst[c] = src[c];
  }
  if (node->requires_grad) {
    node->backward_fn = [begin, w](TensorNode* self) {
      TensorNode* x_node = self->parents[0].get();
      x_node->EnsureGrad();
      for (Index r = 0; r < self->grad.rows(); ++r) {
        const Real* src = self->grad.row(r);
        Real* dst = x_node->grad.row(r) + begin;
        for (Index c = 0; c < w; ++c) dst[c] += src[c];
      }
    };
  }
  return Tensor(node);
}

Tensor RowL2Normalize(const Tensor& x, Real eps) {
  const Index n = x.rows();
  const Index d = x.cols();
  auto node = NewNode("row_l2_normalize", {x.node()});
  node->value.ResizeUninitialized(n, d);
  std::vector<Real> norms(static_cast<size_t>(n));
  for (Index r = 0; r < n; ++r) {
    const Real norm = std::max(x.value().RowNorm(r), eps);
    norms[static_cast<size_t>(r)] = norm;
    const Real* src = x.value().row(r);
    Real* dst = node->value.row(r);
    for (Index c = 0; c < d; ++c) dst[c] = src[c] / norm;
  }
  if (node->requires_grad) {
    node->backward_fn = [norms = std::move(norms), d](TensorNode* self) {
      Accumulate(self->parents[0].get(), [&](Matrix* gx_all, auto put) {
        for (Index r = 0; r < self->grad.rows(); ++r) {
          const Real* g = self->grad.row(r);
          const Real* y = self->value.row(r);
          Real* gx = gx_all->row(r);
          // Sequential fixed-order scalar reduction: deterministic as
          // written; the sanctioned fma kernels (matrix.cc) exist for
          // blocked/parallel panels.
          // firzen-lint: allow(raw-float-accum)
          Real gy = 0.0;
          for (Index c = 0; c < d; ++c) gy += g[c] * y[c];
          const Real inv = 1.0 / norms[static_cast<size_t>(r)];
          for (Index c = 0; c < d; ++c) put(gx[c], (g[c] - y[c] * gy) * inv);
        }
      });
    };
  }
  return Tensor(node);
}

namespace {

// Shared machinery for element-wise unary ops whose derivative can be
// written as a function of (input, output). Templated on the callables so
// the forward map and the fused backward accumulation both inline into the
// ApplyElementwise sharded loops.
template <typename Fwd, typename Dfn>
Tensor UnaryOp(const char* name, const Tensor& x, Fwd fwd, Dfn dfn) {
  auto node = NewNode(name, {x.node()});
  node->value.ResizeUninitialized(x.rows(), x.cols());
  ApplyElementwise(node->value.size(), x.value().data(), node->value.data(),
                   fwd);
  if (node->requires_grad) {
    node->backward_fn = [dfn](TensorNode* self) {
      TensorNode* x_node = self->parents[0].get();
      const Real* g = self->grad.data();
      const Real* in = x_node->value.data();
      const Real* out = self->value.data();
      AccumulateEach(x_node, [dfn, g, in, out](Index i) {
        return g[i] * dfn(in[i], out[i]);
      });
    };
  }
  return Tensor(node);
}

}  // namespace

Tensor Sigmoid(const Tensor& x) {
  return UnaryOp(
      "sigmoid", x,
      [](Real v) {
        return v >= 0 ? 1.0 / (1.0 + std::exp(-v))
                      : std::exp(v) / (1.0 + std::exp(v));
      },
      [](Real, Real y) { return y * (1.0 - y); });
}

Tensor Tanh(const Tensor& x) {
  return UnaryOp("tanh", x, [](Real v) { return std::tanh(v); },
                 [](Real, Real y) { return 1.0 - y * y; });
}

Tensor Relu(const Tensor& x) {
  return UnaryOp("relu", x, [](Real v) { return v > 0 ? v : 0.0; },
                 [](Real v, Real) { return v > 0 ? 1.0 : 0.0; });
}

Tensor LeakyRelu(const Tensor& x, Real alpha) {
  return UnaryOp(
      "leaky_relu", x, [alpha](Real v) { return v > 0 ? v : alpha * v; },
      [alpha](Real v, Real) { return v > 0 ? 1.0 : alpha; });
}

Tensor Exp(const Tensor& x) {
  return UnaryOp("exp", x, [](Real v) { return std::exp(v); },
                 [](Real, Real y) { return y; });
}

Tensor Log(const Tensor& x, Real eps) {
  return UnaryOp(
      "log", x, [eps](Real v) { return std::log(std::max(v, eps)); },
      [eps](Real v, Real) { return v > eps ? 1.0 / v : 1.0 / eps; });
}

Tensor Softplus(const Tensor& x) {
  return UnaryOp(
      "softplus", x,
      [](Real v) {
        if (v > 30.0) return v;
        if (v < -30.0) return std::exp(v);
        return std::log1p(std::exp(v));
      },
      [](Real v, Real) {
        return v >= 0 ? 1.0 / (1.0 + std::exp(-v))
                      : std::exp(v) / (1.0 + std::exp(v));
      });
}

Tensor RowSoftmax(const Tensor& x) {
  const Index n = x.rows();
  const Index d = x.cols();
  auto node = NewNode("row_softmax", {x.node()});
  node->value.ResizeUninitialized(n, d);
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r);
    Real* dst = node->value.row(r);
    Real max_v = src[0];
    for (Index c = 1; c < d; ++c) max_v = std::max(max_v, src[c]);
    // Sequential fixed-order scalar reduction: deterministic as written; the
    // sanctioned fma kernels (matrix.cc) exist for blocked/parallel panels.
    // firzen-lint: allow(raw-float-accum)
    Real denom = 0.0;
    for (Index c = 0; c < d; ++c) {
      dst[c] = std::exp(src[c] - max_v);
      denom += dst[c];
    }
    for (Index c = 0; c < d; ++c) dst[c] /= denom;
  }
  if (node->requires_grad) {
    node->backward_fn = [d](TensorNode* self) {
      Accumulate(self->parents[0].get(), [&](Matrix* gx_all, auto put) {
        for (Index r = 0; r < self->grad.rows(); ++r) {
          const Real* g = self->grad.row(r);
          const Real* y = self->value.row(r);
          Real* gx = gx_all->row(r);
          // Sequential fixed-order scalar reduction: deterministic as
          // written; the sanctioned fma kernels (matrix.cc) exist for
          // blocked/parallel panels.
          // firzen-lint: allow(raw-float-accum)
          Real gy = 0.0;
          for (Index c = 0; c < d; ++c) gy += g[c] * y[c];
          for (Index c = 0; c < d; ++c) put(gx[c], (g[c] - gy) * y[c]);
        }
      });
    };
  }
  return Tensor(node);
}

Tensor Dropout(const Tensor& x, Real p, Rng* rng) {
  if (p <= 0.0) return x;
  FIRZEN_CHECK_LT(p, 1.0);
  FIRZEN_CHECK(rng != nullptr);
  const Real keep = 1.0 - p;
  auto node = NewNode("dropout", {x.node()});
  node->value.ResizeUninitialized(x.rows(), x.cols());
  std::vector<Real> mask(static_cast<size_t>(x.value().size()));
  for (size_t i = 0; i < mask.size(); ++i) {
    mask[i] = rng->Bernoulli(keep) ? 1.0 / keep : 0.0;
    node->value.data()[i] = x.value().data()[i] * mask[i];
  }
  if (node->requires_grad) {
    node->backward_fn = [mask = std::move(mask)](TensorNode* self) {
      const Real* g = self->grad.data();
      const Real* m = mask.data();
      AccumulateEach(self->parents[0].get(),
                     [g, m](Index i) { return g[i] * m[i]; });
    };
  }
  return Tensor(node);
}

Tensor RowScale(const Tensor& x, const Tensor& w) {
  FIRZEN_CHECK_EQ(w.rows(), x.rows());
  FIRZEN_CHECK_EQ(w.cols(), 1);
  const Index n = x.rows();
  const Index d = x.cols();
  auto node = NewNode("row_scale", {x.node(), w.node()});
  node->value.ResizeUninitialized(n, d);
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r);
    Real* dst = node->value.row(r);
    const Real s = w.value()(r, 0);
    for (Index c = 0; c < d; ++c) dst[c] = src[c] * s;
  }
  if (node->requires_grad) {
    node->backward_fn = [d](TensorNode* self) {
      TensorNode* x_node = self->parents[0].get();
      TensorNode* w_node = self->parents[1].get();
      const Index n = self->grad.rows();
      Accumulate(x_node, [&](Matrix* gx_all, auto put) {
        for (Index r = 0; r < n; ++r) {
          const Real* g = self->grad.row(r);
          Real* gx = gx_all->row(r);
          const Real s = w_node->value(r, 0);
          for (Index c = 0; c < d; ++c) put(gx[c], g[c] * s);
        }
      });
      Accumulate(w_node, [&](Matrix* gw, auto put) {
        for (Index r = 0; r < n; ++r) {
          const Real* g = self->grad.row(r);
          const Real* xv = x_node->value.row(r);
          // Sequential fixed-order scalar reduction: deterministic as
          // written; the sanctioned fma kernels (matrix.cc) exist for
          // blocked/parallel panels.
          // firzen-lint: allow(raw-float-accum)
          Real acc = 0.0;
          for (Index c = 0; c < d; ++c) acc += g[c] * xv[c];
          put((*gw)(r, 0), acc);
        }
      });
    };
  }
  return Tensor(node);
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& b) {
  FIRZEN_CHECK_EQ(b.rows(), 1);
  FIRZEN_CHECK_EQ(b.cols(), x.cols());
  const Index n = x.rows();
  const Index d = x.cols();
  auto node = NewNode("add_row_broadcast", {x.node(), b.node()});
  node->value.ResizeUninitialized(n, d);
  const Real* bias = b.value().row(0);
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r);
    Real* dst = node->value.row(r);
    for (Index c = 0; c < d; ++c) dst[c] = src[c] + bias[c];
  }
  if (node->requires_grad) {
    node->backward_fn = [d](TensorNode* self) {
      TensorNode* x_node = self->parents[0].get();
      TensorNode* b_node = self->parents[1].get();
      const Real* g_all = self->grad.data();
      AccumulateEach(x_node, [g_all](Index i) { return g_all[i]; });
      // Every row adds into the one bias row: a scatter, so zero first.
      if (b_node->requires_grad) {
        b_node->EnsureGrad();
        Real* gb = b_node->grad.row(0);
        for (Index r = 0; r < self->grad.rows(); ++r) {
          const Real* g = self->grad.row(r);
          for (Index c = 0; c < d; ++c) gb[c] += g[c];
        }
      }
    };
  }
  return Tensor(node);
}

Tensor RowDot(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const Index n = a.rows();
  const Index d = a.cols();
  auto node = NewNode("row_dot", {a.node(), b.node()});
  node->value.ResizeUninitialized(n, 1);
  for (Index r = 0; r < n; ++r) {
    const Real* av = a.value().row(r);
    const Real* bv = b.value().row(r);
    // Sequential fixed-order scalar reduction: deterministic as written; the
    // sanctioned fma kernels (matrix.cc) exist for blocked/parallel panels.
    // firzen-lint: allow(raw-float-accum)
    Real acc = 0.0;
    for (Index c = 0; c < d; ++c) acc += av[c] * bv[c];
    node->value(r, 0) = acc;
  }
  if (node->requires_grad) {
    node->backward_fn = [d](TensorNode* self) {
      // d(a . b)/da = b and d/db = a, row by row.
      for (int k = 0; k < 2; ++k) {
        const Matrix& other = self->parents[1 - k]->value;
        Accumulate(self->parents[k].get(), [&](Matrix* grad, auto put) {
          for (Index r = 0; r < self->grad.rows(); ++r) {
            const Real g = self->grad(r, 0);
            Real* dst = grad->row(r);
            const Real* v = other.row(r);
            for (Index c = 0; c < d; ++c) put(dst[c], g * v[c]);
          }
        });
      }
    };
  }
  return Tensor(node);
}

Tensor ReduceSum(const Tensor& x) {
  auto node = NewNode("reduce_sum", {x.node()});
  node->value.ResizeUninitialized(1, 1);
  // Sequential fixed-order scalar reduction: deterministic as written; the
  // sanctioned fma kernels (matrix.cc) exist for blocked/parallel panels.
  // firzen-lint: allow(raw-float-accum)
  Real acc = 0.0;
  const Index n = x.value().size();
  for (Index i = 0; i < n; ++i) acc += x.value().data()[i];
  node->value(0, 0) = acc;
  if (node->requires_grad) {
    node->backward_fn = [](TensorNode* self) {
      const Real g = self->grad(0, 0);
      AccumulateEach(self->parents[0].get(), [g](Index) { return g; });
    };
  }
  return Tensor(node);
}

Tensor ReduceMean(const Tensor& x) {
  const Real inv = 1.0 / static_cast<Real>(x.value().size());
  return Scale(ReduceSum(x), inv);
}

Tensor RowSum(const Tensor& x) {
  const Index n = x.rows();
  const Index d = x.cols();
  auto node = NewNode("row_sum", {x.node()});
  node->value.ResizeUninitialized(n, 1);
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r);
    // Sequential fixed-order scalar reduction: deterministic as written; the
    // sanctioned fma kernels (matrix.cc) exist for blocked/parallel panels.
    // firzen-lint: allow(raw-float-accum)
    Real acc = 0.0;
    for (Index c = 0; c < d; ++c) acc += src[c];
    node->value(r, 0) = acc;
  }
  if (node->requires_grad) {
    node->backward_fn = [d](TensorNode* self) {
      Accumulate(self->parents[0].get(), [&](Matrix* gx_all, auto put) {
        for (Index r = 0; r < self->grad.rows(); ++r) {
          const Real g = self->grad(r, 0);
          Real* gx = gx_all->row(r);
          for (Index c = 0; c < d; ++c) put(gx[c], g);
        }
      });
    };
  }
  return Tensor(node);
}

Tensor ColSum(const Tensor& x) {
  const Index n = x.rows();
  const Index d = x.cols();
  auto node = NewNode("col_sum", {x.node()});
  node->value.Resize(1, d);
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r);
    Real* dst = node->value.row(0);
    for (Index c = 0; c < d; ++c) dst[c] += src[c];
  }
  if (node->requires_grad) {
    node->backward_fn = [d](TensorNode* self) {
      const Real* g = self->grad.row(0);
      Accumulate(self->parents[0].get(), [&](Matrix* gx_all, auto put) {
        for (Index r = 0; r < gx_all->rows(); ++r) {
          Real* gx = gx_all->row(r);
          for (Index c = 0; c < d; ++c) put(gx[c], g[c]);
        }
      });
    };
  }
  return Tensor(node);
}

Tensor ColSumExp(const Tensor& x) {
  const Index n = x.rows();
  const Index d = x.cols();
  auto node = NewNode("col_sum_exp", {x.node()});
  Matrix e;
  e.ResizeUninitialized(n, d);
  node->value.ResizeUninitialized(1, d);
  Real* sums = node->value.data();
  // Column shards, each walking its rows in order: every column is the same
  // row-ordered chain from 0.0 that ColSum runs over Exp's values.
  ParallelFor(
      ThreadPool::Global(), d,
      [&](Index begin, Index end) {
        for (Index c = begin; c < end; ++c) sums[c] = 0.0;
        for (Index r = 0; r < n; ++r) {
          const Real* src = x.value().row(r);
          Real* er = e.row(r);
          for (Index c = begin; c < end; ++c) {
            er[c] = std::exp(src[c]);
            sums[c] += er[c];
          }
        }
      },
      std::max<Index>(1, detail::kElementwiseGrain / std::max<Index>(1, n)));
  if (node->requires_grad) {
    node->backward_fn = [e = std::move(e), d](TensorNode* self) {
      // The bits of the unfused pair: ColSum writes 0.0 + g[c] into Exp's
      // gradient, and Exp multiplies it by the exp value.
      const Real* g = self->grad.data();
      Accumulate(self->parents[0].get(), [&](Matrix* gx, auto put) {
        ParallelFor(
            ThreadPool::Global(), gx->rows(),
            [&](Index begin, Index end) {
              for (Index r = begin; r < end; ++r) {
                const Real* er = e.row(r);
                Real* dst = gx->row(r);
                for (Index c = 0; c < d; ++c) put(dst[c], (0.0 + g[c]) * er[c]);
              }
            },
            std::max<Index>(1, detail::kElementwiseGrain /
                                   std::max<Index>(1, d)));
      });
    };
  }
  return Tensor(node);
}

Tensor SumSquares(const Tensor& x) {
  auto node = NewNode("sum_squares", {x.node()});
  node->value.ResizeUninitialized(1, 1);
  node->value(0, 0) = x.value().SquaredNorm();
  if (node->requires_grad) {
    node->backward_fn = [](TensorNode* self) {
      TensorNode* x_node = self->parents[0].get();
      const Real g = 2.0 * self->grad(0, 0);
      const Real* xv = x_node->value.data();
      AccumulateEach(x_node, [g, xv](Index i) { return g * xv[i]; });
    };
  }
  return Tensor(node);
}

Tensor BatchNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 Real eps) {
  FIRZEN_CHECK_EQ(gamma.rows(), 1);
  FIRZEN_CHECK_EQ(gamma.cols(), x.cols());
  FIRZEN_CHECK_EQ(beta.rows(), 1);
  FIRZEN_CHECK_EQ(beta.cols(), x.cols());
  const Index n = x.rows();
  const Index d = x.cols();
  FIRZEN_CHECK_GT(n, 0);
  auto node = NewNode("batch_norm", {x.node(), gamma.node(), beta.node()});

  std::vector<Real> mean(static_cast<size_t>(d), 0.0);
  std::vector<Real> inv_std(static_cast<size_t>(d), 0.0);
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r);
    for (Index c = 0; c < d; ++c) mean[static_cast<size_t>(c)] += src[c];
  }
  for (Index c = 0; c < d; ++c) mean[static_cast<size_t>(c)] /= n;
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r);
    for (Index c = 0; c < d; ++c) {
      const Real dev = src[c] - mean[static_cast<size_t>(c)];
      inv_std[static_cast<size_t>(c)] += dev * dev;
    }
  }
  for (Index c = 0; c < d; ++c) {
    inv_std[static_cast<size_t>(c)] =
        1.0 / std::sqrt(inv_std[static_cast<size_t>(c)] / n + eps);
  }
  // Store normalized pre-affine activations for the backward pass.
  auto xhat = std::make_shared<Matrix>();
  xhat->ResizeUninitialized(n, d);
  node->value.ResizeUninitialized(n, d);
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r);
    Real* h = xhat->row(r);
    Real* out = node->value.row(r);
    for (Index c = 0; c < d; ++c) {
      h[c] = (src[c] - mean[static_cast<size_t>(c)]) *
             inv_std[static_cast<size_t>(c)];
      out[c] = h[c] * gamma.value()(0, c) + beta.value()(0, c);
    }
  }
  if (node->requires_grad) {
    node->backward_fn = [xhat, inv_std = std::move(inv_std), n,
                         d](TensorNode* self) {
      TensorNode* x_node = self->parents[0].get();
      TensorNode* g_node = self->parents[1].get();
      TensorNode* b_node = self->parents[2].get();
      // Per-column sums of dY and dY * xhat.
      std::vector<Real> sum_dy(static_cast<size_t>(d), 0.0);
      std::vector<Real> sum_dy_xhat(static_cast<size_t>(d), 0.0);
      for (Index r = 0; r < n; ++r) {
        const Real* g = self->grad.row(r);
        const Real* h = xhat->row(r);
        for (Index c = 0; c < d; ++c) {
          sum_dy[static_cast<size_t>(c)] += g[c];
          sum_dy_xhat[static_cast<size_t>(c)] += g[c] * h[c];
        }
      }
      AccumulateEach(g_node, [&](Index c) {
        return sum_dy_xhat[static_cast<size_t>(c)];
      });
      AccumulateEach(b_node,
                     [&](Index c) { return sum_dy[static_cast<size_t>(c)]; });
      Accumulate(x_node, [&](Matrix* gx_all, auto put) {
        for (Index r = 0; r < n; ++r) {
          const Real* g = self->grad.row(r);
          const Real* h = xhat->row(r);
          Real* gx = gx_all->row(r);
          for (Index c = 0; c < d; ++c) {
            const size_t sc = static_cast<size_t>(c);
            const Real gamma_c = g_node->value(0, c);
            put(gx[c], gamma_c * inv_std[sc] / n *
                           (n * g[c] - sum_dy[sc] - h[c] * sum_dy_xhat[sc]));
          }
        }
      });
    };
  }
  return Tensor(node);
}

Tensor ConcatCols(const std::vector<Tensor>& xs) {
  FIRZEN_CHECK(!xs.empty());
  const Index n = xs[0].rows();
  Index total = 0;
  std::vector<NodePtr> parents;
  std::vector<Index> widths;
  for (const Tensor& x : xs) {
    FIRZEN_CHECK_EQ(x.rows(), n);
    total += x.cols();
    widths.push_back(x.cols());
    parents.push_back(x.node());
  }
  auto node = NewNode("concat_cols", std::move(parents));
  node->value.ResizeUninitialized(n, total);
  Index offset = 0;
  for (const Tensor& x : xs) {
    for (Index r = 0; r < n; ++r) {
      const Real* src = x.value().row(r);
      Real* dst = node->value.row(r) + offset;
      for (Index c = 0; c < x.cols(); ++c) dst[c] = src[c];
    }
    offset += x.cols();
  }
  if (node->requires_grad) {
    node->backward_fn = [widths = std::move(widths)](TensorNode* self) {
      Index offset = 0;
      for (size_t k = 0; k < self->parents.size(); ++k) {
        const Index w = widths[k];
        Accumulate(self->parents[k].get(), [&](Matrix* grad, auto put) {
          for (Index r = 0; r < self->grad.rows(); ++r) {
            const Real* src = self->grad.row(r) + offset;
            Real* dst = grad->row(r);
            for (Index c = 0; c < w; ++c) put(dst[c], src[c]);
          }
        });
        offset += w;
      }
    };
  }
  return Tensor(node);
}

Tensor Reshape(const Tensor& x, Index rows, Index cols) {
  FIRZEN_CHECK_EQ(rows * cols, x.rows() * x.cols());
  auto node = NewNode("reshape", {x.node()});
  node->value = x.value();
  // Same element count, so this only rewrites the dims of the copied buffer.
  node->value.ResizeUninitialized(rows, cols);
  if (node->requires_grad) node->backward_fn = PassGradToParents;
  return Tensor(node);
}

Tensor SumGroups(const Tensor& x, Index group_size) {
  FIRZEN_CHECK_GT(group_size, 0);
  FIRZEN_CHECK_EQ(x.rows() % group_size, 0);
  const Index groups = x.rows() / group_size;
  const Index d = x.cols();
  auto node = NewNode("sum_groups", {x.node()});
  node->value.Resize(groups, d);
  for (Index b = 0; b < groups; ++b) {
    Real* dst = node->value.row(b);
    for (Index s = 0; s < group_size; ++s) {
      const Real* src = x.value().row(b * group_size + s);
      for (Index c = 0; c < d; ++c) dst[c] += src[c];
    }
  }
  if (node->requires_grad) {
    node->backward_fn = [group_size, d](TensorNode* self) {
      Accumulate(self->parents[0].get(), [&](Matrix* gx_all, auto put) {
        for (Index b = 0; b < self->grad.rows(); ++b) {
          const Real* g = self->grad.row(b);
          for (Index s = 0; s < group_size; ++s) {
            Real* gx = gx_all->row(b * group_size + s);
            for (Index c = 0; c < d; ++c) put(gx[c], g[c]);
          }
        }
      });
    };
  }
  return Tensor(node);
}

Tensor RepeatInterleaveRows(const Tensor& x, Index times) {
  FIRZEN_CHECK_GT(times, 0);
  const Index n = x.rows();
  const Index d = x.cols();
  auto node = NewNode("repeat_interleave_rows", {x.node()});
  node->value.ResizeUninitialized(n * times, d);
  for (Index r = 0; r < n; ++r) {
    const Real* src = x.value().row(r);
    for (Index t = 0; t < times; ++t) {
      Real* dst = node->value.row(r * times + t);
      for (Index c = 0; c < d; ++c) dst[c] = src[c];
    }
  }
  if (node->requires_grad) {
    // Each row of x sums `times` gradient rows: a scatter, so zero first.
    node->backward_fn = [times, d](TensorNode* self) {
      TensorNode* x_node = self->parents[0].get();
      x_node->EnsureGrad();
      for (Index r = 0; r < x_node->grad.rows(); ++r) {
        Real* gx = x_node->grad.row(r);
        for (Index t = 0; t < times; ++t) {
          const Real* g = self->grad.row(r * times + t);
          for (Index c = 0; c < d; ++c) gx[c] += g[c];
        }
      }
    };
  }
  return Tensor(node);
}

Tensor Detach(const Tensor& x) { return Tensor::Constant(x.value()); }

Tensor LogSigmoid(const Tensor& x) {
  return Scale(Softplus(Scale(x, -1.0)), -1.0);
}

}  // namespace ops
}  // namespace firzen
