// Differentiable operations over Tensor. Free functions in namespace
// firzen::ops; each builds one graph node. Shapes are validated eagerly.
#ifndef FIRZEN_TENSOR_OPS_H_
#define FIRZEN_TENSOR_OPS_H_

#include <memory>
#include <vector>

#include "src/tensor/csr.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace ops {

// ---------------------------------------------------------------------------
// Elementwise kernel helpers. Shared by every elementwise autograd op below
// (and by callers like the discriminator's weight clipping) instead of ~10
// hand-rolled index loops. Large buffers are sharded across the global
// thread pool; each index is touched by exactly one shard, so results are
// deterministic for any pool size. `fn` must be a pure per-element function.
// ---------------------------------------------------------------------------

namespace detail {
/// Minimum elements per shard: elementwise work is cheap, so only large
/// tensors are worth scheduling on the pool.
constexpr Index kElementwiseGrain = 1 << 14;
}  // namespace detail

/// out[i] = fn(a[i]). `out` may alias `a`.
template <typename Fn>
void ApplyElementwise(Index n, const Real* a, Real* out, Fn fn) {
  ParallelFor(
      ThreadPool::Global(), n,
      [&](Index begin, Index end) {
        for (Index i = begin; i < end; ++i) out[i] = fn(a[i]);
      },
      detail::kElementwiseGrain);
}

/// out[i] = fn(a[i], b[i]). `out` may alias either input.
template <typename Fn>
void ApplyElementwise(Index n, const Real* a, const Real* b, Real* out,
                      Fn fn) {
  ParallelFor(
      ThreadPool::Global(), n,
      [&](Index begin, Index end) {
        for (Index i = begin; i < end; ++i) out[i] = fn(a[i], b[i]);
      },
      detail::kElementwiseGrain);
}

/// Element-wise a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// Element-wise a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Element-wise a * b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);
/// Element-wise a / b (same shape). b must be nonzero everywhere.
Tensor Div(const Tensor& a, const Tensor& b);
/// alpha * a.
Tensor Scale(const Tensor& a, Real alpha);
/// a + alpha (element-wise).
Tensor AddScalar(const Tensor& a, Real alpha);
/// Sum of an arbitrary number of same-shaped tensors.
Tensor AddN(const std::vector<Tensor>& xs);

/// op(a) * op(b) with optional transposes.
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// y = A * x where A is a frozen sparse matrix (no gradient into A).
Tensor SpMM(std::shared_ptr<const CsrMatrix> a, const Tensor& x);

/// y[k, :] = x[idx[k], :]. Backward scatter-adds into x.
Tensor GatherRows(const Tensor& x, std::vector<Index> idx);

/// Column slice [begin, end).
Tensor SliceCols(const Tensor& x, Index begin, Index end);

/// Matrix transpose.
Tensor Transpose(const Tensor& x);

/// Row-wise L2 normalization with numeric floor eps.
Tensor RowL2Normalize(const Tensor& x, Real eps = 1e-12);

/// Element-wise nonlinearities.
Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Relu(const Tensor& x);
Tensor LeakyRelu(const Tensor& x, Real alpha = 0.2);
Tensor Exp(const Tensor& x);
/// log(max(x, eps)).
Tensor Log(const Tensor& x, Real eps = 1e-12);
/// Numerically stable log(1 + exp(x)). Note -Softplus(-x) == log(sigmoid(x)).
Tensor Softplus(const Tensor& x);

/// Softmax along each row.
Tensor RowSoftmax(const Tensor& x);

/// Inverted dropout with keep-prob (1 - p); identity when p <= 0.
Tensor Dropout(const Tensor& x, Real p, Rng* rng);

/// y[r, :] = x[r, :] * w[r, 0] (w is n x 1).
Tensor RowScale(const Tensor& x, const Tensor& w);

/// y[r, :] = x[r, :] + b[0, :] (b is 1 x d).
Tensor AddRowBroadcast(const Tensor& x, const Tensor& b);

/// y[r, 0] = dot(a[r, :], b[r, :]) (same shapes, result n x 1).
Tensor RowDot(const Tensor& a, const Tensor& b);

/// Scalar sum over all elements (1 x 1).
Tensor ReduceSum(const Tensor& x);
/// Scalar mean over all elements (1 x 1).
Tensor ReduceMean(const Tensor& x);
/// Per-row sums (n x 1).
Tensor RowSum(const Tensor& x);
/// Per-column sums (1 x d).
Tensor ColSum(const Tensor& x);
/// ColSum(Exp(x)) as one node, bit-identical to the pair in value and in
/// x's gradient: each column sums its exp values in row order. Keeps only
/// the exp values for backward, not a second n x d gradient.
Tensor ColSumExp(const Tensor& x);
/// Scalar sum of squares (1 x 1) — L2 regularization workhorse.
Tensor SumSquares(const Tensor& x);

/// Train-mode batch normalization over rows (per-column statistics), with
/// learnable gamma (1 x d) and beta (1 x d).
Tensor BatchNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 Real eps = 1e-5);

/// Horizontal concatenation [x0 | x1 | ...] of same-row-count tensors.
Tensor ConcatCols(const std::vector<Tensor>& xs);

/// Reinterprets the row-major buffer with a new shape (rows*cols preserved).
Tensor Reshape(const Tensor& x, Index rows, Index cols);

/// Sums consecutive groups of `group_size` rows:
/// y[b, :] = sum_{s < group_size} x[b * group_size + s, :].
Tensor SumGroups(const Tensor& x, Index group_size);

/// Repeats each row `times` times consecutively:
/// y[k, :] = x[k / times, :]. Backward sums the repeats.
Tensor RepeatInterleaveRows(const Tensor& x, Index times);

/// Cuts the graph: returns a constant holding a copy of x's value.
Tensor Detach(const Tensor& x);

/// log(sigmoid(x)) composed from stable primitives.
Tensor LogSigmoid(const Tensor& x);

}  // namespace ops
}  // namespace firzen

#endif  // FIRZEN_TENSOR_OPS_H_
