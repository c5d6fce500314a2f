// Dense row-major matrix with the handful of kernels the autograd engine
// needs. No external BLAS: every Gemm layout runs one register-tile kernel
// that computes 4 x 32 output tiles from vector registers, reading both
// operands where they lie — a transposed A through its column strides, B
// in place for A * B and as packed 32-column B^T slivers for A * B^T (the
// scoring kernel). No operand is ever transposed into a copy. Work is
// sharded across the global thread pool. Results are bit-identical for any
// pool size because every output element is a straight k-ordered sum.
#ifndef FIRZEN_TENSOR_MATRIX_H_
#define FIRZEN_TENSOR_MATRIX_H_

#include <limits>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/common.h"
#include "src/util/rng.h"

// Defined when the target has a fused multiply-add instruction. The
// A * B^T kernels then build every output cell from exactly-rounded
// std::fma steps, so any two of them agree bit for bit with a scalar
// std::fma p-chain (tests/kernel_parity_test.cc pins this).
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
#define FIRZEN_HAS_HW_FMA 1
#endif

namespace firzen {

class ThreadPool;

/// Allocator whose value-less construct() default-initializes, so growing a
/// std::vector of doubles leaves the new elements unwritten instead of
/// zero-filling them. Sanitizer builds (FIRZEN_NAN_FILL_NEW_STORAGE, set
/// with FIRZEN_SANITIZE) fill them with NaN instead, so a kernel that reads
/// storage it never wrote shows up in every test it runs in.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
#ifdef FIRZEN_NAN_FILL_NEW_STORAGE
    ::new (static_cast<void*>(p)) U(std::numeric_limits<U>::quiet_NaN());
#else
    ::new (static_cast<void*>(p)) U;
#endif
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Dense row-major matrix of Real. A (rows x cols) matrix stores element
/// (r, c) at data[r * cols + c]. Vectors are represented as n x 1 or 1 x n.
class Matrix {
 public:
  Matrix() = default;
  Matrix(Index rows, Index cols, Real fill = 0.0);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  Real& operator()(Index r, Index c) {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  Real operator()(Index r, Index c) const {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  Real* data() { return data_.data(); }
  const Real* data() const { return data_.data(); }
  Real* row(Index r) { return data_.data() + r * cols_; }
  const Real* row(Index r) const { return data_.data() + r * cols_; }

  /// Sets every element to `value`.
  void Fill(Real value);

  /// Sets every element to zero (keeps shape).
  void Zero() { Fill(0.0); }

  /// Resize to (rows x cols) and zero. Existing contents are discarded.
  void Resize(Index rows, Index cols);

  /// Resize to (rows x cols) without writing any element: elements already
  /// held keep their values and new ones are left uninitialized (NaN in
  /// sanitizer builds, see DefaultInitAllocator). For kernels that write
  /// every element before reading it (Gemm's beta == 0 path, SpMM, the
  /// autograd ops' forward values and first gradient writes), so a fresh
  /// output costs no fill pass at all.
  void ResizeUninitialized(Index rows, Index cols);

  /// this += alpha * other. Shapes must match.
  void Axpy(Real alpha, const Matrix& other);

  /// Multiply every element by alpha.
  void Scale(Real alpha);

  /// Sum of squares of all elements.
  Real SquaredNorm() const;

  /// Euclidean norm of row r.
  Real RowNorm(Index r) const;

  /// Fill with independent N(0, stddev) samples.
  void FillNormal(Rng* rng, Real stddev);

  /// Fill with independent U(lo, hi) samples.
  void FillUniform(Rng* rng, Real lo, Real hi);

  /// Returns a new matrix equal to the transpose.
  Matrix Transposed() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Real, DefaultInitAllocator<Real>> data_;
};

/// Non-owning writable window into a dense row-major buffer: `rows` x `cols`
/// with a row stride of `stride` elements (stride >= cols). Block-streaming
/// scorers write score panels through views so a column window of a wider
/// batch matrix — or a caller-owned flat buffer — works without a copy.
/// The underlying storage must outlive the view.
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(Real* data, Index rows, Index cols, Index stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    FIRZEN_CHECK_GE(rows, 0);
    FIRZEN_CHECK_GE(cols, 0);
    FIRZEN_CHECK_GE(stride, cols);
  }

  /// View of a whole matrix (stride == cols).
  explicit MatrixView(Matrix* m)
      : MatrixView(m->data(), m->rows(), m->cols(), m->cols()) {}

  /// Column window [col_begin, col_begin + cols) of every row of `m`.
  static MatrixView Columns(Matrix* m, Index col_begin, Index cols) {
    FIRZEN_CHECK_GE(col_begin, 0);
    FIRZEN_CHECK_LE(col_begin + cols, m->cols());
    return MatrixView(m->data() + col_begin, m->rows(), cols, m->cols());
  }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  Real* data() const { return data_; }
  Real* row(Index r) const { return data_ + r * stride_; }
  Real& operator()(Index r, Index c) const {
    return data_[static_cast<size_t>(r * stride_ + c)];
  }

 private:
  Real* data_ = nullptr;
  Index rows_ = 0;
  Index cols_ = 0;
  Index stride_ = 0;
};

/// Batch-size cutoff for the A * B^T dispatch (Gemm's trans_b path and
/// GemmBT): at or below this many A rows the kernel shards whole B^T column
/// panels across the pool (few user rows, vast catalogs — row sharding has
/// nothing to split), above it it shards rows. BOTH sides run the one
/// register-tile kernel, so the cutoff is purely a parallelization
/// choice: every output cell is a fixed p-ordered accumulation determined
/// only by its own A row and B row, and scores are bit-identical no matter
/// how many other rows share the batch. Exported so tests can pin
/// bit-equality astride the cutoff (tests/scorer_parity_test.cc,
/// tests/kernel_parity_test.cc).
inline constexpr Index kGemmBTColumnShardMaxRows = 32;

/// C = alpha * op(A) * op(B) + beta * C, where op is optional transpose.
/// Shapes are checked. C must already have the correct shape when beta != 0;
/// otherwise it is resized (uninitialized, then fully overwritten). Rows of C
/// are sharded across `pool` (nullptr = ThreadPool::Global()); results do not
/// depend on the pool size. All four layouts run the one 4 x 32 register
/// tile and neither operand is transposed into a copy: a trans_a operand is
/// read through its column strides, and B is read in place when untransposed
/// (only a ragged last 32-column sliver is zero-padded). The trans_b path
/// packs B^T one bounded 512-column panel (of 32-column slivers) at a time,
/// so peak scratch is O(k * 512) per worker instead of O(k * n), with shard
/// height floored so the re-pack stays amortized; at or below
/// kGemmBTColumnShardMaxRows rows it shards column panels instead (see
/// above), keeping results bit-identical for any batch size. Every cell is
/// the p-ordered multiply-add chain from +0.0, times alpha, then (beta != 0)
/// one fused fma(beta, c, .) on FMA hardware.
void Gemm(bool trans_a, bool trans_b, Real alpha, const Matrix& a,
          const Matrix& b, Real beta, Matrix* c, ThreadPool* pool = nullptr);

/// out = a * slice^T where `slice` is `n` contiguous row-major rows of width
/// a.cols() starting at `b_rows` — i.e. out(i, j) = dot(a.row(i),
/// b_rows + j * k). This is the block-scoring kernel: a row range (or a
/// gathered candidate pack) of an item-embedding table scores against a user
/// batch with zero copies of the table. out must be a.rows() x n. Every
/// output element is a straight p-ordered sum through the one register-tile
/// kernel, so results are bit-identical to the full-matrix
/// Gemm(trans_b) path for any block partitioning, any pool size, and any
/// user-batch size (the admission front end's coalescing contract).
void GemmBT(const Matrix& a, const Real* b_rows, Index n, MatrixView out,
            ThreadPool* pool = nullptr);

}  // namespace firzen

#endif  // FIRZEN_TENSOR_MATRIX_H_
