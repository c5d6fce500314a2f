// Quantized item-catalog representation and the int8 block-scoring kernel.
//
// QuantizedMatrix holds a per-row symmetric int8 quantization of a frozen
// fp32 table: row r stores q[c] = clamp(lround(x[c] * 127 / max|row|), -127,
// 127) plus one fp32 scale (max|row| / 127), so dequantized scores are
// Real(acc) * a_scale * b_scale with acc an int32 dot product. The catalog
// never changes at serving time, so the scales are computed once at build
// and the resident table shrinks 7.1x against the 8-byte Real table at
// d = 64: a row holds 64 int8 codes + one float scale + one int32 row sum =
// 72 bytes versus 64 * 8 = 512 bytes. (Rows pad to a 64-code stride, so
// narrower tables shrink less: 3.6x at d = 32.)
//
// GemmBTQuant is the quantized twin of GemmBT: out(i, j) = dot of int8 row i
// of A with int8 row j of B, dequantized through the shared epilogue. The
// int32 accumulation is EXACT (every int8*int8 product and any embedding-
// width sum of them fits in int32), so — unlike the fp32 path, which pins
// one p-ordered fma chain — results are bit-identical across SIMD tiers,
// thread counts, batch sizes, and block partitionings by construction: any
// order of exact integer adds is the same integer.
//
// Runtime dispatch: a scalar int32-accumulate reference is always built;
// AVX2 and AVX-512/VNNI tiers are compiled behind function-level target
// attributes on x86-64 and selected once per process via cpuid. The
// FIRZEN_SIMD environment variable (scalar|avx2|avx512) caps the tier for
// reproduction runs (tools/run_checks.sh --simd scalar) and bench
// attribution; see docs/quantization.md. All cpuid probing lives in
// quantized.cc — the single dispatch TU enforced by tools/firzen_lint.py's
// stray-cpuid rule.
#ifndef FIRZEN_TENSOR_QUANTIZED_H_
#define FIRZEN_TENSOR_QUANTIZED_H_

#include <cstdint>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/util/common.h"

namespace firzen {

class ThreadPool;

/// Kernel tier for GemmBTQuant, ordered: a higher tier strictly requires the
/// CPU features of the lower ones. The dispatched tier is a presentation
/// detail only — every tier produces bit-identical output (exact int32
/// accumulation) — so switching tiers can never change a served ranking.
enum class SimdTier {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Stable lowercase name ("scalar", "avx2", "avx512") for logs, bench
/// context blocks, and the FIRZEN_SIMD override.
const char* SimdTierName(SimdTier tier);

/// The tier GemmBTQuant will run: the best CPU-supported tier, capped by
/// FIRZEN_SIMD when set (an unknown FIRZEN_SIMD value aborts with the valid
/// choices; a tier the CPU lacks caps at the best supported one). Resolved
/// once on first call and pinned for the process lifetime, so a serving
/// process can never change tiers mid-stream.
SimdTier DispatchedSimdTier();

/// Per-row symmetric int8 quantization of a dense fp32 table. Rows are
/// padded with zeros to a 64-byte stride multiple so the SIMD kernels need
/// no tail handling (zero products add 0 to an exact integer sum). Build is
/// per-row independent and therefore bit-identical for any pool size.
///
/// Edge cases pinned by tests/quantized_matrix_test.cc: an all-zero row
/// gets scale 0 and all-zero codes (no division by the zero max); values at
/// the symmetric extremes saturate to +/-127; non-finite inputs are rejected
/// at build time with the offending coordinate in the error.
class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;

  /// Quantizes `m` row by row (sharded across `pool`, nullptr = global).
  /// Aborts if any element is NaN or infinite: a frozen catalog with
  /// non-finite embeddings is corrupt, and scale arithmetic on it would
  /// poison every score in the row's block.
  static QuantizedMatrix FromMatrix(const Matrix& m, ThreadPool* pool = nullptr);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  /// Row stride in int8 elements (cols rounded up to a 64 multiple).
  Index stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  const int8_t* row(Index r) const { return data_.data() + r * stride_; }
  const int8_t* data() const { return data_.data(); }
  /// Dequantization scale of row r: max|row| / 127 (0 for an all-zero row).
  float scale(Index r) const { return scales_[static_cast<size_t>(r)]; }
  const float* scales() const { return scales_.data(); }
  /// Sum of row r's int8 codes — the AVX-512/VNNI unsigned-offset
  /// compensation term, precomputed at build so the hot loop stays pure
  /// dot products.
  int32_t row_sum(Index r) const { return row_sums_[static_cast<size_t>(r)]; }
  const int32_t* row_sums() const { return row_sums_.data(); }

  /// Resident bytes of the quantized representation (codes + scales +
  /// row sums) — the numerator of the footprint-reduction counter reported
  /// by BM_GemmBTQuant against rows * cols * sizeof(Real).
  size_t byte_size() const {
    return data_.size() * sizeof(int8_t) + scales_.size() * sizeof(float) +
           row_sums_.size() * sizeof(int32_t);
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  Index stride_ = 0;
  std::vector<int8_t> data_;
  std::vector<float> scales_;
  std::vector<int32_t> row_sums_;
};

/// Quantizes one row of `cols` Reals into `out` (capacity `stride`,
/// zero-padding [cols, stride)), writing the row's scale. The exact
/// primitive QuantizedMatrix::FromMatrix applies per catalog row; exposed so
/// the scorer quantizes gathered user batches per call with the same
/// rounding (lround: half away from zero, independent of the FP rounding
/// mode) — one definition of the code mapping, used by both sides of the
/// dot product. Aborts on non-finite input.
void QuantizeRow(const Real* src, Index cols, Index stride, int8_t* out,
                 float* scale);

/// out(i, j) = Real(acc(i, j)) * a_scales[i] * b_scales[j], where acc is the
/// exact int32 dot of int8 row i of `a` and row j of `b`. Both strides must
/// be multiples of 64 with the pad bytes zero (QuantizedMatrix /
/// QuantizeRow layout). `b_row_sums[j]` must hold the code sum of b row j
/// (any value works for the scalar and AVX2 tiers, which never read it; the
/// VNNI tier needs the true sums). out must be m x n. Bit-identical for any
/// tier, pool size, or partitioning of rows/columns into calls.
void GemmBTQuant(const int8_t* a, Index m, Index k, Index a_stride,
                 const float* a_scales, const int8_t* b, Index n,
                 Index b_stride, const float* b_scales,
                 const int32_t* b_row_sums, MatrixView out,
                 ThreadPool* pool = nullptr);

/// Convenience overload: scores `a` against the `n` catalog rows starting at
/// `b_begin` of a QuantizedMatrix.
void GemmBTQuant(const int8_t* a, Index m, Index k, Index a_stride,
                 const float* a_scales, const QuantizedMatrix& b,
                 Index b_begin, Index n, MatrixView out,
                 ThreadPool* pool = nullptr);

}  // namespace firzen

#endif  // FIRZEN_TENSOR_QUANTIZED_H_
