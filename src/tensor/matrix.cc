#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <memory>

#if defined(__AVX__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "src/util/thread_pool.h"

namespace firzen {

Matrix::Matrix(Index rows, Index cols, Real fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows * cols), fill) {
  FIRZEN_CHECK_GE(rows, 0);
  FIRZEN_CHECK_GE(cols, 0);
}

void Matrix::Fill(Real value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Resize(Index rows, Index cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<size_t>(rows * cols), 0.0);
}

void Matrix::ResizeUninitialized(Index rows, Index cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<size_t>(rows * cols));
}

void Matrix::Axpy(Real alpha, const Matrix& other) {
  FIRZEN_CHECK_EQ(rows_, other.rows_);
  FIRZEN_CHECK_EQ(cols_, other.cols_);
  const Real* src = other.data();
  Real* dst = data();
  const Index n = size();
  for (Index i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void Matrix::Scale(Real alpha) {
  for (auto& v : data_) v *= alpha;
}

Real Matrix::SquaredNorm() const {
  Real acc = 0.0;
  for (Real v : data_) acc += v * v;
  return acc;
}

Real Matrix::RowNorm(Index r) const {
  const Real* p = row(r);
  Real acc = 0.0;
  for (Index c = 0; c < cols_; ++c) acc += p[c] * p[c];
  return std::sqrt(acc);
}

void Matrix::FillNormal(Rng* rng, Real stddev) {
  for (auto& v : data_) v = rng->Normal(0.0, stddev);
}

void Matrix::FillUniform(Rng* rng, Real lo, Real hi) {
  for (auto& v : data_) v = rng->Uniform(lo, hi);
}

Matrix Matrix::Transposed() const {
  Matrix t;
  t.ResizeUninitialized(cols_, rows_);
  for (Index r = 0; r < rows_; ++r) {
    const Real* src = row(r);
    for (Index c = 0; c < cols_; ++c) t(c, r) = src[c];
  }
  return t;
}

namespace {

// Exactly-rounded multiply-add, the one accumulation primitive every Gemm
// kernel builds its per-element p-chain from. On hardware with a
// fused-multiply-add unit std::fma is a single instruction AND a single
// IEEE rounding, so two differently-compiled loops (the small-batch dot
// path's p-reduction vs the register tile's vector lanes) are guaranteed
// to produce bit-identical chains — which is what makes scores
// independent of the user-batch size. Without hardware FMA, std::fma is a
// slow libm call and plain `acc + a * b` contraction is at the compiler's
// whim per loop shape, so the BT dispatcher below then routes EVERY batch
// size through the one register-tile kernel instead (slower at small m,
// but the invariance contract survives).
#ifdef FIRZEN_HAS_HW_FMA
inline Real MulAdd(Real a, Real b, Real acc) { return std::fma(a, b, acc); }
#else
inline Real MulAdd(Real a, Real b, Real acc) { return acc + a * b; }
#endif

// Register blocking, the one kernel shape of every Gemm layout: a kMr x kNr
// tile of C lives in vector registers for the whole p loop (16 zmm
// accumulators on AVX-512), so the loop body is loads of one B sliver row
// and a broadcast per A row feeding 16 independent FMAs — no accumulator
// traffic through memory. A sliver is kNr columns of B laid out [p][j]:
// packed with row stride kNr for A * B^T, read in place with row stride n
// for A * B. A sliver (k * kNr * 8B = 16KB at k = 64) stays in L1 while a
// block of kMc A rows streams past it; for A * B^T a kNc-column panel of
// packed slivers (256KB at k = 64) stays in L2 across row blocks.
constexpr Index kMr = 4;
constexpr Index kNr = 32;
constexpr Index kMc = 64;
constexpr Index kNc = 512;
static_assert(kNc % kNr == 0, "panels hold whole slivers");
static_assert(kMc % kMr == 0, "row blocks hold whole tiles");

// One vector of lanes and the operations RegisterTile needs. The
// vector FMA intrinsics round exactly once per lane, like std::fma, so the
// lane width changes which cells are computed together, never a bit of
// any cell. Without a vector FMA the "vector" is one Real and MulAdd.
#if defined(__AVX512F__)
using Lanes = __m512d;
constexpr Index kLanes = 8;
inline Lanes LoadLanes(const Real* p) { return _mm512_loadu_pd(p); }
inline void StoreLanes(Real* p, Lanes v) { _mm512_storeu_pd(p, v); }
inline Lanes Broadcast(Real v) { return _mm512_set1_pd(v); }
inline Lanes MulLanes(Lanes a, Lanes b) { return _mm512_mul_pd(a, b); }
inline Lanes MulAddLanes(Lanes a, Lanes b, Lanes acc) {
  return _mm512_fmadd_pd(a, b, acc);
}
#elif defined(__AVX__) && defined(__FMA__)
using Lanes = __m256d;
constexpr Index kLanes = 4;
inline Lanes LoadLanes(const Real* p) { return _mm256_loadu_pd(p); }
inline void StoreLanes(Real* p, Lanes v) { _mm256_storeu_pd(p, v); }
inline Lanes Broadcast(Real v) { return _mm256_set1_pd(v); }
inline Lanes MulLanes(Lanes a, Lanes b) { return _mm256_mul_pd(a, b); }
inline Lanes MulAddLanes(Lanes a, Lanes b, Lanes acc) {
  return _mm256_fmadd_pd(a, b, acc);
}
#else
using Lanes = Real;
constexpr Index kLanes = 1;
inline Lanes LoadLanes(const Real* p) { return *p; }
inline void StoreLanes(Real* p, Lanes v) { *p = v; }
inline Lanes Broadcast(Real v) { return v; }
inline Lanes MulLanes(Lanes a, Lanes b) { return a * b; }
inline Lanes MulAddLanes(Lanes a, Lanes b, Lanes acc) {
  return MulAdd(a, b, acc);
}
#endif

// Element (r, p) of op(A) at `a`: row-major A holds it at a[r * lda + p];
// a trans_a operand is stored k x m, so it sits at a[p * lda + r] and the
// kMr rows of a tile at one p are contiguous. Neither layout is packed.
template <bool kTransA>
inline Real ElemA(const Real* a, Index lda, Index r, Index p) {
  return kTransA ? a[p * lda + r] : a[r * lda + p];
}

// Where row i of op(A) starts, in ElemA's addressing.
template <bool kTransA>
inline const Real* RowsFrom(const Real* a, Index lda, Index i) {
  return kTransA ? a + i : a + i * lda;
}

// out[r * ldo + j] = alpha * (sum over p of op(A)(r, p) * sliver(p, j)) for
// r < kMr, j < kNr, where sliver(p, j) is at b[p * ldb + j] (ldb == kNr for
// a packed sliver): each sum one p-ordered MulAdd chain starting from +0.0,
// then one rounded multiply by alpha — the same operations, in the same
// order, as a scalar loop. Columns go in groups of four lane vectors per
// row (all of kNr at once on AVX-512), which keeps the kMr x 4
// accumulators in registers on every tier.
template <bool kTransA, bool kPackedB>
inline void RegisterTile(Index k, const Real* a, Index lda, const Real* b,
                         Index ldb, Real alpha, Real* out, Index ldo) {
  constexpr Index kVecs = 4;
  constexpr Index kGroup = kVecs * kLanes;
  static_assert(kNr % kGroup == 0, "column groups tile the sliver");
  const Index b_stride = kPackedB ? kNr : ldb;
  for (Index g = 0; g < kNr; g += kGroup) {
    Lanes acc[kMr][kVecs];
#pragma GCC unroll 4
    for (Index r = 0; r < kMr; ++r) {
#pragma GCC unroll 4
      for (Index v = 0; v < kVecs; ++v) acc[r][v] = Broadcast(0.0);
    }
    for (Index p = 0; p < k; ++p) {
      const Real* bp = b + p * b_stride + g;
      Lanes bv[kVecs];
#pragma GCC unroll 4
      for (Index v = 0; v < kVecs; ++v) bv[v] = LoadLanes(bp + v * kLanes);
#pragma GCC unroll 4
      for (Index r = 0; r < kMr; ++r) {
        const Lanes av = Broadcast(ElemA<kTransA>(a, lda, r, p));
#pragma GCC unroll 4
        for (Index v = 0; v < kVecs; ++v) {
          acc[r][v] = MulAddLanes(av, bv[v], acc[r][v]);
        }
      }
    }
#pragma GCC unroll 4
    for (Index r = 0; r < kMr; ++r) {
#pragma GCC unroll 4
      for (Index v = 0; v < kVecs; ++v) {
        StoreLanes(out + r * ldo + g + v * kLanes,
                   MulLanes(Broadcast(alpha), acc[r][v]));
      }
    }
  }
}

// Copies the last `ragged` (< kMr) rows of op(A) in [.., row_end) into
// `edge`, zero-padded to a kMr-row tile in A's own layout, and returns the
// tile's lda; RegisterTile then reads it like any other tile. The padding
// rows compute chains that are never stored.
template <bool kTransA>
Index PadRaggedRows(const Real* a, Index lda, Index row_end, Index ragged,
                    Index k, std::vector<Real>* edge) {
  const Index edge_lda = kTransA ? kMr : k;
  edge->assign(static_cast<size_t>(kMr) * k, 0.0);
  const Real* rows = RowsFrom<kTransA>(a, lda, row_end - ragged);
  for (Index r = 0; r < ragged; ++r) {
    for (Index p = 0; p < k; ++p) {
      (*edge)[static_cast<size_t>(kTransA ? p * kMr + r : r * k + p)] =
          ElemA<kTransA>(rows, lda, r, p);
    }
  }
  return edge_lda;
}

// Writes the mr x sw corner of a kNr-wide `tile` to C: a copy when
// beta == 0, else MulAdd(beta, c, tile) per cell.
inline void StoreTile(const Real* tile, Index mr, Index sw, Real beta,
                      Real* c, Index ldc) {
  for (Index r = 0; r < mr; ++r) {
    const Real* trow = tile + r * kNr;
    Real* crow = c + r * ldc;
    if (beta == 0.0) {
      for (Index j = 0; j < sw; ++j) crow[j] = trow[j];
    } else {
      for (Index j = 0; j < sw; ++j) crow[j] = MulAdd(beta, crow[j], trow[j]);
    }
  }
}

// One shard of C = alpha * op(A) * B + beta * C covering rows
// [row_begin, row_end), with B row-major k x n and C n elements per row.
// Full kNr-column slivers of B are already laid out [p][j], so RegisterTile
// reads them in place with row stride n; only a ragged last sliver is
// copied, zero-padded, into a k x kNr buffer once per shard. Each block of
// kMc rows of A stays in cache while every sliver streams past it.
template <bool kTransA>
__attribute__((noinline)) void GemmPanelShardNN(
    Index row_begin, Index row_end, Index k, Index n, Real alpha,
    const Real* a, Index lda, const Real* b, Real beta, Real* c) {
  alignas(64) Real tile[kMr * kNr];
  const Index full_cols = n / kNr * kNr;
  std::vector<Real> ragged_sliver;
  if (full_cols < n) {
    ragged_sliver.assign(static_cast<size_t>(k * kNr), 0.0);
    for (Index p = 0; p < k; ++p) {
      std::copy(b + p * n + full_cols, b + (p + 1) * n,
                ragged_sliver.begin() + p * kNr);
    }
  }
  const Index ragged = (row_end - row_begin) % kMr;
  std::vector<Real> edge;
  const Index edge_lda =
      ragged == 0 ? 0 : PadRaggedRows<kTransA>(a, lda, row_end, ragged, k,
                                               &edge);
  for (Index ib = row_begin; ib < row_end; ib += kMc) {
    const Index ie = std::min<Index>(ib + kMc, row_end);
    for (Index j0 = 0; j0 < n; j0 += kNr) {
      const Index sw = std::min<Index>(kNr, n - j0);
      const Real* sliver = sw == kNr ? b + j0 : ragged_sliver.data();
      const Index ldb = sw == kNr ? n : kNr;
      for (Index i = ib; i < ie; i += kMr) {
        const Index mr = std::min<Index>(kMr, ie - i);
        const bool direct = mr == kMr && sw == kNr && beta == 0.0;
        Real* out = direct ? c + i * n + j0 : tile;
        const Index ldo = direct ? n : kNr;
        if (mr == kMr) {
          RegisterTile<kTransA, false>(k, RowsFrom<kTransA>(a, lda, i), lda,
                                       sliver, ldb, alpha, out, ldo);
        } else {
          RegisterTile<kTransA, false>(k, edge.data(), edge_lda, sliver, ldb,
                                       alpha, out, ldo);
        }
        if (!direct) StoreTile(tile, mr, sw, beta, c + i * n + j0, n);
      }
    }
  }
}

// One shard of C = alpha * op(A) * B^T + beta * C covering rows
// [row_begin, row_end) and columns [col_begin, col_end), with A read
// through ElemA (lda elements per stored row) and B given untransposed as
// row-major rows of width k. Instead of materializing all of B^T — an
// O(k * n) transient that rivals the compute at catalog scale — each
// kNc-column panel of B^T is packed into shard-local slivers (at most
// k * kNc elements, the ragged last sliver zero-padded) and consumed by
// RegisterTile.
//
// THE batch-size-invariance kernel: every row tile — including the ragged
// tail, padded below with zero rows — and every sliver — including the
// ragged one — goes through RegisterTile, so each output cell is the same
// p-ordered MulAdd chain over its own A row and B row regardless of m,
// tile position, panel offset or shard layout. Padding rows and columns
// compute chains that are never stored. noinline keeps one machine-code
// copy of the kernel for both dispatch modes below.
template <bool kTransA>
__attribute__((noinline)) void GemmPanelShardBT(
    Index row_begin, Index row_end, Index col_begin, Index col_end, Index k,
    Real alpha, const Real* a, Index lda, const Real* b, Real beta, Real* c,
    Index ldc) {
  // Full tiles of a beta == 0 product go straight from registers to C;
  // ragged tiles and beta != 0 go through `tile` first.
  alignas(64) Real tile[kMr * kNr];
  // Packing writes every panel entry (padding included) before it is read,
  // so the buffer is left uninitialized, and sized to the columns at hand.
  const Index panel_cols =
      std::min<Index>(kNc, (col_end - col_begin + kNr - 1) / kNr * kNr);
  const std::unique_ptr<Real[]> panel(
      new Real[static_cast<size_t>(k * panel_cols)]);
  // Pad the ragged row tile (if any) to kMr rows once per shard.
  const Index ragged = (row_end - row_begin) % kMr;
  std::vector<Real> edge;
  const Index edge_lda =
      ragged == 0 ? 0 : PadRaggedRows<kTransA>(a, lda, row_end, ragged, k,
                                               &edge);
  for (Index jb = col_begin; jb < col_end; jb += kNc) {
    const Index jw = std::min<Index>(kNc, col_end - jb);
    const Index num_slivers = (jw + kNr - 1) / kNr;
    for (Index s = 0; s < num_slivers; ++s) {
      Real* sliver = panel.get() + s * k * kNr;
      const Index sw = std::min<Index>(kNr, jw - s * kNr);
      for (Index j = 0; j < sw; ++j) {
        const Real* brow = b + (jb + s * kNr + j) * k;
        for (Index p = 0; p < k; ++p) sliver[p * kNr + j] = brow[p];
      }
      for (Index p = 0; p < k; ++p) {
        std::fill(sliver + p * kNr + sw, sliver + (p + 1) * kNr, 0.0);
      }
    }
    for (Index ib = row_begin; ib < row_end; ib += kMc) {
      const Index ie = std::min<Index>(ib + kMc, row_end);
      for (Index s = 0; s < num_slivers; ++s) {
        const Real* sliver = panel.get() + s * k * kNr;
        const Index j0 = jb + s * kNr;
        const Index sw = std::min<Index>(kNr, jw - s * kNr);
        for (Index i = ib; i < ie; i += kMr) {
          const Index mr = std::min<Index>(kMr, ie - i);
          const bool direct = mr == kMr && sw == kNr && beta == 0.0;
          Real* out = direct ? c + i * ldc + j0 : tile;
          const Index ldo = direct ? ldc : kNr;
          if (mr == kMr) {
            RegisterTile<kTransA, true>(k, RowsFrom<kTransA>(a, lda, i), lda,
                                        sliver, kNr, alpha, out, ldo);
          } else {
            RegisterTile<kTransA, true>(k, edge.data(), edge_lda, sliver,
                                        kNr, alpha, out, ldo);
          }
          if (!direct) StoreTile(tile, mr, sw, beta, c + i * ldc + j0, ldc);
        }
      }
    }
  }
}

// Every row shard re-packs the B^T panels it consumes, so shards must be
// tall enough to amortize that: at >= 64 rows per shard the packing is
// <= ~1.6% of the shard's multiply-adds for any shape.
constexpr Index kBTMinShardRows = 64;

#ifdef FIRZEN_HAS_HW_FMA
// Batches up to this many rows skip panel packing entirely and run the
// tiled dot path below; past it the packing amortizes and the
// register-tile kernel wins. Purely a perf threshold — both sides
// accumulate the identical exactly-rounded chain.
constexpr Index kDotLanesMaxRows = 8;

// One shard of the zero-pack dot path: rows [0, m) x columns
// [col_begin, col_end) of C = alpha * A * B^T + beta * C, with R x C_
// accumulator tiles — R*C_ independent exactly-rounded chains in flight to
// hide fma latency, and each loaded B value reused across R rows. Row
// remainders drop to 1 x C_ tiles, column remainders to single chains;
// every variant computes each cell as the same p-ordered MulAdd chain, so
// the tile shape (like everything else in the BT dispatch) is purely a
// perf choice and cannot move a bit.
template <int R, int C_>
void GemmDotTileShardBT(Index m, Index k, Index col_begin, Index col_end,
                        Real alpha, const Real* a, Index lda, const Real* b,
                        Real beta, Real* c, Index ldc) {
  const auto store = [&](Index i, Index j, Real acc) {
    Real* cell = c + i * ldc + j;
    *cell = beta == 0.0 ? alpha * acc : MulAdd(beta, *cell, alpha * acc);
  };
  Index j = col_begin;
  for (; j + C_ <= col_end; j += C_) {
    const Real* brow[C_];
    for (int t = 0; t < C_; ++t) brow[t] = b + (j + t) * k;
    Index i = 0;
    for (; i + R <= m; i += R) {
      Real acc[R][C_] = {};
      for (Index p = 0; p < k; ++p) {
        Real bv[C_];
        for (int t = 0; t < C_; ++t) bv[t] = brow[t][p];
        for (int r = 0; r < R; ++r) {
          const Real av = a[(i + r) * lda + p];
          for (int t = 0; t < C_; ++t) {
            acc[r][t] = MulAdd(av, bv[t], acc[r][t]);
          }
        }
      }
      for (int r = 0; r < R; ++r) {
        for (int t = 0; t < C_; ++t) store(i + r, j + t, acc[r][t]);
      }
    }
    for (; i < m; ++i) {  // ragged rows: 1 x C_ tiles
      const Real* arow = a + i * lda;
      Real acc[C_] = {};
      for (Index p = 0; p < k; ++p) {
        const Real av = arow[p];
        for (int t = 0; t < C_; ++t) {
          acc[t] = MulAdd(av, brow[t][p], acc[t]);
        }
      }
      for (int t = 0; t < C_; ++t) store(i, j + t, acc[t]);
    }
  }
  for (; j < col_end; ++j) {  // ragged columns: single chains
    const Real* brow = b + j * k;
    for (Index i = 0; i < m; ++i) {
      const Real* arow = a + i * lda;
      Real acc = 0.0;
      for (Index p = 0; p < k; ++p) acc = MulAdd(arow[p], brow[p], acc);
      store(i, j, acc);
    }
  }
}
#endif

// op(A) (m x k, read through ElemA with lda elements per stored row) times
// the transpose of n row-major rows of width k at `b`, written through
// (ldc-strided) C. Shared by Gemm's trans_b path (full matrices) and GemmBT
// (views over row slices).
//
// BATCH-SIZE INVARIANCE: c(i, j) is bit-identical for any m — a user's
// scores do not depend on how many other users share the batch, which is
// what lets the admission front end fuse concurrent requests with no
// observable effect. Above the cutoff, rows shard over the register-tile
// kernel; at or below it, either the zero-pack dot path runs the very same
// per-element MulAdd chain (exactly-rounded hardware FMA, so the two
// differently-shaped loops cannot round apart), or — without hardware FMA,
// or for a trans_a operand, whose rows the dot path cannot stream — the
// register-tile kernel itself runs column-sharded. Either way the cutoff
// picks a parallelization strategy, never a numerical path.
template <bool kTransA>
void GemmDispatchBT(Index m, Index k, Index n, Real alpha, const Real* a,
                    Index lda, const Real* b, Real beta, Real* c, Index ldc,
                    ThreadPool* pool) {
  if (pool == nullptr) pool = ThreadPool::Global();
  if (m <= kGemmBTColumnShardMaxRows) {
#ifdef FIRZEN_HAS_HW_FMA
    if (!kTransA && m <= kDotLanesMaxRows) {
      // Tiny batches (single-user requests): zero-pack dot products with j
      // outer stream B exactly once while the whole A panel stays
      // cache-resident. Columns shard across the pool; the accumulator
      // tile adapts to the batch (wide for one row, square once there are
      // rows to reuse B values across) without moving a bit — every cell
      // is the one p-ordered MulAdd chain.
      const Index min_cols =
          std::max<Index>(1, 65536 / std::max<Index>(1, m * k));
      ParallelFor(
          pool, n,
          [&](Index col_begin, Index col_end) {
            if (m >= 4) {
              GemmDotTileShardBT<4, 4>(m, k, col_begin, col_end, alpha, a,
                                       lda, b, beta, c, ldc);
            } else {
              GemmDotTileShardBT<1, 8>(m, k, col_begin, col_end, alpha, a,
                                       lda, b, beta, c, ldc);
            }
          },
          min_cols);
      return;
    }
#endif
    // Mid-size batches (and, without hardware FMA, every small batch —
    // two differently-shaped loops cannot be pinned to one rounding
    // there): run the one register-tile kernel, sharding whole kNc column
    // panels across the pool since there are too few rows to shard.
    const Index num_panels = (n + kNc - 1) / kNc;
    const Index min_panels = std::max<Index>(
        1, 65536 / std::max<Index>(1, m * k * kNc));
    ParallelFor(
        pool, num_panels,
        [&](Index panel_begin, Index panel_end) {
          GemmPanelShardBT<kTransA>(0, m, panel_begin * kNc,
                                    std::min(panel_end * kNc, n), k, alpha,
                                    a, lda, b, beta, c, ldc);
        },
        min_panels);
    return;
  }
  // Larger batches: row shards, each streaming every panel. The row floor
  // keeps the per-shard panel packing amortized (see kBTMinShardRows);
  // peak scratch is one k x kNc panel per worker instead of the O(k * n)
  // full transpose.
  ParallelFor(
      pool, m,
      [&](Index begin, Index end) {
        GemmPanelShardBT<kTransA>(begin, end, 0, n, k, alpha, a, lda, b, beta,
                                  c, ldc);
      },
      kBTMinShardRows);
}

// op(A) * B with B row-major k x n: row shards over GemmPanelShardNN, each
// of at least ~64K multiply-adds so tiny products stay inline and large
// ones split evenly across workers.
template <bool kTransA>
void GemmDispatchNN(Index m, Index k, Index n, Real alpha, const Real* a,
                    Index lda, const Real* b, Real beta, Real* c,
                    ThreadPool* pool) {
  if (pool == nullptr) pool = ThreadPool::Global();
  const Index min_rows = std::max<Index>(1, 65536 / std::max<Index>(1, k * n));
  ParallelFor(
      pool, m,
      [&](Index begin, Index end) {
        GemmPanelShardNN<kTransA>(begin, end, k, n, alpha, a, lda, b, beta,
                                  c);
      },
      min_rows);
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, Real alpha, const Matrix& a,
          const Matrix& b, Real beta, Matrix* c, ThreadPool* pool) {
  const Index m = trans_a ? a.cols() : a.rows();
  const Index k = trans_a ? a.rows() : a.cols();
  const Index kb = trans_b ? b.cols() : b.rows();
  const Index n = trans_b ? b.rows() : b.cols();
  FIRZEN_CHECK_EQ(k, kb);
  if (beta == 0.0) {
    // Every element is overwritten by the store loop below, so skip the
    // zero-fill Resize() would perform.
    c->ResizeUninitialized(m, n);
  } else {
    FIRZEN_CHECK_EQ(c->rows(), m);
    FIRZEN_CHECK_EQ(c->cols(), n);
  }
  if (m == 0 || n == 0) return;

  // Every layout runs the one register tile, reading both operands where
  // they lie: a trans_a operand through ElemA's column strides, B either
  // as packed B^T slivers (trans_b) or in place.
  const Index lda = a.cols();
  if (trans_b) {
    if (trans_a) {
      GemmDispatchBT<true>(m, k, n, alpha, a.data(), lda, b.data(), beta,
                           c->data(), /*ldc=*/n, pool);
    } else {
      GemmDispatchBT<false>(m, k, n, alpha, a.data(), lda, b.data(), beta,
                            c->data(), /*ldc=*/n, pool);
    }
  } else if (trans_a) {
    GemmDispatchNN<true>(m, k, n, alpha, a.data(), lda, b.data(), beta,
                         c->data(), pool);
  } else {
    GemmDispatchNN<false>(m, k, n, alpha, a.data(), lda, b.data(), beta,
                          c->data(), pool);
  }
}

void GemmBT(const Matrix& a, const Real* b_rows, Index n, MatrixView out,
            ThreadPool* pool) {
  FIRZEN_CHECK_GE(n, 0);
  FIRZEN_CHECK_EQ(out.rows(), a.rows());
  FIRZEN_CHECK_EQ(out.cols(), n);
  if (a.rows() == 0 || n == 0) return;
  GemmDispatchBT<false>(a.rows(), a.cols(), n, /*alpha=*/1.0, a.data(),
                        /*lda=*/a.cols(), b_rows, /*beta=*/0.0, out.data(),
                        out.stride(), pool);
}

}  // namespace firzen
