// Parity tests for the parallel blocked kernel layer: Gemm, SpMM/SpMMT and
// heap Top-K against naive single-threaded references, across odd shapes
// (1xN, Nx1, non-multiple-of-tile dims, empty sparse rows) and pool sizes
// {1, 4}. The blocked kernels accumulate every output element as a straight
// k-ordered sum, so agreement is expected to be bit-identical; the asserts
// below use exact equality where the reference follows the same summation
// order and a tight tolerance elsewhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/knn_graph.h"
#include "src/models/scorer.h"
#include "src/tensor/csr.h"
#include "src/tensor/matrix.h"
#include "src/tensor/ops.h"
#include "src/util/ranking.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

Matrix RandomMatrix(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(&rng, 1.0);
  return m;
}

Matrix NaiveGemm(bool trans_a, bool trans_b, Real alpha, const Matrix& a,
                 const Matrix& b, Real beta, const Matrix& c_in) {
  const Index m = trans_a ? a.cols() : a.rows();
  const Index k = trans_a ? a.rows() : a.cols();
  const Index n = trans_b ? b.rows() : b.cols();
  Matrix c(m, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      Real acc = 0.0;
      for (Index p = 0; p < k; ++p) {
        const Real av = trans_a ? a(p, i) : a(i, p);
        const Real bv = trans_b ? b(j, p) : b(p, j);
        acc += av * bv;
      }
      c(i, j) = alpha * acc + (beta == 0.0 ? 0.0 : beta * c_in(i, j));
    }
  }
  return c;
}

// Shapes chosen to exercise every kernel edge: vectors, single elements,
// dims straddling the 4-row micro-tile, the small-m dot path for trans_b,
// and n past the 512-wide cache block (so multi-block column offsets are
// covered).
struct GemmShape {
  Index m, k, n;
};

const GemmShape kGemmShapes[] = {
    {1, 1, 1},    {1, 5, 1},      {5, 1, 7},    {1, 17, 9},   {4, 8, 8},
    {5, 9, 17},   {64, 33, 7},    {13, 64, 65}, {31, 7, 258}, {129, 16, 300},
    {9, 37, 1300}, {33, 24, 1025},
};

TEST(KernelParityTest, GemmMatchesNaiveAcrossShapesAndPools) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (const GemmShape& shape : kGemmShapes) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        const Matrix a = trans_a ? RandomMatrix(shape.k, shape.m, 1)
                                 : RandomMatrix(shape.m, shape.k, 1);
        const Matrix b = trans_b ? RandomMatrix(shape.n, shape.k, 2)
                                 : RandomMatrix(shape.k, shape.n, 2);
        const Matrix expected = NaiveGemm(trans_a, trans_b, 1.0, a, b, 0.0,
                                          Matrix());
        Matrix got1;
        Gemm(trans_a, trans_b, 1.0, a, b, 0.0, &got1, &pool1);
        Matrix got4;
        Gemm(trans_a, trans_b, 1.0, a, b, 0.0, &got4, &pool4);
        ASSERT_EQ(got1.rows(), shape.m);
        ASSERT_EQ(got1.cols(), shape.n);
        for (Index i = 0; i < shape.m; ++i) {
          for (Index j = 0; j < shape.n; ++j) {
            ASSERT_NEAR(got1(i, j), expected(i, j), 1e-9)
                << "shape=(" << shape.m << "," << shape.k << "," << shape.n
                << ") trans_a=" << trans_a << " trans_b=" << trans_b;
            // Pool size must not change a single bit.
            ASSERT_EQ(got1(i, j), got4(i, j));
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, GemmAlphaBetaAccumulateMatchesNaive) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  // m values on both sides of the small-m trans_b dot-path cutoff, so the
  // beta-accumulate branch of BOTH kernels is covered (MatMul's backward
  // runs trans_b with beta == 1).
  for (const Index m : {7, 40}) {
    for (const bool trans_b : {false, true}) {
      const Matrix a = RandomMatrix(m, 13, 3);
      const Matrix b = trans_b ? RandomMatrix(19, 13, 4)
                               : RandomMatrix(13, 19, 4);
      const Matrix c0 = RandomMatrix(m, 19, 5);
      for (const Real alpha : {1.0, -0.5, 2.0}) {
        for (const Real beta : {1.0, 0.25}) {
          const Matrix expected =
              NaiveGemm(false, trans_b, alpha, a, b, beta, c0);
          Matrix got1 = c0;
          Gemm(false, trans_b, alpha, a, b, beta, &got1, &pool1);
          Matrix got4 = c0;
          Gemm(false, trans_b, alpha, a, b, beta, &got4, &pool4);
          for (Index i = 0; i < got1.rows(); ++i) {
            for (Index j = 0; j < got1.cols(); ++j) {
              ASSERT_NEAR(got1(i, j), expected(i, j), 1e-9)
                  << "m=" << m << " trans_b=" << trans_b
                  << " alpha=" << alpha << " beta=" << beta;
              ASSERT_EQ(got1(i, j), got4(i, j));
            }
          }
        }
      }
    }
  }
}

// Batch-size invariance at the tensor layer: C(i, j) of A * B^T must not
// depend on how many rows A has. Every m below is sliced from the same
// 130-row A, so row r of every result must match row r of the 130-row
// reference bit-for-bit — across the lane-dot path (m <= 8), the
// column-sharded register-tile path (m <= 32), the row-sharded one, ragged
// row tiles (m % 4 != 0), and both pool sizes. This is the kernel half of
// the admission-batching determinism contract (the serving half lives in
// scorer_parity_test and serving_admission_test).
TEST(KernelParityTest, GemmTransBIsBatchSizeInvariant) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const Index k = 37;   // odd: exercises vector tails in every path
  const Index n = 1300; // crosses two 512-column panels plus a ragged one
  const Matrix a_full = RandomMatrix(130, k, 91);
  const Matrix b = RandomMatrix(n, k, 92);
  Matrix want;
  Gemm(false, true, 1.0, a_full, b, 0.0, &want, &pool1);

  for (const Index m : {Index{1}, Index{3}, Index{4}, Index{8}, Index{9},
                        kGemmBTColumnShardMaxRows,
                        kGemmBTColumnShardMaxRows + 1, Index{64}, Index{129}}) {
    Matrix a(m, k);
    for (Index i = 0; i < m; ++i) {
      for (Index p = 0; p < k; ++p) a(i, p) = a_full(i, p);
    }
    for (ThreadPool* pool : {&pool1, &pool4}) {
      Matrix got;
      Gemm(false, true, 1.0, a, b, 0.0, &got, pool);
      for (Index i = 0; i < m; ++i) {
        for (Index j = 0; j < n; ++j) {
          ASSERT_EQ(got(i, j), want(i, j))
              << "m=" << m << " pool=" << pool->num_threads();
        }
      }
      // The zero-copy scoring entry point must hold to the same contract.
      Matrix via_bt(m, n);
      GemmBT(a, b.row(0), n, MatrixView(&via_bt), pool);
      for (Index i = 0; i < via_bt.size(); ++i) {
        ASSERT_EQ(via_bt.data()[i], got.data()[i]) << "m=" << m;
      }
    }
  }
}

TEST(KernelParityTest, GemmBTBlockSlicesMatchFullTransB) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  // m on both sides of the dot-path cutoff; n past one kNc column panel.
  for (const Index m : {1, 7, 40, 130}) {
    const Index k = 24;
    const Index n = 700;
    const Matrix a = RandomMatrix(m, k, 51);
    const Matrix b = RandomMatrix(n, k, 52);  // item-table layout: n x k
    Matrix expected;
    Gemm(false, true, 1.0, a, b, 0.0, &expected, &pool1);

    // Whole-slice view, both pools: bit-identical to Gemm(trans_b).
    for (ThreadPool* pool : {&pool1, &pool4}) {
      Matrix got(m, n);
      GemmBT(a, b.row(0), n, MatrixView(&got), pool);
      for (Index i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got.data()[i], expected.data()[i]) << "m=" << m;
      }
    }

    // Streamed row-slice blocks written through strided column windows of a
    // wider output: the zero-copy ScoreBlock pattern.
    for (const Index block : {Index{1}, Index{13}, Index{512}, n}) {
      Matrix streamed(m, n);
      for (Index begin = 0; begin < n; begin += block) {
        const Index width = std::min(block, n - begin);
        GemmBT(a, b.row(begin), width,
               MatrixView::Columns(&streamed, begin, width), &pool4);
      }
      for (Index i = 0; i < streamed.size(); ++i) {
        ASSERT_EQ(streamed.data()[i], expected.data()[i])
            << "m=" << m << " block=" << block;
      }
    }
  }
}

#ifdef FIRZEN_HAS_HW_FMA
// A fixed oracle for the Gemm kernels. On FMA hardware every cell of Gemm,
// in every layout, and of GemmBT is a p-ordered chain of exactly-rounded
// multiply-adds from +0.0, times alpha, then (beta != 0) one more
// fma(beta, c, .). A scalar std::fma loop computes exactly that, so the
// kernels must match it bit for bit — an independent reference, where the
// tests above mostly compare the kernels with each other.
Real FmaChain(const Real* a, const Real* b, Index k) {
  Real acc = 0.0;
  for (Index p = 0; p < k; ++p) acc = std::fma(a[p], b[p], acc);
  return acc;
}

// Gemm's four layouts over one product: A (m x k) times the transpose of b
// (n x k), with each operand passed as stored or transposed. Every layout
// must then produce the same cells as the scalar FmaChain over a.row(i) and
// b.row(j), whatever path the kernel takes to read them.
struct GemmLayout {
  bool trans_a, trans_b;
};
const GemmLayout kGemmLayouts[] = {
    {false, false}, {true, false}, {false, true}, {true, true}};

void LayoutGemm(const GemmLayout& layout, Real alpha, const Matrix& a,
                const Matrix& at, const Matrix& b, const Matrix& bt,
                Real beta, Matrix* c, ThreadPool* pool) {
  Gemm(layout.trans_a, layout.trans_b, alpha, layout.trans_a ? at : a,
       layout.trans_b ? b : bt, beta, c, pool);
}

std::string LayoutName(const GemmLayout& layout) {
  return std::string("Gemm(") + (layout.trans_a ? "true" : "false") + ", " +
         (layout.trans_b ? "true" : "false") + ")";
}

// Shapes straddle the 4 x 32 register tile and the 512-column panel: n
// below, at and past one sliver and one panel; m across the small-batch
// dot path, the column-sharded and the row-sharded modes.
TEST(KernelParityTest, GemmMatchesScalarFmaOracleExactly) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  uint64_t seed = 500;
  for (const Index n : {1, 31, 32, 33, 511, 513, 1300}) {
    for (const Index m : {1, 3, 4, 5, 8, 9, 33, 130}) {
      for (const Index k : {1, 37, 64}) {
        const Matrix a = RandomMatrix(m, k, ++seed);
        const Matrix b = RandomMatrix(n, k, ++seed);
        const Matrix at = a.Transposed();
        const Matrix bt = b.Transposed();
        for (ThreadPool* pool : {&pool1, &pool4}) {
          Matrix got_bt(m, n);
          GemmBT(a, b.row(0), n, MatrixView(&got_bt), pool);
          for (const GemmLayout& layout : kGemmLayouts) {
            Matrix got;
            LayoutGemm(layout, 1.0, a, at, b, bt, 0.0, &got, pool);
            for (Index i = 0; i < m; ++i) {
              for (Index j = 0; j < n; ++j) {
                const Real want = FmaChain(a.row(i), b.row(j), k);
                ASSERT_EQ(got(i, j), want)
                    << LayoutName(layout) << " m=" << m << " k=" << k
                    << " n=" << n << " i=" << i << " j=" << j
                    << " pool=" << pool->num_threads();
                ASSERT_EQ(got_bt(i, j), want) << "GemmBT m=" << m;
              }
            }
          }
        }
      }
    }
  }
}

// The (m, k, n) products training runs through Gemm, in every layout: the
// Eq. 29 B x B logit product and its gradients at B = 512, d = 32, a long
// inner dimension, and a one-column output. Each with beta = 0 and with
// MatMul's backward accumulate (alpha = beta = 1), where every cell is
// c0 + chain rounded once.
TEST(KernelParityTest, GemmTrainingShapesMatchScalarFmaOracle) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const GemmShape kTrainingShapes[] = {{512, 512, 32}, {32, 1392, 32},
                                       {128, 32, 1}};
  uint64_t seed = 900;
  for (const GemmShape& shape : kTrainingShapes) {
    const Matrix a = RandomMatrix(shape.m, shape.k, ++seed);
    const Matrix b = RandomMatrix(shape.n, shape.k, ++seed);
    const Matrix at = a.Transposed();
    const Matrix bt = b.Transposed();
    const Matrix c0 = RandomMatrix(shape.m, shape.n, ++seed);
    Matrix chain(shape.m, shape.n);
    for (Index i = 0; i < shape.m; ++i) {
      for (Index j = 0; j < shape.n; ++j) {
        chain(i, j) = FmaChain(a.row(i), b.row(j), shape.k);
      }
    }
    for (ThreadPool* pool : {&pool1, &pool4}) {
      for (const GemmLayout& layout : kGemmLayouts) {
        for (const Real beta : {0.0, 1.0}) {
          Matrix got = c0;
          LayoutGemm(layout, 1.0, a, at, b, bt, beta, &got, pool);
          for (Index i = 0; i < shape.m; ++i) {
            for (Index j = 0; j < shape.n; ++j) {
              const Real want =
                  beta == 0.0 ? chain(i, j) : c0(i, j) + chain(i, j);
              ASSERT_EQ(got(i, j), want)
                  << LayoutName(layout) << " (m, k, n)=(" << shape.m << ", "
                  << shape.k << ", " << shape.n << ") beta=" << beta
                  << " i=" << i << " j=" << j
                  << " pool=" << pool->num_threads();
            }
          }
        }
      }
    }
  }
}

// The oracle with alpha/beta scaling in every layout — each cell is
// fma(beta, c, alpha * chain) — and GemmBT writing a strided column window
// of a wider matrix: cells outside the window stay untouched.
TEST(KernelParityTest, GemmBetaAndStridedOutputsMatchFmaOracle) {
  ThreadPool pool4(4);
  const Index k = 37;
  const Index n = 513;
  for (const Index m : {3, 9, 40, 130}) {
    const Matrix a = RandomMatrix(m, k, 600 + static_cast<uint64_t>(m));
    const Matrix b = RandomMatrix(n, k, 700 + static_cast<uint64_t>(m));
    const Matrix c0 = RandomMatrix(m, n, 800 + static_cast<uint64_t>(m));
    const Matrix at = a.Transposed();
    const Matrix bt = b.Transposed();
    for (const GemmLayout& layout : kGemmLayouts) {
      for (const Real alpha : {1.0, -0.5, 3.0}) {
        for (const Real beta : {1.0, 0.25}) {
          Matrix got = c0;
          LayoutGemm(layout, alpha, a, at, b, bt, beta, &got, &pool4);
          for (Index i = 0; i < m; ++i) {
            for (Index j = 0; j < n; ++j) {
              const Real want = std::fma(
                  beta, c0(i, j), alpha * FmaChain(a.row(i), b.row(j), k));
              ASSERT_EQ(got(i, j), want)
                  << LayoutName(layout) << " m=" << m << " alpha=" << alpha
                  << " beta=" << beta << " j=" << j;
            }
          }
        }
      }
    }
    const Real sentinel = -7.25;
    for (const Index begin : {Index{0}, Index{3}, Index{40}}) {
      Matrix wide(m, n + 45, sentinel);
      GemmBT(a, b.row(0), n, MatrixView::Columns(&wide, begin, n), &pool4);
      for (Index i = 0; i < m; ++i) {
        for (Index j = 0; j < wide.cols(); ++j) {
          const bool inside = j >= begin && j < begin + n;
          const Real want =
              inside ? FmaChain(a.row(i), b.row(j - begin), k) : sentinel;
          ASSERT_EQ(wide(i, j), want)
              << "m=" << m << " begin=" << begin << " j=" << j;
        }
      }
    }
  }
}
#endif  // FIRZEN_HAS_HW_FMA

// Sparse fixture with interaction-graph shape quirks: empty rows, a dense
// hub row, duplicate-free random tail.
CsrMatrix RandomSparse(Index rows, Index cols, Index degree, uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (Index r = 0; r < rows; ++r) {
    if (r % 7 == 3) continue;  // empty row
    const Index row_degree = r == 0 ? cols : degree;  // hub row 0
    for (Index d = 0; d < row_degree; ++d) {
      entries.push_back({r, rng.UniformInt(cols), rng.Normal()});
    }
  }
  return CsrMatrix::FromCoo(rows, cols, std::move(entries));
}

Matrix NaiveSpMM(const CsrMatrix& m, const Matrix& x) {
  Matrix y(m.rows(), x.cols());
  for (Index r = 0; r < m.rows(); ++r) {
    for (Index p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p) {
      const Real v = m.values()[static_cast<size_t>(p)];
      const Real* in = x.row(m.col_idx()[static_cast<size_t>(p)]);
      for (Index c = 0; c < x.cols(); ++c) y(r, c) += v * in[c];
    }
  }
  return y;
}

TEST(KernelParityTest, SpMMMatchesNaiveAcrossShapesAndPools) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  struct Shape {
    Index rows, cols, degree, d;
  };
  for (const Shape& s : {Shape{1, 9, 3, 4}, Shape{37, 1, 1, 1},
                         Shape{100, 80, 5, 32}, Shape{513, 200, 7, 3}}) {
    const CsrMatrix graph = RandomSparse(s.rows, s.cols, s.degree, 11);
    const Matrix x = RandomMatrix(s.cols, s.d, 12);
    const Matrix expected = NaiveSpMM(graph, x);
    Matrix got1;
    graph.SpMM(x, &got1, &pool1);
    Matrix got4;
    graph.SpMM(x, &got4, &pool4);
    ASSERT_EQ(got1.rows(), s.rows);
    ASSERT_EQ(got1.cols(), s.d);
    for (Index r = 0; r < s.rows; ++r) {
      for (Index c = 0; c < s.d; ++c) {
        // Same summation order as the reference: exact agreement.
        ASSERT_EQ(got1(r, c), expected(r, c));
        ASSERT_EQ(got1(r, c), got4(r, c));
      }
    }
  }
}

TEST(KernelParityTest, SpMMAccumAndSpMMTMatchDenseReference) {
  ThreadPool pool4(4);
  const CsrMatrix graph = RandomSparse(60, 45, 4, 21);
  const Matrix x = RandomMatrix(45, 8, 22);
  const Matrix xt = RandomMatrix(60, 8, 23);

  Matrix accum = RandomMatrix(60, 8, 24);
  Matrix expected_accum = accum;
  const Matrix prod = NaiveSpMM(graph, x);
  for (Index r = 0; r < 60; ++r) {
    for (Index c = 0; c < 8; ++c) {
      expected_accum(r, c) += 0.5 * prod(r, c);
    }
  }
  graph.SpMMAccum(0.5, x, &accum, &pool4);
  for (Index r = 0; r < 60; ++r) {
    for (Index c = 0; c < 8; ++c) {
      ASSERT_NEAR(accum(r, c), expected_accum(r, c), 1e-12);
    }
  }

  // SpMMT against an explicitly transposed dense reference.
  const Matrix dense = graph.ToDense();
  Matrix expected_t(45, 8);
  for (Index r = 0; r < 60; ++r) {
    for (Index c = 0; c < 45; ++c) {
      for (Index k = 0; k < 8; ++k) {
        expected_t(c, k) += dense(r, c) * xt(r, k);
      }
    }
  }
  Matrix got_t;
  graph.SpMMT(xt, &got_t, &pool4);
  ASSERT_EQ(got_t.rows(), 45);
  ASSERT_EQ(got_t.cols(), 8);
  for (Index r = 0; r < 45; ++r) {
    for (Index c = 0; c < 8; ++c) {
      ASSERT_NEAR(got_t(r, c), expected_t(r, c), 1e-9);
    }
  }
}

TEST(KernelParityTest, TransposedIsSafeUnderConcurrentFirstUse) {
  const CsrMatrix graph = RandomSparse(300, 200, 6, 31);
  std::vector<const CsrMatrix*> seen(8, nullptr);
  std::vector<std::thread> racers;
  for (size_t i = 0; i < seen.size(); ++i) {
    racers.emplace_back([&graph, &seen, i] { seen[i] = &graph.Transposed(); });
  }
  for (std::thread& racer : racers) racer.join();
  for (const CsrMatrix* t : seen) {
    ASSERT_EQ(t, seen[0]);  // one shared instance, no torn initialization
  }
  const Matrix dense = graph.ToDense();
  const CsrMatrix& t = graph.Transposed();
  EXPECT_EQ(t.rows(), 200);
  EXPECT_EQ(t.cols(), 300);
  for (Index r = 0; r < t.rows(); ++r) {
    for (Index p = t.row_ptr()[r]; p < t.row_ptr()[r + 1]; ++p) {
      const Index c = t.col_idx()[static_cast<size_t>(p)];
      EXPECT_EQ(t.values()[static_cast<size_t>(p)], dense(c, r));
    }
  }
}

TEST(KernelParityTest, TopKHeapMatchesFullSort) {
  Rng rng(41);
  for (const Index n : {1, 5, 100, 1000}) {
    for (const Index k : {1, 3, 20, 2000}) {
      std::vector<Real> scores(static_cast<size_t>(n));
      // Coarse quantization forces score ties to exercise the item-id
      // tie-break.
      for (auto& s : scores) s = std::floor(rng.Normal() * 4.0) / 4.0;
      TopKHeap heap(k);
      for (Index i = 0; i < n; ++i) heap.Push(i, scores[static_cast<size_t>(i)]);
      const auto& got = heap.Sorted();

      std::vector<ScoredItem> expected;
      for (Index i = 0; i < n; ++i) {
        expected.push_back({i, scores[static_cast<size_t>(i)]});
      }
      std::sort(expected.begin(), expected.end(),
                [](const ScoredItem& a, const ScoredItem& b) {
                  return a.score != b.score ? a.score > b.score
                                            : a.item < b.item;
                });
      expected.resize(std::min<size_t>(static_cast<size_t>(k),
                                       expected.size()));
      ASSERT_EQ(got.size(), expected.size()) << "n=" << n << " k=" << k;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].item, expected[i].item);
        ASSERT_EQ(got[i].score, expected[i].score);
      }
    }
  }
}

// ResizeUninitialized's overwrite contract: a kernel that sizes its output
// with it must write every element before anything reads it. Each
// destination below starts out NaN at its final size, which
// ResizeUninitialized keeps, so an element the kernel skips survives into
// the check. Sanitizer builds also fill newly grown storage with NaN
// (FIRZEN_NAN_FILL_NEW_STORAGE): that reaches buffers a caller cannot
// pre-fill, such as the kNN similarity panels checked against their
// oracle below, and every other test of the suite.
constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();

bool AnyNaN(const Matrix& m) {
  return std::any_of(m.data(), m.data() + m.size(),
                     [](Real v) { return std::isnan(v); });
}

TEST(OverwriteContractTest, HeldElementsSurviveNewOnesNaNUnderSanitizers) {
  Matrix m;
  m.ResizeUninitialized(3, 5);
  Matrix same(2, 2, 7.0);
  same.ResizeUninitialized(4, 1);  // same element count: contents kept
  for (Index r = 0; r < 4; ++r) EXPECT_EQ(same(r, 0), 7.0);
#ifdef FIRZEN_NAN_FILL_NEW_STORAGE
  for (Index i = 0; i < m.size(); ++i) EXPECT_TRUE(std::isnan(m.data()[i]));
#endif
}

TEST(OverwriteContractTest, GemmBetaZeroWritesEveryCellInAllLayouts) {
  // m = 3 takes the A * B^T dot path, 20 its column-panel path and 70 the
  // row shards; every n leaves a ragged 32-column sliver.
  for (const GemmShape& s : {GemmShape{3, 5, 7}, GemmShape{20, 9, 45},
                             GemmShape{70, 6, 33}}) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        const Matrix a = trans_a ? RandomMatrix(s.k, s.m, 41)
                                 : RandomMatrix(s.m, s.k, 41);
        const Matrix b = trans_b ? RandomMatrix(s.n, s.k, 42)
                                 : RandomMatrix(s.k, s.n, 42);
        Matrix c(s.m, s.n, kNaN);
        Gemm(trans_a, trans_b, 1.0, a, b, 0.0, &c);
        ASSERT_FALSE(AnyNaN(c)) << s.m << "x" << s.n << " " << trans_a
                                << trans_b;
        const Matrix expected =
            NaiveGemm(trans_a, trans_b, 1.0, a, b, 0.0, Matrix());
        for (Index i = 0; i < s.m; ++i) {
          for (Index j = 0; j < s.n; ++j) {
            ASSERT_NEAR(c(i, j), expected(i, j), 1e-12);
          }
        }
      }
    }
  }
}

TEST(OverwriteContractTest, SpMMWritesEveryRowIncludingEmptyOnes) {
  // RandomSparse leaves every seventh row empty (rows 3, 10, ...).
  const CsrMatrix graph = RandomSparse(30, 20, 3, 43);
  const Matrix x = RandomMatrix(20, 5, 44);
  Matrix y(30, 5, kNaN);
  graph.SpMM(x, &y);
  ASSERT_FALSE(AnyNaN(y));
  EXPECT_EQ(y(3, 0), 0.0);
  const Matrix expected = NaiveSpMM(graph, x);
  for (Index i = 0; i < y.size(); ++i) {
    ASSERT_EQ(y.data()[i], expected.data()[i]);
  }
  // The transpose runs the same kernel over the cached transposed matrix.
  Matrix yt(20, 5, kNaN);
  graph.SpMMT(RandomMatrix(30, 5, 45), &yt);
  ASSERT_FALSE(AnyNaN(yt));
}

TEST(OverwriteContractTest, ReshapeRelabelsTheCopiedBuffer) {
  const Tensor x = Tensor::Constant(RandomMatrix(4, 6, 46));
  const Tensor y = ops::Reshape(x, 3, 8);
  ASSERT_EQ(y.rows(), 3);
  ASSERT_EQ(y.cols(), 8);
  for (Index i = 0; i < 24; ++i) {
    ASSERT_EQ(y.value().data()[i], x.value().data()[i]);
  }
}

TEST(OverwriteContractTest, ScorerGathersAndPanelsOverwriteEveryCell) {
  const Matrix users = RandomMatrix(10, 8, 47);
  const Matrix items = RandomMatrix(50, 8, 48);
  const DotProductScorer scorer(users, items);
  const std::vector<Index> batch{7, 0, 3};
  const auto expect_dots = [&](const Matrix& out,
                               const std::vector<Index>& cols) {
    ASSERT_FALSE(AnyNaN(out));
    for (size_t r = 0; r < batch.size(); ++r) {
      for (size_t j = 0; j < cols.size(); ++j) {
        Real dot = 0.0;
        for (Index c = 0; c < 8; ++c) {
          dot += users(batch[r], c) * items(cols[j], c);
        }
        ASSERT_NEAR(out(static_cast<Index>(r), static_cast<Index>(j)), dot,
                    1e-12);
      }
    }
  };

  ScoringArena arena;
  arena.user_batch = Matrix(3, 8, kNaN);
  Matrix block(3, 50, kNaN);
  scorer.ScoreBlock(batch, {0, 50}, MatrixView(&block), &arena);
  EXPECT_FALSE(AnyNaN(arena.user_batch));
  std::vector<Index> all(50);
  for (Index i = 0; i < 50; ++i) all[static_cast<size_t>(i)] = i;
  expect_dots(block, all);

  ScoringArena cand_arena;
  cand_arena.user_batch = Matrix(3, 8, kNaN);
  cand_arena.candidate_rows = Matrix(4, 8, kNaN);
  const std::vector<Index> candidates{49, 2, 2, 17};
  Matrix cand(3, 4, kNaN);
  scorer.ScoreCandidates(batch, candidates, MatrixView(&cand), &cand_arena);
  EXPECT_FALSE(AnyNaN(cand_arena.candidate_rows));
  expect_dots(cand, candidates);
}

// Cosine similarity of rows a and b, straight from the definition.
Real NaiveCosine(const Matrix& f, Index a, Index b) {
  Real dot = 0.0;
  Real na = 0.0;
  Real nb = 0.0;
  for (Index c = 0; c < f.cols(); ++c) {
    dot += f(a, c) * f(b, c);
    na += f(a, c) * f(a, c);
    nb += f(b, c) * f(b, c);
  }
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

// True when `chosen` holds k of the allowed columns, none outranked by an
// allowed column left out (up to rounding).
bool IsTopK(const Matrix& f, Index a, const std::vector<Index>& chosen,
            const std::vector<bool>& allowed, Index k) {
  if (static_cast<Index>(chosen.size()) != k) return false;
  Real worst = std::numeric_limits<Real>::infinity();
  for (const Index b : chosen) {
    if (b == a || !allowed[static_cast<size_t>(b)]) return false;
    worst = std::min(worst, NaiveCosine(f, a, b));
  }
  for (Index b = 0; b < f.rows(); ++b) {
    if (b == a || !allowed[static_cast<size_t>(b)] ||
        std::count(chosen.begin(), chosen.end(), b) > 0) {
      continue;
    }
    if (NaiveCosine(f, a, b) > worst + 1e-12) return false;
  }
  return true;
}

TEST(OverwriteContractTest, KnnSimilarityPanelsMatchTheCosineOracle) {
  const Matrix features = RandomMatrix(40, 6, 49);
  const Index k = 5;
  KnnGraphOptions options;
  options.top_k = k;
  const KnnLists lists = BuildItemKnnLists(features, options);
  const std::vector<bool> everyone(40, true);
  for (Index a = 0; a < 40; ++a) {
    std::vector<Index> chosen;
    for (const ScoredItem& e : lists.rows[static_cast<size_t>(a)]) {
      ASSERT_FALSE(std::isnan(e.score));
      ASSERT_NEAR(e.score, NaiveCosine(features, a, e.item), 1e-12);
      chosen.push_back(e.item);
    }
    ASSERT_TRUE(IsTopK(features, a, chosen, everyone, k)) << a;
  }

  // The strict-cold expansion scores its cold rows in one more panel.
  std::vector<bool> is_cold(40);
  std::vector<Index> warm;
  for (Index i = 0; i < 40; ++i) {
    is_cold[static_cast<size_t>(i)] = i % 4 == 0;
    if (i % 4 != 0) warm.push_back(i);
  }
  KnnGraphOptions warm_options = options;
  warm_options.candidate_items = warm;
  warm_options.query_items = warm;
  const Matrix adjacency =
      ExpandColdKnnAdjacency(features,
                             BuildItemKnnLists(features, warm_options),
                             is_cold, nullptr)
          .ToDense();
  for (Index a = 0; a < 40; a += 4) {
    std::vector<Index> chosen;
    for (Index b = 0; b < 40; ++b) {
      if (adjacency(a, b) != 0.0) chosen.push_back(b);
    }
    ASSERT_TRUE(IsTopK(features, a, chosen, everyone, k)) << a;
  }
}

TEST(KernelParityTest, GlobalPoolThreadCountHonorsEnv) {
  // Global() itself is constructed once per process, so only the resolver is
  // testable; it is the single source of the pool size.
  setenv("FIRZEN_NUM_THREADS", "3", 1);
  EXPECT_EQ(GlobalPoolThreadCount(), 3);
  setenv("FIRZEN_NUM_THREADS", "not-a-number", 1);
  EXPECT_GE(GlobalPoolThreadCount(), 1);
  unsetenv("FIRZEN_NUM_THREADS");
  EXPECT_GE(GlobalPoolThreadCount(), 1);
}

}  // namespace
}  // namespace firzen
