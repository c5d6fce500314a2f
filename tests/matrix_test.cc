// Dense matrix kernel tests: Gemm against a naive reference for every
// transpose combination (parameterized), plus the small BLAS-1 helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/tensor/matrix.h"
#include "src/util/rng.h"

namespace firzen {
namespace {

Matrix RandomMatrix(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.FillNormal(&rng, 1.0);
  return m;
}

Matrix NaiveGemm(bool trans_a, bool trans_b, const Matrix& a,
                 const Matrix& b) {
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
      c(i, j) = acc;
    }
  }
  return c;
}

// (trans_a, trans_b, m, k, n)
using GemmCase = std::tuple<bool, bool, Index, Index, Index>;

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [trans_a, trans_b, m, k, n] = GetParam();
  const Matrix a = trans_a ? RandomMatrix(k, m, 1) : RandomMatrix(m, k, 1);
  const Matrix b = trans_b ? RandomMatrix(n, k, 2) : RandomMatrix(k, n, 2);
  Matrix c;
  Gemm(trans_a, trans_b, 1.0, a, b, 0.0, &c);
  const Matrix expected = NaiveGemm(trans_a, trans_b, a, b);
  ASSERT_EQ(c.rows(), expected.rows());
  ASSERT_EQ(c.cols(), expected.cols());
  for (Index i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], expected.data()[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposeCombos, GemmTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values<Index>(1, 3, 7),
                       ::testing::Values<Index>(1, 5),
                       ::testing::Values<Index>(2, 6)));

TEST(GemmTest, AccumulatesWithBeta) {
  const Matrix a = RandomMatrix(3, 4, 5);
  const Matrix b = RandomMatrix(4, 2, 6);
  Matrix c = RandomMatrix(3, 2, 7);
  const Matrix c0 = c;
  Gemm(false, false, 2.0, a, b, 1.0, &c);
  const Matrix ab = NaiveGemm(false, false, a, b);
  for (Index i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], c0.data()[i] + 2.0 * ab.data()[i], 1e-10);
  }
}

TEST(MatrixTest, AxpyScale) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = 2;
  Matrix b(2, 2, 1.0);
  a.Axpy(1.0, b);
  EXPECT_EQ(a(0, 0), 2.0);
  a.Axpy(0.5, b);
  EXPECT_EQ(a(0, 0), 2.5);
  a.Scale(2.0);
  EXPECT_EQ(a(0, 0), 5.0);
}

TEST(MatrixTest, Norms) {
  Matrix a(1, 3);
  a(0, 0) = 3;
  a(0, 1) = 4;
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(a.RowNorm(0), 5.0);
}

TEST(MatrixTest, TransposedRoundTrip) {
  const Matrix a = RandomMatrix(3, 5, 8);
  const Matrix att = a.Transposed().Transposed();
  for (Index i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], att.data()[i]);
  }
}

TEST(MatrixTest, ResizeZeroes) {
  Matrix a(2, 2, 3.0);
  a.Resize(3, 3);
  EXPECT_EQ(a.rows(), 3);
  for (Index i = 0; i < a.size(); ++i) EXPECT_EQ(a.data()[i], 0.0);
}

TEST(MatrixTest, FillUniformRange) {
  Matrix a(10, 10);
  Rng rng(3);
  a.FillUniform(&rng, -0.5, 0.5);
  for (Index i = 0; i < a.size(); ++i) {
    EXPECT_GE(a.data()[i], -0.5);
    EXPECT_LT(a.data()[i], 0.5);
  }
}

}  // namespace
}  // namespace firzen
