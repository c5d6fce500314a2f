// Autograd engine verification: every differentiable op is checked against
// central-difference numerical gradients (the canonical way to validate a
// reverse-mode engine), plus graph-mechanics tests (accumulation, detach,
// reuse across steps) and the tape's write-once contract (first-write
// gradients, contribution order, released interior gradients).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "src/tensor/csr.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/init.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

using namespace ops;  // NOLINT(build/namespaces)

Tensor SmallVariable(Index rows, Index cols, uint64_t seed,
                     Real scale = 1.0) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillNormal(&rng, scale);
  return Tensor::Variable(std::move(m));
}

struct OpCase {
  std::string name;
  // Returns (params, loss builder).
  std::function<std::pair<std::vector<Tensor>, std::function<Tensor()>>()>
      make;
};

OpCase MakeUnaryCase(const std::string& name,
                     std::function<Tensor(const Tensor&)> op,
                     Real scale = 1.0) {
  return {name, [op, scale, name] {
            Tensor x = SmallVariable(4, 3, 11 + name.size(), scale);
            auto build = [x, op] { return ReduceSum(op(x)); };
            return std::make_pair(std::vector<Tensor>{x}, std::function<Tensor()>(build));
          }};
}

class OpGradTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradTest, NumericalGradientMatches) {
  auto [params, build] = GetParam().make();
  const GradCheckResult result = CheckGradients(params, build, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << GetParam().name
                         << " max_abs=" << result.max_abs_error
                         << " max_rel=" << result.max_rel_error;
}

std::vector<OpCase> AllOpCases() {
  std::vector<OpCase> cases;
  cases.push_back(MakeUnaryCase("sigmoid", [](const Tensor& x) {
    return Sigmoid(x);
  }));
  cases.push_back(MakeUnaryCase("tanh", [](const Tensor& x) {
    return Tanh(x);
  }));
  cases.push_back(MakeUnaryCase("leaky_relu", [](const Tensor& x) {
    return LeakyRelu(x, 0.2);
  }));
  cases.push_back(MakeUnaryCase("exp", [](const Tensor& x) {
    return Exp(x);
  }, 0.5));
  cases.push_back(MakeUnaryCase("softplus", [](const Tensor& x) {
    return Softplus(x);
  }));
  cases.push_back(MakeUnaryCase("log_sigmoid", [](const Tensor& x) {
    return LogSigmoid(x);
  }));
  cases.push_back(MakeUnaryCase("row_softmax_weighted", [](const Tensor& x) {
    // Weight the softmax so the gradient is not identically zero.
    Tensor w = Tensor::Constant([&] {
      Matrix m(x.rows(), x.cols());
      Rng rng(5);
      m.FillNormal(&rng, 1.0);
      return m;
    }());
    return Mul(RowSoftmax(x), w);
  }));
  cases.push_back(MakeUnaryCase("row_l2_normalize", [](const Tensor& x) {
    Tensor w = Tensor::Constant([&] {
      Matrix m(x.rows(), x.cols());
      Rng rng(6);
      m.FillNormal(&rng, 1.0);
      return m;
    }());
    return Mul(RowL2Normalize(x), w);
  }));
  cases.push_back(MakeUnaryCase("reshape", [](const Tensor& x) {
    return Exp(Reshape(x, x.cols(), x.rows()));
  }, 0.3));
  cases.push_back(MakeUnaryCase("slice_rows", [](const Tensor& x) {
    return Exp(SliceRows(x, 1, 3));
  }, 0.3));
  cases.push_back(MakeUnaryCase("slice_cols", [](const Tensor& x) {
    return Exp(SliceCols(x, 1, 3));
  }, 0.3));
  cases.push_back(MakeUnaryCase("sum_groups", [](const Tensor& x) {
    return Exp(SumGroups(x, 2));
  }, 0.3));
  cases.push_back(MakeUnaryCase("repeat_interleave", [](const Tensor& x) {
    return Exp(RepeatInterleaveRows(x, 3));
  }, 0.3));
  cases.push_back(MakeUnaryCase("row_sum", [](const Tensor& x) {
    return Exp(RowSum(x));
  }, 0.3));
  cases.push_back(MakeUnaryCase("col_sum", [](const Tensor& x) {
    return Exp(ColSum(x));
  }, 0.3));
  cases.push_back(MakeUnaryCase("col_sum_exp", [](const Tensor& x) {
    return Log(ColSumExp(x));
  }));
  cases.push_back(MakeUnaryCase("sum_squares", [](const Tensor& x) {
    return SumSquares(x);
  }));
  cases.push_back(MakeUnaryCase("log", [](const Tensor& x) {
    return Log(AddScalar(Mul(x, x), 1.0));
  }));

  cases.push_back({"add_sub_mul_div", [] {
    Tensor a = SmallVariable(3, 4, 21);
    Tensor b = SmallVariable(3, 4, 22);
    auto build = [a, b] {
      Tensor denom = AddScalar(Mul(b, b), 1.0);
      return ReduceSum(Add(Sub(Mul(a, b), a), Div(a, denom)));
    };
    return std::make_pair(std::vector<Tensor>{a, b},
                          std::function<Tensor()>(build));
  }});

  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      cases.push_back(
          {"matmul_" + std::to_string(trans_a) + std::to_string(trans_b),
           [trans_a, trans_b] {
             Tensor a = trans_a ? SmallVariable(4, 3, 31)
                                : SmallVariable(3, 4, 31);
             Tensor b = trans_b ? SmallVariable(2, 4, 32)
                                : SmallVariable(4, 2, 32);
             auto build = [a, b, trans_a, trans_b] {
               return ReduceSum(Tanh(MatMul(a, b, trans_a, trans_b)));
             };
             return std::make_pair(std::vector<Tensor>{a, b},
                                   std::function<Tensor()>(build));
           }});
    }
  }

  cases.push_back({"spmm", [] {
    auto graph = std::make_shared<CsrMatrix>(CsrMatrix::FromCoo(
        4, 4, {{0, 1, 0.5}, {1, 0, 0.5}, {1, 2, 0.3}, {3, 3, 1.0}}));
    Tensor x = SmallVariable(4, 3, 41);
    auto build = [graph, x] { return ReduceSum(Tanh(SpMM(graph, x))); };
    return std::make_pair(std::vector<Tensor>{x},
                          std::function<Tensor()>(build));
  }});

  cases.push_back({"gather_rows_with_repeats", [] {
    Tensor x = SmallVariable(5, 3, 51);
    std::vector<Index> idx{0, 2, 2, 4, 1};
    auto build = [x, idx] { return ReduceSum(Tanh(GatherRows(x, idx))); };
    return std::make_pair(std::vector<Tensor>{x},
                          std::function<Tensor()>(build));
  }});

  cases.push_back({"row_scale", [] {
    Tensor x = SmallVariable(4, 3, 61);
    Tensor w = SmallVariable(4, 1, 62);
    auto build = [x, w] { return ReduceSum(Tanh(RowScale(x, w))); };
    return std::make_pair(std::vector<Tensor>{x, w},
                          std::function<Tensor()>(build));
  }});

  cases.push_back({"add_row_broadcast", [] {
    Tensor x = SmallVariable(4, 3, 71);
    Tensor b = SmallVariable(1, 3, 72);
    auto build = [x, b] { return ReduceSum(Tanh(AddRowBroadcast(x, b))); };
    return std::make_pair(std::vector<Tensor>{x, b},
                          std::function<Tensor()>(build));
  }});

  cases.push_back({"row_dot", [] {
    Tensor a = SmallVariable(4, 3, 81);
    Tensor b = SmallVariable(4, 3, 82);
    auto build = [a, b] { return ReduceSum(Tanh(RowDot(a, b))); };
    return std::make_pair(std::vector<Tensor>{a, b},
                          std::function<Tensor()>(build));
  }});

  cases.push_back({"concat_cols", [] {
    Tensor a = SmallVariable(4, 2, 91);
    Tensor b = SmallVariable(4, 3, 92);
    auto build = [a, b] {
      return ReduceSum(Tanh(ConcatCols({a, b})));
    };
    return std::make_pair(std::vector<Tensor>{a, b},
                          std::function<Tensor()>(build));
  }});

  cases.push_back({"batch_norm", [] {
    Tensor x = SmallVariable(6, 3, 95);
    Tensor gamma = Tensor::Variable(Matrix(1, 3, 1.0));
    Tensor beta = Tensor::Variable(Matrix(1, 3, 0.1));
    auto build = [x, gamma, beta] {
      Tensor w = Tensor::Constant([&] {
        Matrix m(6, 3);
        Rng rng(96);
        m.FillNormal(&rng, 1.0);
        return m;
      }());
      return ReduceSum(Mul(BatchNorm(x, gamma, beta), w));
    };
    return std::make_pair(std::vector<Tensor>{x, gamma, beta},
                          std::function<Tensor()>(build));
  }});

  cases.push_back({"scale_add_scalar_addn", [] {
    Tensor a = SmallVariable(3, 3, 97);
    Tensor b = SmallVariable(3, 3, 98);
    auto build = [a, b] {
      return ReduceMean(AddN({Scale(a, 2.0), AddScalar(b, 1.0), a}));
    };
    return std::make_pair(std::vector<Tensor>{a, b},
                          std::function<Tensor()>(build));
  }});

  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest, ::testing::ValuesIn(AllOpCases()),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(AutogradTest, GradientAccumulatesAcrossBackwardCalls) {
  Tensor x = Tensor::Variable(Matrix(1, 1, 2.0));
  Tensor loss1 = SumSquares(x);  // d/dx = 2x = 4
  Backward(loss1);
  EXPECT_NEAR(x.grad()(0, 0), 4.0, 1e-12);
  Tensor loss2 = SumSquares(x);
  Backward(loss2);  // accumulates
  EXPECT_NEAR(x.grad()(0, 0), 8.0, 1e-12);
  x.ZeroGrad();
  EXPECT_EQ(x.grad()(0, 0), 0.0);
}

TEST(AutogradTest, DetachBlocksGradient) {
  Tensor x = Tensor::Variable(Matrix(2, 2, 1.5));
  Tensor loss = ReduceSum(Mul(Detach(x), x));
  Backward(loss);
  // d/dx (c * x) = c = 1.5 (no second pathway through the detached copy).
  EXPECT_NEAR(x.grad()(0, 0), 1.5, 1e-12);
}

TEST(AutogradTest, ConstantsNeverGetGradients) {
  Tensor c = Tensor::Constant(Matrix(2, 2, 1.0));
  Tensor x = Tensor::Variable(Matrix(2, 2, 1.0));
  Tensor loss = ReduceSum(Mul(c, x));
  Backward(loss);
  EXPECT_TRUE(c.grad().empty());
  EXPECT_FALSE(x.grad().empty());
}

TEST(AutogradTest, DiamondGraphGradientCorrect) {
  // loss = sum((x + x) * x) = sum(2 x^2) -> d/dx = 4x.
  Tensor x = Tensor::Variable(Matrix(1, 1, 3.0));
  Tensor loss = ReduceSum(Mul(Add(x, x), x));
  Backward(loss);
  EXPECT_NEAR(x.grad()(0, 0), 12.0, 1e-12);
}

TEST(AutogradTest, DropoutScalesByKeepProbability) {
  Rng rng(1);
  Tensor x = Tensor::Variable(Matrix(200, 10, 1.0));
  Tensor y = Dropout(x, 0.5, &rng);
  // Inverted dropout preserves the mean.
  Real mean = 0.0;
  for (Index i = 0; i < y.value().size(); ++i) mean += y.value().data()[i];
  mean /= y.value().size();
  EXPECT_NEAR(mean, 1.0, 0.1);
  // Gradient flows only through kept entries, scaled by 1/keep.
  Backward(ReduceSum(y));
  for (Index i = 0; i < x.grad().size(); ++i) {
    const Real g = x.grad().data()[i];
    EXPECT_TRUE(g == 0.0 || std::abs(g - 2.0) < 1e-12);
  }
}

// Bit patterns, so exact comparisons also tell -0.0 from +0.0.
std::vector<uint64_t> Bits(const Matrix& m) {
  std::vector<uint64_t> bits(static_cast<size_t>(m.size()));
  if (!bits.empty()) std::memcpy(bits.data(), m.data(), bits.size() * 8);
  return bits;
}

// Runs `fn` with every ParallelFor inside it inline, as a one-thread pool
// would: a caller running its own shard runs nested sections serially.
void RunSerial(const std::function<void()>& fn) {
  ThreadPool pool(2);
  ParallelFor(
      &pool, 2, [&](Index begin, Index) { if (begin == 0) fn(); }, 1);
}

TEST(TapeContractTest, NegativeZeroFirstContributionStoresPositiveZero) {
  // d/dx sum(x * z) = z = -0.0, the first contribution x's gradient sees.
  Tensor x = Tensor::Variable(Matrix(1, 3, 2.0));
  const Tensor z = Tensor::Constant(Matrix(1, 3, -0.0));
  Backward(ReduceSum(Mul(x, z)));
  for (Index c = 0; c < 3; ++c) {
    EXPECT_EQ(x.grad()(0, c), 0.0);
    EXPECT_FALSE(std::signbit(x.grad()(0, c))) << c;
  }
  // Accumulating into a zeroed leaf gradient gives the same +0.0.
  x.ZeroGrad();
  Backward(ReduceSum(Mul(x, z)));
  for (Index c = 0; c < 3; ++c) EXPECT_FALSE(std::signbit(x.grad()(0, c)));

  // MatMul's first contribution runs Gemm with beta = 0: dA = 1 * w^T, each
  // cell a chain from +0.0 over a -0.0 product.
  Tensor a = Tensor::Variable(Matrix(2, 1, 1.0));
  const Tensor w = Tensor::Constant(Matrix(1, 3, -0.0));
  Backward(ReduceSum(MatMul(a, w)));
  for (Index r = 0; r < 2; ++r) {
    EXPECT_FALSE(std::signbit(a.grad()(r, 0))) << r;
  }
}

TEST(TapeContractTest, ContributionsSumInReverseTopologicalOrder) {
  // h has three children. The tape walks them last-created first, so h's
  // gradient is ((0 + -1) + 1e-16) + 1, which is not the creation-order
  // sum ((0 + 1) + 1e-16) + -1 = 0.
  Tensor x = Tensor::Variable(Matrix(1, 1, 1.0));
  const Tensor h = Scale(x, 1.0);
  Backward(ReduceSum(
      AddN({Scale(h, 1.0), Scale(h, 1e-16), Scale(h, -1.0)})));
  const Real reverse = ((0.0 + -1.0) + 1e-16) + 1.0;
  const Real creation = ((0.0 + 1.0) + 1e-16) + -1.0;
  ASSERT_NE(reverse, creation);
  EXPECT_EQ(x.grad()(0, 0), reverse);
}

TEST(TapeContractTest, InteriorGradientsAreReleasedAfterBackward) {
  Tensor x = Tensor::Variable(Matrix(3, 2, 0.5));
  const Tensor h = Tanh(x);
  const Tensor y = Mul(h, h);
  const Tensor loss = ReduceSum(y);
  Backward(loss);
  EXPECT_TRUE(h.grad().empty());
  EXPECT_TRUE(y.grad().empty());
  EXPECT_TRUE(loss.grad().empty());
  EXPECT_EQ(x.grad().rows(), 3);
  EXPECT_EQ(x.grad().cols(), 2);
}

TEST(TapeContractTest, SharedSubgraphBackwardedTwiceGivesFreshGraphBits) {
  // Two losses share h. Backward over each must give the leaves exactly
  // what two separately built graphs give: no interior gradient of the
  // first pass may leak into the second.
  const auto grads = [](bool shared) {
    Tensor x = SmallVariable(5, 4, 101);
    Tensor w = SmallVariable(4, 3, 102);
    const auto h = [&] { return Tanh(MatMul(x, w)); };
    const Tensor h1 = h();
    Backward(ReduceSum(h1));
    Backward(SumSquares(shared ? h1 : h()));
    return std::make_pair(Bits(x.grad()), Bits(w.grad()));
  };
  EXPECT_EQ(grads(true), grads(false));

  // One loss backwarded twice doubles its leaf gradients exactly.
  Tensor x = SmallVariable(5, 4, 103);
  const Tensor loss = SumSquares(Tanh(x));
  Backward(loss);
  Matrix twice = x.grad();
  twice.Scale(2.0);
  Backward(loss);
  EXPECT_EQ(Bits(x.grad()), Bits(twice));
}

TEST(TapeContractTest, ColSumExpIsBitEqualToColSumOfExpSerialAndPooled) {
  // Sized so the pooled run shards ColSumExp's columns, its backward's
  // rows and the unfused Exp's elements.
  const auto run = [](bool fused) {
    Tensor x = SmallVariable(300, 200, 104);
    const Tensor w = Tensor::Constant(SmallVariable(1, 200, 105).value());
    const Tensor sums = fused ? ColSumExp(x) : ColSum(Exp(x));
    Backward(ReduceSum(Mul(sums, w)));
    return std::make_pair(Bits(sums.value()), Bits(x.grad()));
  };
  std::pair<std::vector<uint64_t>, std::vector<uint64_t>> fused_serial;
  std::pair<std::vector<uint64_t>, std::vector<uint64_t>> unfused_serial;
  RunSerial([&] {
    fused_serial = run(true);
    unfused_serial = run(false);
  });
  EXPECT_EQ(fused_serial, unfused_serial);
  EXPECT_EQ(run(true), unfused_serial);
  EXPECT_EQ(run(false), unfused_serial);
}

TEST(AutogradTest, XavierInitBounds) {
  Rng rng(5);
  const Matrix m = XavierUniform(50, 30, &rng);
  const Real limit = std::sqrt(6.0 / 80.0);
  for (Index i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), limit);
  }
}

}  // namespace
}  // namespace firzen
