// Unit tests for the utility layer: RNG, Status/Result, thread pool, env,
// table printer, logging.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/util/env.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"
#include "src/util/table_printer.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Real u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  std::set<Index> seen;
  for (int i = 0; i < 2000; ++i) {
    const Index v = rng.UniformInt(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values reachable
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  const int n = 20000;
  Real sum = 0.0;
  Real sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const Real x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  for (Index k : {1, 5, 50, 100}) {
    const auto sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(static_cast<Index>(sample.size()), k);
    std::set<Index> unique(sample.begin(), sample.end());
    EXPECT_EQ(static_cast<Index>(unique.size()), k);
    for (Index v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 100);
    }
  }
}

TEST(RngTest, SampleDiscreteRespectsZeroWeights) {
  Rng rng(17);
  std::vector<Real> weights{0.0, 1.0, 0.0, 3.0};
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    ++counts[rng.SampleDiscrete(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_GT(counts[3], counts[1]);  // 3x the weight
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng b = a.Fork();
  // The fork should not replay the parent's stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(StatusTest, OkAndErrorStates) {
  EXPECT_TRUE(Status::OK().ok());
  const Status err = Status::InvalidArgument("bad k");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(err.ToString().find("bad k"), std::string::npos);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad(Status::InvalidArgument("missing"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, 1000, [&](Index begin, Index end) {
    for (Index i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  }, /*min_shard_size=*/10);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, InlineWhenPoolNull) {
  int count = 0;
  ParallelFor(nullptr, 50, [&](Index begin, Index end) {
    count += static_cast<int>(end - begin);
  });
  EXPECT_EQ(count, 50);
}

// A shard that throws on a pool worker must not terminate the process:
// the caller's catch sees the exception after every other shard has
// finished, and the same pool serves the next call. (The calling thread
// runs the first shard; the last one runs on a worker.)
TEST(ThreadPoolTest, ParallelForRethrowsWorkerExceptionOnCaller) {
  ThreadPool pool(4);
  std::atomic<bool> threw_on_worker{false};
  std::vector<std::atomic<int>> hits(400);
  bool caught = false;
  try {
    ParallelFor(&pool, 400, [&](Index begin, Index end) {
      for (Index i = begin; i < end; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
      }
      if (end == 400) {
        threw_on_worker = ThreadPool::InWorker();
        throw std::runtime_error("shard failed");
      }
    }, /*min_shard_size=*/100);
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "shard failed");
  }
  EXPECT_TRUE(caught);
  EXPECT_TRUE(threw_on_worker.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  std::atomic<int> covered{0};
  ParallelFor(&pool, 400, [&](Index begin, Index end) {
    covered.fetch_add(static_cast<int>(end - begin));
  }, /*min_shard_size=*/100);
  EXPECT_EQ(covered.load(), 400);
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 32);
}

TEST(EnvTest, DefaultsWhenUnset) {
  EXPECT_EQ(GetEnvString("FIRZEN_NO_SUCH_VAR_XYZ", "fallback"), "fallback");
  EXPECT_EQ(GetEnvInt("FIRZEN_NO_SUCH_VAR_XYZ", 5), 5);
  EXPECT_FALSE(GetEnvBool("FIRZEN_NO_SUCH_VAR_XYZ", false));
}

TEST(EnvTest, ParsesSetValues) {
  setenv("FIRZEN_TEST_VAR", "12", 1);
  EXPECT_EQ(GetEnvInt("FIRZEN_TEST_VAR", 0), 12);
  setenv("FIRZEN_TEST_VAR", "true", 1);
  EXPECT_TRUE(GetEnvBool("FIRZEN_TEST_VAR", false));
  unsetenv("FIRZEN_TEST_VAR");
}

TEST(TablePrinterTest, AlignsAndRendersAllCells) {
  TablePrinter table({"name", "value"});
  table.BeginRow();
  table.AddCell("alpha");
  table.AddCell(3.14159, 2);
  table.BeginRow();
  table.AddCell("b");
  table.AddCell("1");
  const std::string out = table.ToString();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("| b"), std::string::npos);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch watch;
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  EXPECT_GE(watch.ElapsedMillis(), 0.0);
}

TEST(FormatRealTest, RespectsPrecision) {
  EXPECT_EQ(FormatReal(1.23456, 2), "1.23");
  EXPECT_EQ(FormatReal(1.0, 0), "1");
}

}  // namespace
}  // namespace firzen
