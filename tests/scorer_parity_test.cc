// ScoreBlock parity suite: for every registered model, block-streamed
// scores must be bit-identical to the legacy full-matrix Score() for any
// block partitioning {1, 7, 64, num_items}, any candidate gather, and user
// batches on both sides of the Gemm small-batch/panel-path boundary. This
// is the contract that lets the evaluator and the serving engine stream
// bounded panels without ever materializing the catalog-wide matrix.
//
// The suite also pins BATCH-SIZE INVARIANCE: a user's scores are
// bit-identical whether they are computed in a batch of 1, of
// kGemmBTColumnShardMaxRows, of kGemmBTColumnShardMaxRows + 1, or of 256 —
// for every registered model. This retired the historical "scores across
// different user-batch sizes may differ in the last ulp" caveat and is
// what makes admission batching (src/eval/admission.h) observably
// side-effect-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/data/synthetic.h"
#include "src/models/registry.h"
#include "src/tensor/matrix.h"
#include "src/util/logging.h"

namespace firzen {
namespace {

const Dataset& ParityDataset() {
  static const Dataset* dataset = [] {
    return new Dataset(GenerateSyntheticDataset(BeautySConfig(0.12)));
  }();
  return *dataset;
}

TrainOptions ParityTrainOptions() {
  TrainOptions options;
  options.embedding_dim = 8;
  options.epochs = 2;
  options.eval_every = 8;  // skip mid-training validation
  options.batch_size = 256;
  options.seed = 321;
  return options;
}

class ScorerParityTest : public ::testing::TestWithParam<ModelInfo> {};

TEST_P(ScorerParityTest, BlockStreamMatchesLegacyScoreBitExact) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = ParityDataset();
  auto model = CreateModel(GetParam().name);
  ASSERT_NE(model, nullptr) << GetParam().name;
  model->Fit(dataset, ParityTrainOptions());

  // 40 users crosses the small-batch dispatch (m <= 32) into the
  // row-sharded panel kernel; 5 users stays on the small-batch side.
  for (const size_t batch_users : {size_t{5}, size_t{40}}) {
    std::vector<Index> users;
    for (size_t u = 0; u < batch_users; ++u) {
      users.push_back(static_cast<Index>(
          (u * 7) % static_cast<size_t>(dataset.num_users)));
    }

    Matrix full;
    model->Score(users, &full);
    ASSERT_EQ(full.rows(), static_cast<Index>(users.size()));
    ASSERT_EQ(full.cols(), dataset.num_items);

    const auto scorer = model->MakeScorer();
    ASSERT_EQ(scorer->num_items(), dataset.num_items);

    // Caller-owned arena: the explicit per-stream scratch contract that
    // makes one scorer shareable across threads. The Score() reference
    // scores through a fresh arena of its own.
    ScoringArena arena;
    for (Index block : {Index{1}, Index{7}, Index{64}, dataset.num_items}) {
      Matrix streamed(static_cast<Index>(users.size()), dataset.num_items);
      for (Index begin = 0; begin < dataset.num_items; begin += block) {
        const ItemBlock item_block{begin,
                                   std::min(begin + block,
                                            dataset.num_items)};
        scorer->ScoreBlock(
            users, item_block,
            MatrixView::Columns(&streamed, item_block.begin,
                                item_block.size()),
            &arena);
      }
      for (Index i = 0; i < full.size(); ++i) {
        ASSERT_EQ(streamed.data()[i], full.data()[i])
            << GetParam().name << " users=" << users.size()
            << " block=" << block << " flat=" << i;
      }
    }

    // Scattered candidate gather matches the same full-matrix columns.
    std::vector<Index> candidates;
    for (Index i = dataset.num_items - 1; i >= 0; i -= 13) {
      candidates.push_back(i);
    }
    Matrix gathered(static_cast<Index>(users.size()),
                    static_cast<Index>(candidates.size()));
    scorer->ScoreCandidates(users, candidates, MatrixView(&gathered), &arena);
    for (size_t r = 0; r < users.size(); ++r) {
      for (size_t j = 0; j < candidates.size(); ++j) {
        ASSERT_EQ(gathered(static_cast<Index>(r), static_cast<Index>(j)),
                  full(static_cast<Index>(r), candidates[j]))
            << GetParam().name << " candidate " << candidates[j];
      }
    }
  }
}

// Batch-size invariance: scoring the same user in batches of different
// sizes — spanning the Gemm lane-dot / column-panel / row-panel dispatch
// boundaries — must agree bit-for-bit row by row. The 256-user batch is
// the reference; every smaller batch is a prefix of the same user list,
// so row r always names the same user.
TEST_P(ScorerParityTest, ScoresAreBatchSizeInvariantBitExact) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = ParityDataset();
  auto model = CreateModel(GetParam().name);
  ASSERT_NE(model, nullptr) << GetParam().name;
  model->Fit(dataset, ParityTrainOptions());
  const auto scorer = model->MakeScorer();

  std::vector<Index> all_users;
  for (size_t u = 0; u < 256; ++u) {
    all_users.push_back(static_cast<Index>(
        (u * 7) % static_cast<size_t>(dataset.num_users)));
  }
  const ItemBlock catalog{0, dataset.num_items};
  Matrix want(256, dataset.num_items);
  {
    ScoringArena arena;
    scorer->ScoreBlock(all_users, catalog, MatrixView(&want), &arena);
  }

  // Candidate gathers must be batch-size-invariant too (the explicit-pool
  // serving path).
  std::vector<Index> candidates;
  for (Index i = 0; i < dataset.num_items; i += 11) candidates.push_back(i);
  Matrix want_candidates(256, static_cast<Index>(candidates.size()));
  {
    ScoringArena arena;
    scorer->ScoreCandidates(all_users, candidates,
                            MatrixView(&want_candidates), &arena);
  }

  for (const Index batch : {Index{1}, kGemmBTColumnShardMaxRows,
                            kGemmBTColumnShardMaxRows + 1, Index{256}}) {
    const std::vector<Index> users(all_users.begin(),
                                   all_users.begin() + batch);
    ScoringArena arena;
    Matrix got(batch, dataset.num_items);
    scorer->ScoreBlock(users, catalog, MatrixView(&got), &arena);
    for (Index r = 0; r < batch; ++r) {
      for (Index i = 0; i < dataset.num_items; ++i) {
        ASSERT_EQ(got(r, i), want(r, i))
            << GetParam().name << " batch=" << batch << " row=" << r
            << " item=" << i;
      }
    }
    Matrix got_candidates(batch, static_cast<Index>(candidates.size()));
    scorer->ScoreCandidates(users, candidates, MatrixView(&got_candidates),
                            &arena);
    for (Index r = 0; r < batch; ++r) {
      for (Index j = 0; j < got_candidates.cols(); ++j) {
        ASSERT_EQ(got_candidates(r, j), want_candidates(r, j))
            << GetParam().name << " batch=" << batch << " row=" << r
            << " candidate=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ScorerParityTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace firzen
