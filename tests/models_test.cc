// Baseline model tests: a parameterized smoke + sanity suite over all
// sixteen registered models (train on a tiny world, score finitely, beat a
// degenerate ranking on warm validation), plus model-specific behaviours
// (VBPR cold pathway, DropoutNet behavior zeroing, CLCRec content fallback,
// KGAT cold reachability), and the contract of the epoch driver every Fit
// runs through (EmbeddingModel::RunEpochs).
#include <gtest/gtest.h>

#include <cmath>

#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/models/clcrec.h"
#include "src/models/dropoutnet.h"
#include "src/models/embedding_model.h"
#include "src/models/kgat.h"
#include "src/models/kgcn.h"
#include "src/models/lightgcn.h"
#include "src/models/registry.h"
#include "src/models/sampler.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

const Dataset& TinyDataset() {
  static const Dataset* dataset = [] {
    auto* d = new Dataset(GenerateSyntheticDataset(BeautySConfig(0.18)));
    return d;
  }();
  return *dataset;
}

TrainOptions TinyTrainOptions() {
  TrainOptions options;
  options.embedding_dim = 16;
  options.epochs = 8;
  options.eval_every = 4;
  options.batch_size = 256;
  options.patience = 10;  // effectively off for smoke tests
  options.seed = 123;
  return options;
}

class ModelSmokeTest : public ::testing::TestWithParam<ModelInfo> {};

TEST_P(ModelSmokeTest, TrainsScoresAndRanksAboveDegenerate) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = TinyDataset();
  auto model = CreateModel(GetParam().name);
  ASSERT_NE(model, nullptr) << GetParam().name;
  EXPECT_EQ(model->Name(), GetParam().name);

  model->Fit(dataset, TinyTrainOptions());

  // Score a few users over all items: finite, correct shape.
  std::vector<Index> users{0, 1, 2, 3};
  Matrix scores;
  model->Score(users, &scores);
  ASSERT_EQ(scores.rows(), 4);
  ASSERT_EQ(scores.cols(), dataset.num_items);
  for (Index i = 0; i < scores.size(); ++i) {
    ASSERT_TRUE(std::isfinite(scores.data()[i])) << GetParam().name;
  }
  // Scores must differentiate items (not a constant ranking).
  Real min_v = scores(0, 0);
  Real max_v = scores(0, 0);
  for (Index i = 0; i < dataset.num_items; ++i) {
    min_v = std::min(min_v, scores(0, i));
    max_v = std::max(max_v, scores(0, i));
  }
  EXPECT_GT(max_v - min_v, 1e-9) << GetParam().name;

  // Warm evaluation runs and produces sane bounded metrics.
  const EvalResult warm =
      EvaluateRanking(dataset, dataset.warm_test, EvalSetting::kWarm,
                      *model->MakeScorer(), {});
  EXPECT_GT(warm.num_users, 0);
  EXPECT_GE(warm.metrics.mrr, 0.0);
  EXPECT_LE(warm.metrics.mrr, 1.0);
  EXPECT_LE(warm.metrics.recall, 1.0);

  // Cold inference path runs (re-mint: scorers snapshot state).
  model->PrepareColdInference(dataset);
  const EvalResult cold =
      EvaluateRanking(dataset, dataset.cold_test, EvalSetting::kCold,
                      *model->MakeScorer(), {});
  EXPECT_GT(cold.num_users, 0);
  EXPECT_LE(cold.metrics.recall, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, ModelSmokeTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (char& c : n) {
                             if (c == '+') c = '_';
                           }
                           return n;
                         });

TEST(RegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(CreateModel("NoSuchModel"), nullptr);
}

TEST(RegistryTest, SixteenModelsInPaperOrder) {
  const auto models = AllModels();
  ASSERT_EQ(models.size(), 16u);
  EXPECT_EQ(models.front().name, "BPR");
  EXPECT_EQ(models.back().name, "Firzen");
  EXPECT_EQ(models.back().category, "Ours");
}

TEST(SamplerTest, NegativesAreWarmAndUninteracted) {
  const Dataset& dataset = TinyDataset();
  BprSampler sampler(dataset, 7);
  const auto items_by_user = dataset.TrainItemsByUser();
  for (int i = 0; i < 500; ++i) {
    const auto t = sampler.Sample();
    EXPECT_FALSE(dataset.is_cold_item[static_cast<size_t>(t.neg)]);
    EXPECT_FALSE(dataset.is_cold_item[static_cast<size_t>(t.pos)]);
    const auto& seen = items_by_user[static_cast<size_t>(t.user)];
    EXPECT_TRUE(std::binary_search(seen.begin(), seen.end(), t.pos));
    EXPECT_FALSE(std::binary_search(seen.begin(), seen.end(), t.neg));
  }
}

TEST(BprTest, LearnsBetterThanInitialization) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = TinyDataset();
  auto model = CreateModel("BPR");
  TrainOptions options = TinyTrainOptions();
  options.epochs = 16;
  model->Fit(dataset, options);
  const EvalResult warm =
      EvaluateRanking(dataset, dataset.warm_test, EvalSetting::kWarm,
                      *model->MakeScorer(), {});
  // Degenerate (uniform random) MRR@20 over ~100 warm candidates is ~0.04;
  // a trained BPR on this separable world must clear it comfortably.
  EXPECT_GT(warm.metrics.mrr, 0.05);
}

TEST(VbprTest, ColdItemsGetContentScores) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = TinyDataset();
  auto model = CreateModel("VBPR");
  model->Fit(dataset, TinyTrainOptions());
  model->PrepareColdInference(dataset);
  // The content pathway gives cold items informative (non-tiny) scores.
  Matrix scores;
  model->Score({0}, &scores);
  Real cold_spread_min = 1e30;
  Real cold_spread_max = -1e30;
  for (Index item : dataset.ColdItems()) {
    cold_spread_min = std::min(cold_spread_min, scores(0, item));
    cold_spread_max = std::max(cold_spread_max, scores(0, item));
  }
  EXPECT_GT(cold_spread_max - cold_spread_min, 1e-6);
}

TEST(DropoutNetTest, ColdBehaviorInputIsZeroed) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = TinyDataset();
  DropoutNet model;
  model.Fit(dataset, TinyTrainOptions());
  Matrix before = model.ItemEmbeddings();
  model.PrepareColdInference(dataset);
  Matrix after = model.ItemEmbeddings();
  // Cold rows change when the (random, untrained) behavior input is zeroed;
  // warm rows stay identical.
  Real warm_diff = 0.0;
  Real cold_diff = 0.0;
  for (Index i = 0; i < dataset.num_items; ++i) {
    Real diff = 0.0;
    for (Index c = 0; c < before.cols(); ++c) {
      diff += std::abs(before(i, c) - after(i, c));
    }
    if (dataset.is_cold_item[static_cast<size_t>(i)]) {
      cold_diff += diff;
    } else {
      warm_diff += diff;
    }
  }
  EXPECT_EQ(warm_diff, 0.0);
  EXPECT_GT(cold_diff, 0.0);
}

TEST(ClcRecTest, ColdUsesPureContentRepresentation) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = TinyDataset();
  ClcRec model;
  model.Fit(dataset, TinyTrainOptions());
  const Matrix warm_mode = model.ItemEmbeddings();
  model.PrepareColdInference(dataset);
  const Matrix cold_mode = model.ItemEmbeddings();
  bool any_cold_changed = false;
  for (Index item : dataset.ColdItems()) {
    for (Index c = 0; c < warm_mode.cols(); ++c) {
      if (warm_mode(item, c) != cold_mode(item, c)) {
        any_cold_changed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_cold_changed);
}

TEST(KgatTest, ColdItemsReachableThroughKg) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = TinyDataset();
  Kgat model;
  TrainOptions options = TinyTrainOptions();
  options.epochs = 6;
  model.Fit(dataset, options);
  // Cold item embeddings must be non-degenerate: KG edges (brand/category/
  // features) give them real representations, unlike pure-CF models.
  const Matrix emb = model.ItemEmbeddings();
  Index nonzero_cold = 0;
  for (Index item : dataset.ColdItems()) {
    Real norm = 0.0;
    for (Index c = 0; c < emb.cols(); ++c) norm += emb(item, c) * emb(item, c);
    if (norm > 1e-10) ++nonzero_cold;
  }
  EXPECT_EQ(nonzero_cold, static_cast<Index>(dataset.ColdItems().size()));
}

TEST(KgcnTest, UserConditionedScoresDiffer) {
  SetLogLevel(LogLevel::kError);
  const Dataset& dataset = TinyDataset();
  Kgcn model;
  TrainOptions options = TinyTrainOptions();
  options.epochs = 4;
  model.Fit(dataset, options);
  Matrix scores;
  model.Score({0, 1}, &scores);
  // Two different users should not produce identical rankings.
  Real diff = 0.0;
  for (Index i = 0; i < dataset.num_items; ++i) {
    diff += std::abs(scores(0, i) - scores(1, i));
  }
  EXPECT_GT(diff, 1e-9);
}

TEST(LightGcnTest, NormalColdInferenceChangesColdScores) {
  SetLogLevel(LogLevel::kError);
  Dataset dataset = TinyDataset();
  Rng rng(5);
  const Dataset normal = MakeNormalColdProtocol(dataset, &rng);
  LightGcn model;
  model.Fit(normal, TinyTrainOptions());
  Matrix strict_scores;
  model.Score({0}, &strict_scores);
  model.PrepareNormalColdInference(normal);
  Matrix normal_scores;
  model.Score({0}, &normal_scores);
  Real cold_delta = 0.0;
  for (Index item : normal.ColdItems()) {
    cold_delta += std::abs(strict_scores(0, item) - normal_scores(0, item));
  }
  EXPECT_GT(cold_delta, 0.0);
}

// A model with no parameters that records what the epoch driver does: its
// step counts calls and returns 0, its final tables hold the number of steps
// run so far, and its validation replays a scripted MRR sequence.
class DriverProbe : public EmbeddingModel {
 public:
  DriverProbe(std::vector<Real> mrr_script, bool keep_best)
      : mrr_script_(std::move(mrr_script)), keep_best_(keep_best) {}

  std::string Name() const override { return "DriverProbe"; }

  void Fit(const Dataset& dataset, const TrainOptions& options) override {
    int epoch = -1;
    EpochLoop loop;
    loop.begin_epoch = [&](int e) { epoch = e; };
    loop.step = [&](const BprBatch& batch) {
      EXPECT_EQ(batch.users.size(), static_cast<size_t>(options.batch_size));
      ++steps;
      return 0.0;
    };
    loop.compute_final = [&] {
      ++computes;
      final_user_ = Matrix(1, 1);
      final_user_(0, 0) = static_cast<Real>(steps);
      final_item_ = final_user_;
    };
    loop.validate = [&] {
      const size_t i = validated_epochs.size();
      validated_epochs.push_back(epoch);
      return i < mrr_script_.size() ? mrr_script_[i] : 0.0;
    };
    loop.keep_best = keep_best_;
    RunEpochs(dataset, options, loop);
  }

  // The step count the final tables were computed at.
  Real FinalSteps() const { return final_user_(0, 0); }

  int steps = 0;
  int computes = 0;
  std::vector<int> validated_epochs;

 private:
  std::vector<Real> mrr_script_;
  bool keep_best_;
};

TrainOptions DriverOptions() {
  TrainOptions options;
  options.epochs = 5;
  options.batch_size = 16;
  options.steps_per_epoch = 3;
  options.eval_every = 100;  // no validation unless a test asks
  options.seed = 5;
  return options;
}

TEST(EpochDriverTest, RunsTheExplicitStepsPerEpoch) {
  DriverProbe probe({}, /*keep_best=*/true);
  probe.Fit(TinyDataset(), DriverOptions());
  EXPECT_EQ(probe.steps, 5 * 3);
  EXPECT_TRUE(probe.validated_epochs.empty());
  EXPECT_EQ(probe.computes, 1);
  EXPECT_EQ(probe.FinalSteps(), 5 * 3);
}

TEST(EpochDriverTest, DerivesStepsPerEpochFromTrainSize) {
  const Dataset& dataset = TinyDataset();
  TrainOptions options = DriverOptions();
  options.epochs = 2;
  options.steps_per_epoch = 0;
  options.batch_size = 256;
  DriverProbe probe({}, /*keep_best=*/true);
  probe.Fit(dataset, options);
  const int per_epoch = static_cast<int>(dataset.train.size() / 256 + 1);
  EXPECT_EQ(probe.steps, 2 * per_epoch);
}

TEST(EpochDriverTest, ValidatesAfterEveryEvalEveryEpochs) {
  TrainOptions options = DriverOptions();
  options.epochs = 7;
  options.eval_every = 3;
  DriverProbe probe({0.1, 0.2}, /*keep_best=*/true);
  probe.Fit(TinyDataset(), options);
  EXPECT_EQ(probe.validated_epochs, (std::vector<int>{2, 5}));
  EXPECT_EQ(probe.steps, 7 * 3);
  EXPECT_EQ(probe.computes, 3);  // two validations plus the final one
}

// Scripted MRR 0.1, 0.3, 0.2, 0.2 at patience 1: the second miss in a row
// stops the run after epoch 3; the best validation was after epoch 1.
TEST(EpochDriverTest, PatienceStopsAndSnapshotsRestoreTheBest) {
  TrainOptions options = DriverOptions();
  options.epochs = 10;
  options.eval_every = 1;
  options.patience = 1;
  const std::vector<Real> script{0.1, 0.3, 0.2, 0.2, 0.9};

  DriverProbe keeping(script, /*keep_best=*/true);
  keeping.Fit(TinyDataset(), options);
  EXPECT_EQ(keeping.validated_epochs, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(keeping.steps, 4 * 3);
  EXPECT_EQ(keeping.FinalSteps(), 2 * 3);  // the tables validated at epoch 1

  DriverProbe last(script, /*keep_best=*/false);
  last.Fit(TinyDataset(), options);
  EXPECT_EQ(last.validated_epochs, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(last.FinalSteps(), 4 * 3);  // the tables of the last epoch
}

TEST(EpochDriverTest, ZeroEpochsComputeTheFinalTablesOnce) {
  TrainOptions options = DriverOptions();
  options.epochs = 0;
  options.eval_every = 1;
  DriverProbe probe({0.5}, /*keep_best=*/true);
  probe.Fit(TinyDataset(), options);
  EXPECT_EQ(probe.steps, 0);
  EXPECT_TRUE(probe.validated_epochs.empty());
  EXPECT_EQ(probe.computes, 1);
  EXPECT_EQ(probe.FinalSteps(), 0);
}

// The default validation ranks through options.pool inside Fit; the early
// stop and the restored snapshot must not depend on the pool size.
TEST(EpochDriverTest, PooledValidationGivesTheSerialBits) {
  SetLogLevel(LogLevel::kError);
  TrainOptions options = TinyTrainOptions();
  options.epochs = 4;
  options.eval_every = 1;
  options.patience = 0;
  ThreadPool pool(4);
  std::vector<Matrix> tables;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    options.pool = p;
    auto model = CreateModel("BPR");
    model->Fit(TinyDataset(), options);
    tables.push_back(model->UserEmbeddings());
    tables.push_back(model->ItemEmbeddings());
  }
  for (size_t t = 0; t < 2; ++t) {
    const Matrix& serial = tables[t];
    const Matrix& pooled = tables[t + 2];
    ASSERT_EQ(serial.rows(), pooled.rows());
    ASSERT_EQ(serial.cols(), pooled.cols());
    for (Index i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial.data()[i], pooled.data()[i]) << "table " << t;
    }
  }
}

TEST(EpochDriverDeathTest, RejectsZeroEvalEvery) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TrainOptions options = DriverOptions();
  options.eval_every = 0;
  DriverProbe probe({}, /*keep_best=*/true);
  EXPECT_DEATH(probe.Fit(TinyDataset(), options), "eval_every");
}

TEST(EpochDriverDeathTest, RejectsZeroBatchSize) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TrainOptions options = DriverOptions();
  options.batch_size = 0;
  DriverProbe probe({}, /*keep_best=*/true);
  EXPECT_DEATH(probe.Fit(TinyDataset(), options), "batch_size");
}

}  // namespace
}  // namespace firzen
