// Firzen core tests: frozen graph construction semantics, SAHGL/MSHGL
// component behaviour, the strict-cold inference invariants (Eqs. 34-35),
// discriminator/losses machinery, beta momentum updates, and ablation gates.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/core/discriminator.h"
#include "src/core/firzen_model.h"
#include "src/core/frozen_graphs.h"
#include "src/core/losses.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/graph/knn_graph.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

const Dataset& TinyDataset() {
  static const Dataset* dataset = [] {
    return new Dataset(GenerateSyntheticDataset(BeautySConfig(0.18)));
  }();
  return *dataset;
}

TrainOptions TinyTrainOptions() {
  TrainOptions options;
  options.embedding_dim = 16;
  options.epochs = 6;
  options.eval_every = 3;
  options.batch_size = 256;
  options.patience = 10;
  options.seed = 31;
  return options;
}

TEST(FrozenGraphsTest, TrainingItemGraphsExcludeColdItems) {
  const Dataset& dataset = TinyDataset();
  FrozenGraphOptions options;
  const FrozenGraphs graphs = BuildTrainGraphs(dataset, options);
  ASSERT_EQ(graphs.item_item.size(), dataset.modalities.size());
  for (const auto& graph : graphs.item_item) {
    for (Index r = 0; r < graph->rows(); ++r) {
      const bool row_cold = dataset.is_cold_item[static_cast<size_t>(r)];
      if (row_cold) {
        EXPECT_EQ(graph->RowNnz(r), 0);
      }
      for (Index p = graph->row_ptr()[r]; p < graph->row_ptr()[r + 1]; ++p) {
        const Index c = graph->col_idx()[static_cast<size_t>(p)];
        EXPECT_FALSE(dataset.is_cold_item[static_cast<size_t>(c)]);
      }
    }
  }
}

TEST(FrozenGraphsTest, InferenceGraphsApplyEq34Mask) {
  const Dataset& dataset = TinyDataset();
  FrozenGraphOptions options;
  const FrozenGraphs train = BuildTrainGraphs(dataset, options);
  const FrozenGraphs inference =
      BuildInferenceGraphs(dataset, options, train);
  for (const auto& graph : inference.item_item) {
    Index cold_rows_with_edges = 0;
    for (Index r = 0; r < graph->rows(); ++r) {
      const bool row_warm = !dataset.is_cold_item[static_cast<size_t>(r)];
      if (!row_warm && graph->RowNnz(r) > 0) ++cold_rows_with_edges;
      for (Index p = graph->row_ptr()[r]; p < graph->row_ptr()[r + 1]; ++p) {
        const Index c = graph->col_idx()[static_cast<size_t>(p)];
        const bool col_cold = dataset.is_cold_item[static_cast<size_t>(c)];
        // Eq. 34: warm rows never aggregate from cold columns.
        EXPECT_FALSE(row_warm && col_cold);
      }
    }
    // Cold items DO receive edges (that is the whole point).
    EXPECT_GT(cold_rows_with_edges, 0);
  }
}

// The expanded item-item graphs equal the direct construction bit for bit:
// the kNN adjacency over all items, minus every warm -> cold edge (Eq. 34),
// then D^{-1/2} normalization (Eq. 35).
TEST(FrozenGraphsTest, InferenceItemGraphsEqualMaskedFullRebuild) {
  const Dataset& dataset = TinyDataset();
  const std::vector<bool>& cold = dataset.is_cold_item;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    FrozenGraphOptions options;
    options.pool = p;
    const FrozenGraphs train = BuildTrainGraphs(dataset, options);
    const FrozenGraphs inference =
        BuildInferenceGraphs(dataset, options, train);
    ASSERT_EQ(inference.item_item.size(), dataset.modalities.size());
    for (size_t m = 0; m < dataset.modalities.size(); ++m) {
      KnnGraphOptions knn;
      knn.top_k = options.knn_k;
      const CsrMatrix want =
          BuildItemKnnAdjacency(dataset.modalities[m].features, knn)
              .Filtered([&cold](Index row, Index col) {
                return cold[static_cast<size_t>(row)] ||
                       !cold[static_cast<size_t>(col)];
              })
              .SymNormalized();
      const CsrMatrix& got = *inference.item_item[m];
      EXPECT_EQ(want.row_ptr(), got.row_ptr()) << "modality " << m;
      EXPECT_EQ(want.col_idx(), got.col_idx()) << "modality " << m;
      EXPECT_EQ(want.values(), got.values()) << "modality " << m;
    }
  }
}

// The expansion has no fallback: it needs the training build's warm lists,
// selected with the same knn_k.
TEST(FrozenGraphsDeathTest, InferenceRequiresMatchingWarmLists) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset& dataset = TinyDataset();
  FrozenGraphOptions options;
  FrozenGraphs train = BuildTrainGraphs(dataset, options);
  FrozenGraphOptions other_k = options;
  other_k.knn_k = options.knn_k + 1;
  EXPECT_DEATH(BuildInferenceGraphs(dataset, other_k, train), "knn_k");
  train.warm_knn_lists.clear();
  EXPECT_DEATH(BuildInferenceGraphs(dataset, options, train),
               "warm_knn_lists");
}

TEST(FrozenGraphsTest, NormalColdLinksEnterInteractionGraph) {
  Dataset dataset = TinyDataset();
  // Fabricate one revealed link for a cold item.
  const Index cold_item = dataset.ColdItems().front();
  dataset.cold_known = {{0, cold_item}};
  FrozenGraphOptions options;
  const FrozenGraphs train = BuildTrainGraphs(dataset, options);
  const FrozenGraphs inference =
      BuildInferenceGraphs(dataset, options, train, dataset.cold_known);
  // The cold item now has degree in the interaction graph.
  EXPECT_GT(inference.interaction->RowNnz(dataset.num_users + cold_item), 0);
  EXPECT_EQ(train.interaction->RowNnz(dataset.num_users + cold_item), 0);
}

TEST(DiscriminatorTest, OutputsProbabilitiesAndClips) {
  Rng rng(3);
  Discriminator::Options options;
  options.weight_clip = 0.1;
  Discriminator d(8, options, &rng);
  Matrix x(16, 8);
  x.FillNormal(&rng, 1.0);
  Tensor out = d.Forward(Tensor::Constant(x), &rng, /*training=*/false);
  ASSERT_EQ(out.rows(), 16);
  ASSERT_EQ(out.cols(), 1);
  for (Index r = 0; r < 16; ++r) {
    EXPECT_GT(out.value()(r, 0), 0.0);
    EXPECT_LT(out.value()(r, 0), 1.0);
  }
  d.ClipWeights();
  for (const Tensor& p : d.Params()) {
    if (p.rows() <= 1) continue;  // biases/BN params not clipped
    for (Index i = 0; i < p.value().size(); ++i) {
      EXPECT_LE(std::abs(p.value().data()[i]), 0.1 + 1e-12);
    }
  }
}

TEST(LossesTest, AugmentedBlockRowsNearSoftmax) {
  std::vector<std::unordered_set<Index>> train_sets(4);
  train_sets[0] = {1, 2};
  train_sets[1] = {0};
  Rng rng(5);
  const Matrix block = BuildAugmentedBlock(
      {0, 1}, {0, 1, 2}, train_sets, Matrix(), Matrix(),
      /*temperature=*/0.5, /*aux_gamma=*/0.0, &rng);
  ASSERT_EQ(block.rows(), 2);
  ASSERT_EQ(block.cols(), 3);
  for (Index r = 0; r < 2; ++r) {
    Real sum = 0.0;
    for (Index c = 0; c < 3; ++c) {
      EXPECT_GE(block(r, c), 0.0);
      sum += block(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);  // softmax rows, gamma = 0
  }
}

TEST(LossesTest, ContrastiveLossFiniteAndLowerForAligned) {
  Rng rng(7);
  Matrix aligned(8, 6);
  aligned.FillNormal(&rng, 1.0);
  Tensor a = Tensor::Constant(aligned);
  Tensor same = Tensor::Constant(aligned);
  Matrix other(8, 6);
  other.FillNormal(&rng, 1.0);
  Tensor b = Tensor::Constant(other);
  const Real loss_aligned = ModalContrastiveLoss(a, same).scalar();
  const Real loss_misaligned = ModalContrastiveLoss(a, b).scalar();
  EXPECT_TRUE(std::isfinite(loss_aligned));
  EXPECT_LT(loss_aligned, loss_misaligned);
}

class FirzenFixture : public ::testing::Test {
 protected:
  static FirzenModel* TrainedModel() {
    static FirzenModel* model = [] {
      SetLogLevel(LogLevel::kError);
      auto* m = new FirzenModel();
      m->Fit(TinyDataset(), TinyTrainOptions());
      return m;
    }();
    return model;
  }
};

TEST_F(FirzenFixture, BetasStayNormalized) {
  const auto& betas = TrainedModel()->betas();
  ASSERT_EQ(betas.size(), 2u);
  Real sum = 0.0;
  for (Real b : betas) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    sum += b;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_F(FirzenFixture, ColdInferenceFiresColdItems) {
  FirzenModel* model = TrainedModel();
  model->PrepareColdInference(TinyDataset());
  const Matrix emb = model->ItemEmbeddings();
  // Every strict cold item has a non-trivial representation after the
  // warm->cold homogeneous transfer.
  for (Index item : TinyDataset().ColdItems()) {
    Real norm = 0.0;
    for (Index c = 0; c < emb.cols(); ++c) {
      norm += emb(item, c) * emb(item, c);
    }
    EXPECT_GT(norm, 1e-12) << "cold item " << item << " not fired";
  }
}

TEST_F(FirzenFixture, InferenceGatesChangeRepresentations) {
  FirzenModel* model = TrainedModel();
  FirzenOptions all = model->options();
  model->RecomputeFinal(TinyDataset(), all, /*cold_expanded=*/false);
  const Matrix with_all = model->ItemEmbeddings();
  FirzenOptions no_text = all;
  no_text.use_text = false;
  model->RecomputeFinal(TinyDataset(), no_text, /*cold_expanded=*/false);
  const Matrix without_text = model->ItemEmbeddings();
  Real diff = 0.0;
  for (Index i = 0; i < with_all.size(); ++i) {
    diff += std::abs(with_all.data()[i] - without_text.data()[i]);
  }
  EXPECT_GT(diff, 1e-9);
}

// The knowledge-attention tests below each train their own model, so no
// test's inference call can leave state that another reads.
std::unique_ptr<FirzenModel> FitFresh(const Dataset& dataset) {
  SetLogLevel(LogLevel::kError);
  auto model = std::make_unique<FirzenModel>();
  TrainOptions train = TinyTrainOptions();
  train.epochs = 3;
  train.eval_every = 1;
  model->Fit(dataset, train);
  return model;
}

std::vector<Real> Values(const Matrix& m) {
  return std::vector<Real>(m.data(), m.data() + m.size());
}

void ExpectSameEmbeddings(const Matrix& want_user, const Matrix& want_item,
                          const FirzenModel& model) {
  const Matrix user = model.UserEmbeddings();
  const Matrix item = model.ItemEmbeddings();
  ASSERT_EQ(want_user.rows(), user.rows());
  ASSERT_EQ(want_item.rows(), item.rows());
  EXPECT_EQ(Values(want_user), Values(user));
  EXPECT_EQ(Values(want_item), Values(item));
}

// Fit leaves final representations built from the attention of its final
// parameters, so an explicit refresh-and-recompute changes no bit.
TEST(FirzenAttentionTest, FinalRepresentationsUseCurrentAttention) {
  const std::unique_ptr<FirzenModel> model = FitFresh(TinyDataset());
  const Matrix user = model->UserEmbeddings();
  const Matrix item = model->ItemEmbeddings();
  model->RecomputeFinal(TinyDataset(), model->options(),
                        /*cold_expanded=*/false);
  ExpectSameEmbeddings(user, item, *model);
}

// Strict-cold inference reuses the attention Fit left current; it must
// equal a fresh refresh over the expanded graphs.
TEST(FirzenAttentionTest, PrepareColdInferenceMatchesFreshAttention) {
  const std::unique_ptr<FirzenModel> model = FitFresh(TinyDataset());
  model->PrepareColdInference(TinyDataset());
  const Matrix user = model->UserEmbeddings();
  const Matrix item = model->ItemEmbeddings();
  model->RecomputeFinal(TinyDataset(), model->options(),
                        /*cold_expanded=*/true);
  ExpectSameEmbeddings(user, item, *model);
}

// The normal-cold pass refreshes attention over a CKG with the revealed
// links; it must put the training-CKG attention back for strict cold.
TEST(FirzenAttentionTest, StrictColdAfterNormalColdIsUnchanged) {
  Rng rng(7);
  const Dataset normal = MakeNormalColdProtocol(TinyDataset(), &rng);
  ASSERT_FALSE(normal.cold_known.empty());
  const std::unique_ptr<FirzenModel> direct = FitFresh(normal);
  direct->PrepareColdInference(normal);
  const std::unique_ptr<FirzenModel> after_normal = FitFresh(normal);
  after_normal->PrepareNormalColdInference(normal);
  after_normal->PrepareColdInference(normal);
  ExpectSameEmbeddings(direct->UserEmbeddings(), direct->ItemEmbeddings(),
                       *after_normal);
}

class AblationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AblationTest, VariantTrainsAndScores) {
  SetLogLevel(LogLevel::kError);
  FirzenOptions options;
  const std::string variant = GetParam();
  if (variant == "no_ba") options.use_behavior = false;
  if (variant == "no_ka") options.use_knowledge = false;
  if (variant == "no_ma") options.use_modality = false;
  if (variant == "no_ms") options.use_mshgl = false;
  FirzenModel model(options);
  TrainOptions train = TinyTrainOptions();
  train.epochs = 3;
  model.Fit(TinyDataset(), train);
  Matrix scores;
  model.Score({0, 1}, &scores);
  for (Index i = 0; i < scores.size(); ++i) {
    ASSERT_TRUE(std::isfinite(scores.data()[i])) << variant;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, AblationTest,
                         ::testing::Values("no_ba", "no_ka", "no_ma",
                                           "no_ms"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(DynamicGraphAblationTest, LatticeStyleVariantTrainsAndDiffers) {
  SetLogLevel(LogLevel::kError);
  TrainOptions train = TinyTrainOptions();
  train.epochs = 4;
  FirzenOptions frozen_options;
  FirzenModel frozen(frozen_options);
  frozen.Fit(TinyDataset(), train);
  FirzenOptions dynamic_options;
  dynamic_options.dynamic_item_graphs = true;
  FirzenModel dynamic(dynamic_options);
  dynamic.Fit(TinyDataset(), train);
  // Both train to a usable state...
  Matrix frozen_scores;
  Matrix dynamic_scores;
  frozen.Score({0}, &frozen_scores);
  dynamic.Score({0}, &dynamic_scores);
  // ...and the per-epoch graph refresh actually changes the model.
  Real diff = 0.0;
  for (Index i = 0; i < frozen_scores.size(); ++i) {
    diff += std::abs(frozen_scores.data()[i] - dynamic_scores.data()[i]);
  }
  EXPECT_GT(diff, 1e-9);
}

TEST(EarlyStopperTest, PatienceSemantics) {
  EarlyStopper stopper(2);
  EXPECT_FALSE(stopper.Update(0.5));  // best so far
  EXPECT_TRUE(stopper.improved());
  EXPECT_FALSE(stopper.Update(0.4));  // strike 1
  EXPECT_FALSE(stopper.improved());
  EXPECT_FALSE(stopper.Update(0.4));  // strike 2
  EXPECT_TRUE(stopper.Update(0.3));   // strike 3 > patience -> stop
  // Improvement resets strikes.
  EarlyStopper fresh(1);
  EXPECT_FALSE(fresh.Update(0.1));
  EXPECT_FALSE(fresh.Update(0.05));
  EXPECT_FALSE(fresh.Update(0.2));  // new best
  EXPECT_FALSE(fresh.Update(0.1));
  EXPECT_TRUE(fresh.Update(0.1));
  EXPECT_DOUBLE_EQ(fresh.best(), 0.2);
}

}  // namespace
}  // namespace firzen
