// Unit tests for Firzen's internal components, below the full-model level:
// SAHGL branch gating and cold-item zeroing, MSHGL propagation/fusion,
// TransR optimization, the knowledge-aware attention's bits against a scalar
// reference, and adversarial discriminator dynamics.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/discriminator.h"
#include "src/core/frozen_graphs.h"
#include "src/core/mshgl.h"
#include "src/core/sahgl.h"
#include "src/data/synthetic.h"
#include "src/graph/collaborative_kg.h"
#include "src/models/kg_common.h"
#include "src/tensor/optim.h"
#include "src/util/logging.h"

namespace firzen {
namespace {

struct World {
  Dataset dataset;
  FrozenGraphs graphs;
};

const World& TinyWorld() {
  static const World* world = [] {
    auto* w = new World();
    w->dataset = GenerateSyntheticDataset(BeautySConfig(0.15));
    FrozenGraphOptions options;
    w->graphs = BuildTrainGraphs(w->dataset, options);
    return w;
  }();
  return *world;
}

SahglOptions DefaultSahglOptions(const Dataset& dataset) {
  SahglOptions options;
  options.embedding_dim = 16;
  options.use_modality.assign(dataset.modalities.size(), true);
  return options;
}

TEST(SahglTest, ForwardShapesMatchPopulation) {
  const World& world = TinyWorld();
  Rng rng(1);
  Sahgl sahgl(world.dataset, DefaultSahglOptions(world.dataset), &rng);
  sahgl.RefreshAttention(world.graphs);
  Rng drop(2);
  const SahglOutput out = sahgl.Forward(world.graphs, world.dataset,
                                        {0.5, 0.5}, /*training=*/true, &drop);
  EXPECT_EQ(out.fused_user.rows(), world.dataset.num_users);
  EXPECT_EQ(out.fused_item.rows(), world.dataset.num_items);
  EXPECT_EQ(out.fused_user.cols(), 16);
  ASSERT_EQ(out.modal_user.size(), 2u);
  EXPECT_EQ(out.modal_item[0].rows(), world.dataset.num_items);
}

TEST(SahglTest, ColdItemsBehaviorZeroedAtInference) {
  const World& world = TinyWorld();
  Rng rng(3);
  SahglOptions options = DefaultSahglOptions(world.dataset);
  // Only the behavior branch active: fused item embedding IS the behavior
  // component, so cold rows must be exactly zero at inference.
  options.use_knowledge = false;
  options.use_modality.assign(world.dataset.modalities.size(), false);
  Sahgl sahgl(world.dataset, options, &rng);
  Rng drop(4);
  const SahglOutput out = sahgl.Forward(world.graphs, world.dataset,
                                        {0.0, 0.0}, /*training=*/false,
                                        &drop);
  for (Index i = 0; i < world.dataset.num_items; ++i) {
    if (!world.dataset.is_cold_item[static_cast<size_t>(i)]) continue;
    for (Index c = 0; c < out.fused_item.cols(); ++c) {
      EXPECT_EQ(out.fused_item.value()(i, c), 0.0)
          << "cold item " << i << " leaked behavior signal";
    }
  }
}

TEST(SahglTest, DisabledBranchesContributeNothing) {
  const World& world = TinyWorld();
  Rng rng(5);
  SahglOptions all_off = DefaultSahglOptions(world.dataset);
  all_off.use_behavior = false;
  all_off.use_knowledge = false;
  all_off.use_modality.assign(world.dataset.modalities.size(), false);
  Sahgl sahgl(world.dataset, all_off, &rng);
  Rng drop(6);
  const SahglOutput out = sahgl.Forward(world.graphs, world.dataset,
                                        {0.5, 0.5}, true, &drop);
  EXPECT_EQ(out.fused_user.value().SquaredNorm(), 0.0);
  EXPECT_EQ(out.fused_item.value().SquaredNorm(), 0.0);
}

TEST(SahglTest, BetaWeightsScaleModalContribution) {
  const World& world = TinyWorld();
  Rng rng(7);
  SahglOptions options = DefaultSahglOptions(world.dataset);
  options.use_behavior = false;
  options.use_knowledge = false;
  options.lambda_m = 1.0;
  Sahgl sahgl(world.dataset, options, &rng);
  Rng drop(8);
  const SahglOutput text_only = sahgl.Forward(world.graphs, world.dataset,
                                              {1.0, 0.0}, false, &drop);
  const SahglOutput image_only = sahgl.Forward(world.graphs, world.dataset,
                                               {0.0, 1.0}, false, &drop);
  // With disjoint beta masses the fused outputs equal the respective modal
  // representations.
  Real text_diff = 0.0;
  Real image_diff = 0.0;
  const Matrix& t_modal = text_only.modal_item[0].value();
  const Matrix& i_modal = image_only.modal_item[1].value();
  for (Index i = 0; i < t_modal.size(); ++i) {
    text_diff +=
        std::abs(text_only.fused_item.value().data()[i] - t_modal.data()[i]);
    image_diff +=
        std::abs(image_only.fused_item.value().data()[i] - i_modal.data()[i]);
  }
  EXPECT_LT(text_diff, 1e-9);
  EXPECT_LT(image_diff, 1e-9);
}

// Attention refreshed over a CKG with extra interactions must not reach a
// forward pass over the training graphs.
TEST(SahglDeathTest, ForwardRejectsAttentionOfAnotherCkg) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const World& world = TinyWorld();
  Dataset dataset = world.dataset;
  dataset.cold_known = {{0, dataset.ColdItems().front()}};
  FrozenGraphOptions graph_options;
  const FrozenGraphs merged = BuildInferenceGraphs(
      dataset, graph_options, world.graphs, dataset.cold_known);
  Rng rng(1);
  Sahgl sahgl(world.dataset, DefaultSahglOptions(world.dataset), &rng);
  sahgl.RefreshAttention(merged);
  Rng drop(2);
  EXPECT_DEATH(sahgl.Forward(world.graphs, world.dataset, {0.5, 0.5},
                             /*training=*/false, &drop),
               "ckg.topology.nnz");
}

TEST(MshglTest, ForwardPreservesShapesAndIsFinite) {
  const World& world = TinyWorld();
  Rng rng(9);
  MshglOptions options;
  options.embedding_dim = 16;
  Mshgl mshgl(2, options, &rng);
  Matrix user_in(world.dataset.num_users, 16);
  Matrix item_in(world.dataset.num_items, 16);
  user_in.FillNormal(&rng, 1.0);
  item_in.FillNormal(&rng, 1.0);
  const MshglOutput out =
      mshgl.Forward(world.graphs, Tensor::Constant(user_in),
                    Tensor::Constant(item_in));
  EXPECT_EQ(out.user.rows(), world.dataset.num_users);
  EXPECT_EQ(out.item.rows(), world.dataset.num_items);
  for (Index i = 0; i < out.item.value().size(); ++i) {
    ASSERT_TRUE(std::isfinite(out.item.value().data()[i]));
  }
}

TEST(MshglTest, WarmToColdTransferThroughInferenceGraphs) {
  const World& world = TinyWorld();
  FrozenGraphOptions graph_options;
  const FrozenGraphs inference =
      BuildInferenceGraphs(world.dataset, graph_options, world.graphs);
  Rng rng(10);
  MshglOptions options;
  options.embedding_dim = 16;
  Mshgl mshgl(2, options, &rng);
  // Cold rows start at zero (as after behavior zeroing); warm rows carry
  // signal. After MSHGL over the inference graphs, cold rows are non-zero.
  Matrix item_in(world.dataset.num_items, 16);
  for (Index i = 0; i < world.dataset.num_items; ++i) {
    if (world.dataset.is_cold_item[static_cast<size_t>(i)]) continue;
    for (Index c = 0; c < 16; ++c) item_in(i, c) = rng.Normal();
  }
  Matrix user_in(world.dataset.num_users, 16);
  user_in.FillNormal(&rng, 1.0);
  const MshglOutput out = mshgl.Forward(inference,
                                        Tensor::Constant(user_in),
                                        Tensor::Constant(item_in));
  Index fired = 0;
  for (Index i = 0; i < world.dataset.num_items; ++i) {
    if (!world.dataset.is_cold_item[static_cast<size_t>(i)]) continue;
    Real norm = 0.0;
    for (Index c = 0; c < 16; ++c) {
      norm += out.item.value()(i, c) * out.item.value()(i, c);
    }
    if (norm > 1e-12) ++fired;
  }
  EXPECT_GT(fired, 0);
}

TEST(MshglTest, TrainingGraphsDoNotTouchColdItems) {
  // Same setup as above but over TRAINING graphs: cold rows must stay zero
  // (cold items have no neighbors in the warm-only kNN graphs).
  const World& world = TinyWorld();
  Rng rng(11);
  MshglOptions options;
  options.embedding_dim = 16;
  Mshgl mshgl(2, options, &rng);
  Matrix item_in(world.dataset.num_items, 16);
  for (Index i = 0; i < world.dataset.num_items; ++i) {
    if (world.dataset.is_cold_item[static_cast<size_t>(i)]) continue;
    for (Index c = 0; c < 16; ++c) item_in(i, c) = rng.Normal();
  }
  Matrix user_in(world.dataset.num_users, 16);
  const MshglOutput out = mshgl.Forward(world.graphs,
                                        Tensor::Constant(user_in),
                                        Tensor::Constant(item_in));
  for (Index i = 0; i < world.dataset.num_items; ++i) {
    if (!world.dataset.is_cold_item[static_cast<size_t>(i)]) continue;
    for (Index c = 0; c < 16; ++c) {
      EXPECT_EQ(out.item.value()(i, c), 0.0);
    }
  }
}

TEST(TransRTest, LossDecreasesUnderOptimization) {
  const World& world = TinyWorld();
  const CollaborativeKg ckg = BuildCollaborativeKg(
      world.dataset.train, world.dataset.num_users, world.dataset.kg);
  Rng rng(12);
  KgEmbeddings kg = MakeKgEmbeddings(ckg.num_entities, ckg.num_relations, 16,
                                     &rng);
  Adam::Options adam_options;
  adam_options.lr = 5e-3;
  adam_options.lazy = true;
  Adam adam(adam_options);
  Rng batch_rng(13);
  Real first = 0.0;
  Real last = 0.0;
  for (int step = 0; step < 120; ++step) {
    const KgBatch batch =
        SampleKgBatch(ckg.triplets, ckg.num_entities, 256, &batch_rng);
    Tensor loss = TransRLoss(kg, batch, 1e-5);
    if (step == 0) first = loss.scalar();
    last = loss.scalar();
    Backward(loss);
    adam.Step({kg.entity, kg.relation, kg.rel_proj});
  }
  EXPECT_LT(last, first * 0.8);
}

// ---- Knowledge attention: bit oracle ----

// A scalar reference for ComputeKgAttention (Eqs. 9-11): one tanh per edge
// and channel, each edge's score accumulated in channel order, then the
// same row softmax.
CsrMatrix ReferenceKgAttention(const CollaborativeKg& ckg,
                               const Matrix& entity, const Matrix& relation,
                               const Matrix& rel_proj) {
  const Index d = entity.cols();
  std::vector<Real> values(static_cast<size_t>(ckg.topology.nnz()));
  const auto& row_ptr = ckg.topology.row_ptr();
  const auto& col_idx = ckg.topology.col_idx();
  for (Index h = 0; h < ckg.num_entities; ++h) {
    for (Index p = row_ptr[h]; p < row_ptr[h + 1]; ++p) {
      const Index t = col_idx[static_cast<size_t>(p)];
      const Index r = ckg.edge_relation[static_cast<size_t>(p)];
      const Real* xh = entity.row(h);
      const Real* xt = entity.row(t);
      const Real* xr = relation.row(r);
      const Real* wr = rel_proj.row(r);
      Real score = 0.0;
      for (Index c = 0; c < d; ++c) {
        score += (wr[c] * xt[c]) * std::tanh(wr[c] * xh[c] + xr[c]);
      }
      values[static_cast<size_t>(p)] = score;
    }
  }
  return ckg.topology.WithValues(std::move(values)).RowSoftmax();
}

void ExpectAttentionMatchesReference(const CollaborativeKg& ckg,
                                     const KgEmbeddings& kg,
                                     const std::string& label) {
  const CsrMatrix want =
      ReferenceKgAttention(ckg, kg.entity.value(), kg.relation.value(),
                           kg.rel_proj.value());
  const CsrMatrix got =
      ComputeKgAttention(ckg, kg.entity.value(), kg.relation.value(),
                         kg.rel_proj.value());
  EXPECT_EQ(want.row_ptr(), got.row_ptr()) << label;
  EXPECT_EQ(want.col_idx(), got.col_idx()) << label;
  EXPECT_EQ(want.values(), got.values()) << label;
}

TEST(KgAttentionTest, MatchesScalarReferenceBitForBit) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    SyntheticConfig config = BeautySConfig(0.4);
    config.seed = seed;
    const Dataset dataset = GenerateSyntheticDataset(config);
    const CollaborativeKg ckg =
        BuildCollaborativeKg(dataset.train, dataset.num_users, dataset.kg);
    Rng rng(seed + 100);
    const KgEmbeddings kg =
        MakeKgEmbeddings(ckg.num_entities, ckg.num_relations, 32, &rng);
    ExpectAttentionMatchesReference(ckg, kg, "seed=" + std::to_string(seed));
  }
}

TEST(KgAttentionTest, HandBuiltTopologiesMatchScalarReference) {
  // Head 0's relations interleave (r0, r1, r0, r1), so a (head, relation)
  // pair recurs non-adjacently; head 1 repeats one parallel edge three
  // times; head 2 has no edges; head 3 has one; head 4 has parallel edges
  // under different relations.
  CollaborativeKg ckg;
  ckg.num_entities = 5;
  ckg.num_relations = 3;
  std::vector<CooEntry> entries;
  const auto add = [&](Index head, Index tail, Index relation) {
    entries.push_back({head, tail, 1.0});
    ckg.edge_relation.push_back(relation);
  };
  add(0, 1, 0);
  add(0, 2, 1);
  add(0, 3, 0);
  add(0, 4, 1);
  add(1, 2, 2);
  add(1, 4, 0);
  add(1, 2, 2);
  add(1, 2, 2);
  add(3, 0, 1);
  add(4, 0, 2);
  add(4, 0, 0);
  add(4, 1, 2);
  ckg.topology = CsrMatrix::FromCooNoMerge(5, 5, std::move(entries));
  for (const Index dim : {Index{1}, Index{8}, Index{33}}) {
    Rng rng(static_cast<uint64_t>(dim));
    const KgEmbeddings kg = MakeKgEmbeddings(5, 3, dim, &rng);
    ExpectAttentionMatchesReference(ckg, kg, "dim=" + std::to_string(dim));
  }
}

TEST(TransRTest, ValidTripletsScoreHigherAfterTraining) {
  const World& world = TinyWorld();
  const CollaborativeKg ckg = BuildCollaborativeKg(
      world.dataset.train, world.dataset.num_users, world.dataset.kg);
  Rng rng(14);
  KgEmbeddings kg = MakeKgEmbeddings(ckg.num_entities, ckg.num_relations, 16,
                                     &rng);
  Adam::Options adam_options;
  adam_options.lr = 5e-3;
  adam_options.lazy = true;
  Adam adam(adam_options);
  Rng batch_rng(15);
  for (int step = 0; step < 150; ++step) {
    const KgBatch batch =
        SampleKgBatch(ckg.triplets, ckg.num_entities, 256, &batch_rng);
    Tensor loss = TransRLoss(kg, batch, 1e-5);
    Backward(loss);
    adam.Step({kg.entity, kg.relation, kg.rel_proj});
  }
  // Fresh batch: positive triplets must outscore corrupted ones on average.
  const KgBatch batch =
      SampleKgBatch(ckg.triplets, ckg.num_entities, 512, &batch_rng);
  const Tensor pos = TransRScore(kg, batch.heads, batch.relations,
                                 batch.pos_tails);
  const Tensor neg = TransRScore(kg, batch.heads, batch.relations,
                                 batch.neg_tails);
  Index wins = 0;
  for (Index r = 0; r < pos.rows(); ++r) {
    if (pos.value()(r, 0) > neg.value()(r, 0)) ++wins;
  }
  EXPECT_GT(wins, pos.rows() * 7 / 10);
}

TEST(DiscriminatorTest, LearnsToSeparateTwoDistributions) {
  Rng rng(16);
  Discriminator::Options options;
  Discriminator d(16, options, &rng);
  Adam::Options adam_options;
  adam_options.lr = 2e-3;
  Adam adam(adam_options);
  auto real_batch = [&] {
    Matrix m(32, 16);
    m.FillNormal(&rng, 1.0);
    for (Index i = 0; i < m.size(); ++i) m.data()[i] += 1.5;  // shifted
    return m;
  };
  auto fake_batch = [&] {
    Matrix m(32, 16);
    m.FillNormal(&rng, 1.0);
    return m;
  };
  // Real and fake samples share one critic batch throughout: the critic
  // batch-normalizes its hidden layer, so the batch-mean of a separately
  // scored batch is input independent (normalized activations have zero
  // column mean by construction) and carries no training signal.
  auto combined_batch = [&] {
    const Matrix real = real_batch();
    const Matrix fake = fake_batch();
    Matrix combined(64, 16);
    for (Index r = 0; r < 32; ++r) {
      for (Index c = 0; c < 16; ++c) {
        combined(r, c) = real(r, c);
        combined(r + 32, c) = fake(r, c);
      }
    }
    return combined;
  };
  std::vector<Index> real_rows;
  std::vector<Index> fake_rows;
  for (Index r = 0; r < 32; ++r) {
    real_rows.push_back(r);
    fake_rows.push_back(r + 32);
  }
  for (int step = 0; step < 200; ++step) {
    using namespace ops;  // NOLINT(build/namespaces)
    Tensor scores = d.Critic(Tensor::Constant(combined_batch()), &rng, true);
    Tensor loss = Sub(ReduceMean(GatherRows(scores, fake_rows)),
                      ReduceMean(GatherRows(scores, real_rows)));
    Backward(loss);
    adam.Step(d.Params());
    d.ClipWeights();
  }
  // Critic assigns higher scores to the "real" rows of a fresh shared batch.
  const Tensor scores =
      d.Critic(Tensor::Constant(combined_batch()), &rng, false);
  Real real_score = 0.0;
  Real fake_score = 0.0;
  for (Index r = 0; r < 32; ++r) {
    real_score += scores.value()(r, 0) / 32.0;
    fake_score += scores.value()(r + 32, 0) / 32.0;
  }
  EXPECT_GT(real_score, fake_score);
}

}  // namespace
}  // namespace firzen
