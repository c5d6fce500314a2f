// Graph construction tests: interaction graph normalization, kNN item-item
// graphs (Eqs. 1-3), user-user co-occurrence (Eq. 4), collaborative KG
// alignment, and the strict-cold inference graphs (Eqs. 34-35) against the
// masked full rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/frozen_graphs.h"
#include "src/data/synthetic.h"
#include "src/graph/collaborative_kg.h"
#include "src/graph/cooccurrence_graph.h"
#include "src/graph/interaction_graph.h"
#include "src/graph/knn_graph.h"
#include "src/util/ranking.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace firzen {
namespace {

std::vector<Interaction> TinyInteractions() {
  // users 0..2, items 0..3.
  return {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 1}, {2, 3}};
}

TEST(InteractionGraphTest, SymmetricAndNormalized) {
  const CsrMatrix g = BuildNormalizedInteractionGraph(TinyInteractions(), 3, 4);
  EXPECT_EQ(g.rows(), 7);
  const Matrix dense = g.ToDense();
  for (Index r = 0; r < 7; ++r) {
    for (Index c = 0; c < 7; ++c) {
      EXPECT_NEAR(dense(r, c), dense(c, r), 1e-12);
    }
  }
  // user 0 (deg 2) - item 1 (deg 3): weight = 1/sqrt(6).
  EXPECT_NEAR(dense(0, 3 + 1), 1.0 / std::sqrt(6.0), 1e-12);
  // No user-user or item-item blocks.
  EXPECT_EQ(dense(0, 1), 0.0);
  EXPECT_EQ(dense(4, 5), 0.0);
}

TEST(InteractionGraphTest, StrictColdItemHasZeroDegree) {
  // Item 3 never interacted.
  const CsrMatrix g = BuildNormalizedInteractionGraph(
      {{0, 0}, {1, 1}, {2, 2}}, 3, 4);
  EXPECT_EQ(g.RowNnz(3 + 3), 0);
  // Propagation leaves its row at zero.
  Matrix x(7, 2, 1.0);
  Matrix y;
  g.SpMM(x, &y);
  EXPECT_EQ(y(6, 0), 0.0);
}

TEST(InteractionGraphTest, DuplicateInteractionsBinarized) {
  const CsrMatrix a = BuildNormalizedInteractionGraph({{0, 0}, {0, 0}}, 1, 1);
  const CsrMatrix b = BuildNormalizedInteractionGraph({{0, 0}}, 1, 1);
  EXPECT_NEAR(a.ToDense()(0, 1), b.ToDense()(0, 1), 1e-12);
}

TEST(InteractionGraphTest, UserToItemRowsScaleAsInvSqrtDegree) {
  const CsrMatrix u2i = BuildUserToItemGraph(TinyInteractions(), 3, 4);
  EXPECT_EQ(u2i.rows(), 3);
  EXPECT_EQ(u2i.cols(), 4);
  // user 0 has degree 2 -> each weight 1/sqrt(2).
  const Matrix dense = u2i.ToDense();
  EXPECT_NEAR(dense(0, 0), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(dense(0, 1), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(InteractionGraphTest, EdgeDropoutReducesEdges) {
  Rng rng(3);
  const CsrMatrix full =
      BuildNormalizedInteractionGraph(TinyInteractions(), 3, 4);
  const CsrMatrix dropped = BuildDroppedInteractionGraph(
      TinyInteractions(), 3, 4, /*drop_rate=*/0.99, &rng);
  EXPECT_LT(dropped.nnz(), full.nnz());
}

TEST(KnnGraphTest, TopKDegreeAndNoSelfLoops) {
  Rng rng(5);
  Matrix features(20, 8);
  features.FillNormal(&rng, 1.0);
  KnnGraphOptions options;
  options.top_k = 4;
  const CsrMatrix adj = BuildItemKnnAdjacency(features, options);
  for (Index r = 0; r < 20; ++r) {
    EXPECT_EQ(adj.RowNnz(r), 4);
    for (Index p = adj.row_ptr()[r]; p < adj.row_ptr()[r + 1]; ++p) {
      EXPECT_NE(adj.col_idx()[static_cast<size_t>(p)], r);
    }
  }
}

TEST(KnnGraphTest, NeighborsAreActuallyNearest) {
  // Two well-separated clusters: neighbors must stay within a cluster.
  Matrix features(10, 2);
  for (Index i = 0; i < 5; ++i) {
    features(i, 0) = 10.0 + 0.1 * i;
    features(i, 1) = 10.0;
  }
  for (Index i = 5; i < 10; ++i) {
    features(i, 0) = -10.0 - 0.1 * i;
    features(i, 1) = 5.0;
  }
  KnnGraphOptions options;
  options.top_k = 3;
  const CsrMatrix adj = BuildItemKnnAdjacency(features, options);
  for (Index r = 0; r < 10; ++r) {
    for (Index p = adj.row_ptr()[r]; p < adj.row_ptr()[r + 1]; ++p) {
      const Index n = adj.col_idx()[static_cast<size_t>(p)];
      EXPECT_EQ(r < 5, n < 5) << "cross-cluster edge " << r << "->" << n;
    }
  }
}

TEST(KnnGraphTest, CandidateRestrictionExcludesColdItems) {
  Rng rng(6);
  Matrix features(12, 4);
  features.FillNormal(&rng, 1.0);
  KnnGraphOptions options;
  options.top_k = 3;
  options.candidate_items = {0, 1, 2, 3, 4, 5};  // "warm" half
  options.query_items = options.candidate_items;
  const CsrMatrix adj = BuildItemKnnAdjacency(features, options);
  for (Index r = 0; r < 12; ++r) {
    if (r >= 6) {
      EXPECT_EQ(adj.RowNnz(r), 0);
    }
    for (Index p = adj.row_ptr()[r]; p < adj.row_ptr()[r + 1]; ++p) {
      EXPECT_LT(adj.col_idx()[static_cast<size_t>(p)], 6);
    }
  }
}

TEST(KnnGraphTest, NormalizedGraphHasSymmetricScaling) {
  Rng rng(7);
  Matrix features(15, 4);
  features.FillNormal(&rng, 1.0);
  KnnGraphOptions options;
  options.top_k = 3;
  const CsrMatrix g = BuildItemItemGraph(features, options);
  // All values in (0, 1].
  for (Real v : g.values()) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

// ---- kNN build: bit oracle ----

// One step of a dot product's multiply-add chain: exactly-rounded fma where
// the target has it, else a rounded product then a rounded add. This is
// what `sim += a * b` compiles to under the build's default
// -ffp-contract=fast, and what every GemmBT cell is.
Real ChainStep(Real a, Real b, Real acc) {
#ifdef FIRZEN_HAS_HW_FMA
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

// A scalar reference for BuildItemKnnAdjacency: normalize the rows, score
// every (query, candidate) pair as one p-ordered chain from +0.0, keep a
// full scored list per query and partial_sort it under RanksBefore.
CsrMatrix ReferenceKnnAdjacency(const Matrix& features,
                                const KnnGraphOptions& options) {
  const Index n = features.rows();
  Matrix normalized = features;
  for (Index r = 0; r < n; ++r) {
    const Real norm = normalized.RowNorm(r);
    if (norm <= 1e-12) continue;
    for (Index c = 0; c < normalized.cols(); ++c) normalized(r, c) /= norm;
  }
  std::vector<Index> candidates = options.candidate_items;
  std::vector<Index> queries = options.query_items;
  for (Index i = 0; i < n; ++i) {
    if (options.candidate_items.empty()) candidates.push_back(i);
    if (options.query_items.empty()) queries.push_back(i);
  }
  const size_t k = static_cast<size_t>(std::min<Index>(
      options.top_k, static_cast<Index>(candidates.size()) - 1));
  std::vector<CooEntry> entries;
  for (Index a : queries) {
    std::vector<ScoredItem> scored;
    for (Index b : candidates) {
      if (b == a) continue;
      Real sim = 0.0;
      for (Index c = 0; c < normalized.cols(); ++c) {
        sim = ChainStep(normalized(a, c), normalized(b, c), sim);
      }
      scored.push_back({b, sim});
    }
    const size_t keep = std::min(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      RanksBefore);
    for (size_t j = 0; j < keep; ++j) {
      entries.push_back({a, scored[j].item, 1.0});
    }
  }
  return CsrMatrix::FromCoo(n, n, std::move(entries));
}

void ExpectSameCsr(const CsrMatrix& want, const CsrMatrix& got,
                   const std::string& label) {
  EXPECT_EQ(want.rows(), got.rows()) << label;
  EXPECT_EQ(want.cols(), got.cols()) << label;
  EXPECT_EQ(want.row_ptr(), got.row_ptr()) << label;
  EXPECT_EQ(want.col_idx(), got.col_idx()) << label;
  EXPECT_EQ(want.values(), got.values()) << label;
}

// Builds with pools nullptr, 1 and 4 must all equal the reference exactly.
void ExpectKnnMatchesReference(const Matrix& features,
                               KnnGraphOptions options,
                               const std::string& label) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  options.pool = nullptr;
  const CsrMatrix want = ReferenceKnnAdjacency(features, options);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1, &pool4}) {
    options.pool = pool;
    ExpectSameCsr(want, BuildItemKnnAdjacency(features, options),
                  label + " pool=" +
                      std::to_string(pool == nullptr ? 0
                                                     : pool->num_threads()));
  }
}

TEST(KnnGraphTest, MatchesScalarReferenceBitForBit) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    SyntheticConfig config = BeautySConfig(0.4);
    config.seed = seed;
    const Dataset dataset = GenerateSyntheticDataset(config);
    const std::vector<Index> warm = dataset.WarmItems();
    for (const Modality& m : dataset.modalities) {
      for (const bool restrict : {false, true}) {
        KnnGraphOptions options;
        if (restrict) {
          options.candidate_items = warm;
          options.query_items = warm;
        }
        const Index candidates =
            restrict ? static_cast<Index>(warm.size()) : dataset.num_items;
        for (const Index top_k :
             {Index{1}, Index{10}, candidates - 1, candidates + 3}) {
          options.top_k = top_k;
          ExpectKnnMatchesReference(
              m.features, options,
              "seed=" + std::to_string(seed) + " " + m.name +
                  " restrict=" + std::to_string(restrict) +
                  " top_k=" + std::to_string(top_k));
        }
      }
    }
  }
}

TEST(KnnGraphTest, TiedAndZeroRowsMatchScalarReference) {
  // Identical rows: every score ties, so item ids alone pick neighbours.
  const Matrix same(30, 5, 0.25);
  // Zero rows score exactly +0.0 against every row, tying with each other.
  Rng rng(11);
  Matrix mixed(40, 6);
  mixed.FillNormal(&rng, 1.0);
  for (Index r = 0; r < 40; r += 3) {
    for (Index c = 0; c < 6; ++c) mixed(r, c) = 0.0;
  }
  for (const Index top_k : {Index{1}, Index{10}, Index{29}, Index{50}}) {
    KnnGraphOptions options;
    options.top_k = top_k;
    ExpectKnnMatchesReference(same, options,
                              "identical top_k=" + std::to_string(top_k));
    ExpectKnnMatchesReference(mixed, options,
                              "zero rows top_k=" + std::to_string(top_k));
    options.candidate_items = {0, 1, 3, 6, 7, 9, 12, 20, 21, 22, 27};
    options.query_items = {1, 2, 3, 4, 12, 13, 25, 29};
    ExpectKnnMatchesReference(same, options,
                              "identical restricted top_k=" +
                                  std::to_string(top_k));
    ExpectKnnMatchesReference(mixed, options,
                              "zero rows restricted top_k=" +
                                  std::to_string(top_k));
  }
}

// Training graphs must not depend on strict-cold items in any way: random
// cold feature rows leave every training item-item CSR bit-identical.
TEST(KnnGraphTest, TrainGraphsIgnoreColdFeatureValues) {
  SyntheticConfig config = BeautySConfig(0.4);
  config.seed = 3;
  const Dataset dataset = GenerateSyntheticDataset(config);
  Dataset perturbed = dataset;
  Rng rng(19);
  for (Modality& m : perturbed.modalities) {
    for (Index item : dataset.ColdItems()) {
      for (Index c = 0; c < m.features.cols(); ++c) {
        m.features(item, c) = rng.Normal() * 10.0;
      }
    }
  }
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    FrozenGraphOptions options;
    options.pool = p;
    const FrozenGraphs want = BuildTrainGraphs(dataset, options);
    const FrozenGraphs got = BuildTrainGraphs(perturbed, options);
    ASSERT_EQ(want.item_item.size(), got.item_item.size());
    for (size_t m = 0; m < want.item_item.size(); ++m) {
      ExpectSameCsr(*want.item_item[m], *got.item_item[m],
                    "modality " + std::to_string(m) +
                        (p == nullptr ? " serial" : " pool=4"));
    }
  }
}

// ---- Strict-cold inference graphs (Eqs. 34-35): bit oracle ----

// Strict cold-start inference mask (paper §III-F, Eqs. 34-35): information
// must not propagate FROM strict cold items INTO warm items:
//   M(a, b) = 0  iff  a is warm and b is cold;  Ĝ = G̃ ⊙ M.
// Cold rows still aggregate from warm columns; that is the warm -> cold
// transfer that "fires" the cold items. Removes every edge of the
// (unnormalized) item-item adjacency whose row is warm and column cold.
CsrMatrix ApplyColdStartMask(const CsrMatrix& item_item,
                             const std::vector<bool>& is_cold_item) {
  EXPECT_EQ(item_item.rows(), static_cast<Index>(is_cold_item.size()));
  EXPECT_EQ(item_item.rows(), item_item.cols());
  return item_item.Filtered([&is_cold_item](Index row, Index col) {
    const bool row_warm = !is_cold_item[static_cast<size_t>(row)];
    const bool col_cold = is_cold_item[static_cast<size_t>(col)];
    return !(row_warm && col_cold);
  });
}

TEST(ColdMaskTest, RemovesExactlyWarmToColdEdges) {
  // Full 4x4 adjacency minus diagonal.
  std::vector<CooEntry> entries;
  for (Index r = 0; r < 4; ++r) {
    for (Index c = 0; c < 4; ++c) {
      if (r != c) entries.push_back({r, c, 1.0});
    }
  }
  const CsrMatrix adj = CsrMatrix::FromCoo(4, 4, entries);
  const std::vector<bool> is_cold{false, false, true, true};
  const CsrMatrix masked = ApplyColdStartMask(adj, is_cold);
  const Matrix dense = masked.ToDense();
  for (Index r = 0; r < 4; ++r) {
    for (Index c = 0; c < 4; ++c) {
      if (r == c) continue;
      const bool warm_to_cold = !is_cold[static_cast<size_t>(r)] &&
                                is_cold[static_cast<size_t>(c)];
      EXPECT_EQ(dense(r, c) != 0.0, !warm_to_cold)
          << "edge " << r << "->" << c;
    }
  }
}

TEST(ColdMaskTest, ColdRowsStillReceiveFromWarm) {
  std::vector<CooEntry> entries{{2, 0, 1.0}, {0, 2, 1.0}};
  const CsrMatrix adj = CsrMatrix::FromCoo(3, 3, entries);
  const std::vector<bool> is_cold{false, false, true};
  const CsrMatrix masked = ApplyColdStartMask(adj, is_cold);
  EXPECT_EQ(masked.RowNnz(2), 1);  // cold aggregates from warm
  EXPECT_EQ(masked.RowNnz(0), 0);  // warm no longer sees cold
}

// The inference item-item graph built the direct way: the kNN adjacency
// over all items, the Eq. 34 mask, then symmetric normalization.
CsrMatrix ReferenceInferenceItemGraph(const Matrix& features,
                                      const std::vector<bool>& is_cold_item,
                                      Index knn_k) {
  KnnGraphOptions options;
  options.top_k = knn_k;
  return ApplyColdStartMask(BuildItemKnnAdjacency(features, options),
                            is_cold_item)
      .SymNormalized();
}

// BuildInferenceGraphs' item-item graphs must equal the reference exactly,
// for every modality and pools nullptr, 1 and 4.
void ExpectInferenceGraphsMatchReference(const Dataset& dataset, Index knn_k,
                                         const std::string& label) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1, &pool4}) {
    FrozenGraphOptions options;
    options.knn_k = knn_k;
    options.pool = pool;
    const FrozenGraphs train = BuildTrainGraphs(dataset, options);
    const FrozenGraphs inference =
        BuildInferenceGraphs(dataset, options, train);
    ASSERT_EQ(inference.item_item.size(), dataset.modalities.size()) << label;
    for (size_t m = 0; m < dataset.modalities.size(); ++m) {
      ExpectSameCsr(
          ReferenceInferenceItemGraph(dataset.modalities[m].features,
                                      dataset.is_cold_item, knn_k),
          *inference.item_item[m],
          label + " " + dataset.modalities[m].name + " pool=" +
              std::to_string(pool == nullptr ? 0 : pool->num_threads()));
    }
  }
}

Dataset BeautyS(uint64_t seed) {
  SyntheticConfig config = BeautySConfig(0.4);
  config.seed = seed;
  return GenerateSyntheticDataset(config);
}

TEST(InferenceGraphTest, MatchesMaskedFullRebuildBitForBit) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    ExpectInferenceGraphsMatchReference(BeautyS(seed), /*knn_k=*/10,
                                        "seed=" + std::to_string(seed));
  }
}

TEST(InferenceGraphTest, TopKAtLeastWarmCountMatchesReference) {
  const Dataset dataset = BeautyS(1);
  const Index warm = static_cast<Index>(dataset.WarmItems().size());
  for (const Index knn_k : {warm - 1, warm + 3}) {
    ExpectInferenceGraphsMatchReference(dataset, knn_k,
                                        "knn_k=" + std::to_string(knn_k));
  }
}

TEST(InferenceGraphTest, NoColdItemsMatchesReference) {
  Dataset dataset = BeautyS(2);
  dataset.is_cold_item.assign(dataset.is_cold_item.size(), false);
  ExpectInferenceGraphsMatchReference(dataset, 10, "no cold items");
}

TEST(InferenceGraphTest, MostItemsColdMatchesReference) {
  Dataset dataset = BeautyS(3);
  for (Index i = 0; i < dataset.num_items; ++i) {
    dataset.is_cold_item[static_cast<size_t>(i)] = i % 8 != 0;
  }
  for (const Index knn_k : {Index{5}, Index{10}, Index{60}}) {
    ExpectInferenceGraphsMatchReference(
        dataset, knn_k, "most cold knn_k=" + std::to_string(knn_k));
  }
}

TEST(InferenceGraphTest, TiedAndZeroRowsMatchReference) {
  // Identical rows tie every score, so item ids alone pick neighbours; zero
  // rows score exactly +0.0 against every row.
  Dataset dataset = BeautyS(4);
  Matrix& same = dataset.modalities[0].features;
  same.Fill(0.25);
  Matrix& mixed = dataset.modalities[1].features;
  for (Index r = 0; r < mixed.rows(); r += 3) {
    for (Index c = 0; c < mixed.cols(); ++c) mixed(r, c) = 0.0;
  }
  for (const Index knn_k : {Index{1}, Index{10}}) {
    ExpectInferenceGraphsMatchReference(
        dataset, knn_k, "ties knn_k=" + std::to_string(knn_k));
  }
}

TEST(CooccurrenceTest, CountsCommonItems) {
  // Users 0 and 1 share items {1}; users 1 and 2 share {1}; 0 and 2 share {1}.
  const CsrMatrix g =
      BuildUserCooccurrenceGraph(TinyInteractions(), 3, 4, /*top_k=*/5);
  const Matrix dense = g.ToDense();
  EXPECT_DOUBLE_EQ(dense(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(dense(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(dense(0, 0), 0.0);  // no self loops
}

TEST(CooccurrenceTest, TopKLimitsNeighbors) {
  std::vector<Interaction> interactions;
  // Star: item 0 interacted by all 8 users -> everyone co-occurs with all.
  for (Index u = 0; u < 8; ++u) interactions.push_back({u, 0});
  const CsrMatrix g = BuildUserCooccurrenceGraph(interactions, 8, 1, 3);
  for (Index r = 0; r < 8; ++r) {
    EXPECT_LE(g.RowNnz(r), 3);
  }
}

TEST(CollaborativeKgTest, AlignmentAndReverseEdges) {
  KnowledgeGraph kg;
  kg.num_items = 2;
  kg.num_entities = 4;  // items 0-1, entities 2-3
  kg.num_relations = 2;
  kg.triplets = {{0, 0, 2}, {1, 1, 3}};
  const CollaborativeKg ckg =
      BuildCollaborativeKg({{0, 0}, {1, 1}}, /*num_users=*/2, kg);
  EXPECT_EQ(ckg.num_entities, 6);          // 4 + 2 users
  EXPECT_EQ(ckg.num_relations, 2 * (2 + 1));  // fw + interact + reverses
  EXPECT_EQ(ckg.UserEntity(0), 4);
  EXPECT_EQ(ckg.InteractRelation(), 2);
  // Each KG triplet and each interaction contribute forward + reverse.
  EXPECT_EQ(static_cast<Index>(ckg.triplets.size()), 2 * (2 + 2));
  // Storage alignment: edge_relation[p] must match triplets[p].
  ASSERT_EQ(ckg.topology.nnz(),
            static_cast<Index>(ckg.edge_relation.size()));
  Index p = 0;
  for (Index h = 0; h < ckg.num_entities; ++h) {
    for (Index q = ckg.topology.row_ptr()[h];
         q < ckg.topology.row_ptr()[h + 1]; ++q, ++p) {
      EXPECT_EQ(ckg.triplets[static_cast<size_t>(p)].head, h);
      EXPECT_EQ(ckg.triplets[static_cast<size_t>(p)].tail,
                ckg.topology.col_idx()[static_cast<size_t>(q)]);
      EXPECT_EQ(ckg.triplets[static_cast<size_t>(p)].relation,
                ckg.edge_relation[static_cast<size_t>(p)]);
    }
  }
}

}  // namespace
}  // namespace firzen
