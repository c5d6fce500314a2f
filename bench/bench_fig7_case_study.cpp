// Fig. 7: interpretability case study. For sampled query items we list the
// five most similar items under (1) modality-only, (2) KG-only and
// (3) complete representations, annotated with ground-truth latent cluster
// and KG brand/category so the diversity-vs-relevance effect is visible:
// modality-only neighbors collapse onto one visual cluster, KG-only picks up
// noisy entities, the full model balances both.
#include <algorithm>
#include <cmath>

#include "bench/bench_common.h"

#include "src/core/firzen_model.h"

namespace {

using firzen::Index;
using firzen::Matrix;
using firzen::Real;

std::vector<Index> TopSimilar(const Matrix& emb, Index query, Index k) {
  std::vector<std::pair<Real, Index>> scored;
  const Index d = emb.cols();
  auto norm_of = [&](Index r) {
    Real n = 0.0;
    for (Index c = 0; c < d; ++c) n += emb(r, c) * emb(r, c);
    return std::sqrt(n) + 1e-12;
  };
  const Real qn = norm_of(query);
  for (Index i = 0; i < emb.rows(); ++i) {
    if (i == query) continue;
    Real dot = 0.0;
    for (Index c = 0; c < d; ++c) dot += emb(query, c) * emb(i, c);
    scored.emplace_back(dot / (qn * norm_of(i)), i);
  }
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first;
                    });
  std::vector<Index> out;
  for (Index j = 0; j < k; ++j) out.push_back(scored[j].second);
  return out;
}

}  // namespace

int main() {
  using namespace firzen;        // NOLINT(build/namespaces)
  using namespace firzen::bench;  // NOLINT(build/namespaces)
  SetLogLevel(LogLevel::kError);
  PrintHeader("Fig. 7: case study — top-5 similar items per representation",
              "paper Fig. 7");

  SyntheticGroundTruth truth;
  const Dataset dataset =
      GenerateSyntheticDataset(BeautySConfig(BenchScale()), &truth);
  const TrainOptions train = BenchTrainOptions();
  FirzenModel model;
  model.Fit(dataset, train);

  // Brand/category per item from the KG for annotation.
  std::vector<Index> brand(static_cast<size_t>(dataset.num_items), -1);
  std::vector<Index> category(static_cast<size_t>(dataset.num_items), -1);
  for (const Triplet& t : dataset.kg.triplets) {
    if (t.head >= dataset.num_items) continue;
    if (dataset.kg.entity_type[static_cast<size_t>(t.tail)] ==
        EntityType::kBrand) {
      brand[static_cast<size_t>(t.head)] = t.tail;
    }
    if (dataset.kg.entity_type[static_cast<size_t>(t.tail)] ==
        EntityType::kCategory) {
      category[static_cast<size_t>(t.head)] = t.tail;
    }
  }

  struct Mode {
    const char* label;
    FirzenOptions gates;
  };
  std::vector<Mode> modes;
  {
    FirzenOptions o;
    o.use_behavior = false;
    o.use_knowledge = false;  // modality only
    modes.push_back({"modality-only", o});
  }
  {
    FirzenOptions o;
    o.use_behavior = false;  // KG only
    o.use_text = false;
    o.use_image = false;
    modes.push_back({"KG-only", o});
  }
  modes.push_back({"complete", FirzenOptions()});

  // Query the most-interacted warm items (the paper samples popular
  // products; cold items have no modality-only representation by design).
  std::vector<Index> interaction_count(static_cast<size_t>(dataset.num_items),
                                       0);
  for (const Interaction& x : dataset.train) {
    ++interaction_count[static_cast<size_t>(x.item)];
  }
  std::vector<Index> queries;
  for (Index want = 0; want < 3; ++want) {
    Index best = -1;
    for (Index i = 0; i < dataset.num_items; ++i) {
      if (std::find(queries.begin(), queries.end(), i) != queries.end()) {
        continue;
      }
      if (best < 0 || interaction_count[static_cast<size_t>(i)] >
                          interaction_count[static_cast<size_t>(best)]) {
        best = i;
      }
    }
    queries.push_back(best);
  }
  for (Index query : queries) {
    std::printf("\nquery item %lld  (cluster %lld, brand %lld, cat %lld)\n",
                static_cast<long long>(query),
                static_cast<long long>(
                    truth.item_cluster[static_cast<size_t>(query)]),
                static_cast<long long>(brand[static_cast<size_t>(query)]),
                static_cast<long long>(category[static_cast<size_t>(query)]));
    for (const Mode& mode : modes) {
      model.RecomputeFinal(dataset, mode.gates, /*cold_expanded=*/false);
      const Matrix emb = model.ItemEmbeddings();
      const auto top = TopSimilar(emb, query, 5);
      Index same_cluster = 0;
      Index same_brand = 0;
      std::printf("  %-13s ->", mode.label);
      for (Index item : top) {
        std::printf(" %lld(c%lld)", static_cast<long long>(item),
                    static_cast<long long>(
                        truth.item_cluster[static_cast<size_t>(item)]));
        if (truth.item_cluster[static_cast<size_t>(item)] ==
            truth.item_cluster[static_cast<size_t>(query)]) {
          ++same_cluster;
        }
        if (brand[static_cast<size_t>(item)] ==
            brand[static_cast<size_t>(query)]) {
          ++same_brand;
        }
      }
      std::printf("   [relevance: %lld/5 same-cluster, diversity: %lld/5 "
                  "same-brand]\n",
                  static_cast<long long>(same_cluster),
                  static_cast<long long>(same_brand));
    }
  }
  std::printf("\nReading: modality-only maximizes visual similarity (same "
              "brand/cluster crowding), KG-only admits noisy-entity "
              "neighbors, the complete representation balances relevance "
              "and diversity (paper Fig. 7 narrative).\n");
  return 0;
}
