#include "src/core/frozen_graphs.h"

#include "src/graph/cooccurrence_graph.h"
#include "src/graph/interaction_graph.h"
#include "src/graph/knn_graph.h"
#include "src/util/check.h"

namespace firzen {

FrozenGraphs BuildTrainGraphs(const Dataset& dataset,
                              const FrozenGraphOptions& options) {
  FrozenGraphs graphs;
  graphs.interaction =
      std::make_shared<const CsrMatrix>(BuildNormalizedInteractionGraph(
          dataset.train, dataset.num_users, dataset.num_items));
  graphs.user_to_item = std::make_shared<const CsrMatrix>(BuildUserToItemGraph(
      dataset.train, dataset.num_users, dataset.num_items));
  graphs.item_to_user = std::make_shared<const CsrMatrix>(BuildItemToUserGraph(
      dataset.train, dataset.num_users, dataset.num_items));
  graphs.ckg =
      BuildCollaborativeKg(dataset.train, dataset.num_users, dataset.kg);

  // Item-item graphs: training builds over warm items only (§III-B.2).
  KnnGraphOptions knn_options;
  knn_options.top_k = options.knn_k;
  knn_options.candidate_items = dataset.WarmItems();
  knn_options.query_items = knn_options.candidate_items;
  knn_options.pool = options.pool;
  for (const Modality& m : dataset.modalities) {
    auto lists = std::make_shared<const KnnLists>(
        BuildItemKnnLists(m.features, knn_options));
    graphs.item_item.push_back(std::make_shared<const CsrMatrix>(
        KnnListsToAdjacency(*lists).SymNormalized()));
    graphs.warm_knn_lists.push_back(std::move(lists));
  }

  graphs.user_user_softmax = std::make_shared<const CsrMatrix>(
      BuildUserCooccurrenceGraph(dataset.train, dataset.num_users,
                                 dataset.num_items, options.user_topk)
          .RowSoftmax());
  return graphs;
}

FrozenGraphs BuildInferenceGraphs(
    const Dataset& dataset, const FrozenGraphOptions& options,
    const FrozenGraphs& train_graphs,
    const std::vector<Interaction>& extra_interactions) {
  FrozenGraphs graphs = train_graphs;

  // Expanded item-item graphs over all items, cold-masked then normalized
  // (Eqs. 34-35: G_hat = G_tilde . M before D^{-1/2} normalization).
  FIRZEN_CHECK_EQ(train_graphs.warm_knn_lists.size(),
                  dataset.modalities.size());
  graphs.item_item.clear();
  for (size_t m = 0; m < dataset.modalities.size(); ++m) {
    const KnnLists* warm = train_graphs.warm_knn_lists[m].get();
    FIRZEN_CHECK(warm != nullptr);
    FIRZEN_CHECK_EQ(warm->top_k, options.knn_k);
    graphs.item_item.push_back(std::make_shared<const CsrMatrix>(
        ExpandColdKnnAdjacency(dataset.modalities[m].features, *warm,
                               dataset.is_cold_item, options.pool)
            .SymNormalized()));
  }

  if (!extra_interactions.empty()) {
    // Normal cold-start: revealed links join the interaction operators and
    // the CKG so behavior pathways reach the normal-cold items.
    std::vector<Interaction> merged = dataset.train;
    merged.insert(merged.end(), extra_interactions.begin(),
                  extra_interactions.end());
    graphs.interaction =
        std::make_shared<const CsrMatrix>(BuildNormalizedInteractionGraph(
            merged, dataset.num_users, dataset.num_items));
    graphs.user_to_item = std::make_shared<const CsrMatrix>(
        BuildUserToItemGraph(merged, dataset.num_users, dataset.num_items));
    graphs.item_to_user = std::make_shared<const CsrMatrix>(
        BuildItemToUserGraph(merged, dataset.num_users, dataset.num_items));
    graphs.ckg = BuildCollaborativeKg(merged, dataset.num_users, dataset.kg);
  }
  return graphs;
}

}  // namespace firzen
