// Frozen Graph Construction (paper §III-B): builds every graph Firzen needs,
// once, as immutable CSR matrices. Training graphs cover warm items only;
// inference graphs are expanded over all items with the cold-isolation mask
// (Eqs. 34-35) applied before normalization. The expansion starts from the
// training build's scored warm kNN lists and computes only the similarities
// that touch a cold item.
#ifndef FIRZEN_CORE_FROZEN_GRAPHS_H_
#define FIRZEN_CORE_FROZEN_GRAPHS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/graph/collaborative_kg.h"
#include "src/graph/knn_graph.h"
#include "src/tensor/csr.h"
#include "src/util/thread_pool.h"

namespace firzen {

struct FrozenGraphOptions {
  Index knn_k = 10;       // item-item top-K (Eq. 2)
  Index user_topk = 10;   // user-user top-K (Eq. 4)
  ThreadPool* pool = nullptr;
};

/// The complete frozen graph set. All members are immutable after build.
struct FrozenGraphs {
  /// Symmetrically normalized (U+I)x(U+I) interaction adjacency (Eqs. 5-6).
  std::shared_ptr<const CsrMatrix> interaction;
  /// Row-normalized U->I and I->U aggregation operators (Eqs. 7-8).
  std::shared_ptr<const CsrMatrix> user_to_item;
  std::shared_ptr<const CsrMatrix> item_to_user;
  /// Collaborative knowledge graph (§III-B.1).
  CollaborativeKg ckg;
  /// Per-modality normalized item-item graphs, aligned with
  /// dataset.modalities order (Eqs. 1-3).
  std::vector<std::shared_ptr<const CsrMatrix>> item_item;
  /// Per-modality warm-only kNN lists of the training build (raw features,
  /// knn_k neighbors), aligned with item_item. BuildInferenceGraphs expands
  /// them; the dynamic-graph ablation replaces item_item each epoch but
  /// never these, since inference reads the raw features.
  std::vector<std::shared_ptr<const KnnLists>> warm_knn_lists;
  /// User-user co-occurrence graph with raw counts (Eq. 4); Eq. 19 softmax
  /// is pre-applied in `user_user_softmax`.
  std::shared_ptr<const CsrMatrix> user_user_softmax;
};

/// Training-time graphs: item-item kNN restricted to warm items.
FrozenGraphs BuildTrainGraphs(const Dataset& dataset,
                              const FrozenGraphOptions& options);

/// Inference-time graphs: item-item kNN over all items with the Eq. 34 mask
/// (no cold -> warm propagation), re-normalized, expanded from
/// `train_graphs.warm_knn_lists` (which must have been built with
/// options.knn_k) by ExpandColdKnnAdjacency. Other graphs are reused
/// unchanged from the training build. `extra_interactions` supports the
/// normal cold-start protocol (revealed links join the interaction graphs).
FrozenGraphs BuildInferenceGraphs(
    const Dataset& dataset, const FrozenGraphOptions& options,
    const FrozenGraphs& train_graphs,
    const std::vector<Interaction>& extra_interactions = {});

}  // namespace firzen

#endif  // FIRZEN_CORE_FROZEN_GRAPHS_H_
