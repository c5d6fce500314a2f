// Modality-specific item-item relation graph (paper §III-B.2, Eqs. 1-3):
// cosine similarity over raw modality features, kNN sparsification to an
// unweighted graph, then symmetric degree normalization. Frozen after build.
// The selection's scored per-item lists are kept by the training build, so
// the strict-cold inference graph (Eqs. 34-35) computes only the
// similarities that touch a cold item.
#ifndef FIRZEN_GRAPH_KNN_GRAPH_H_
#define FIRZEN_GRAPH_KNN_GRAPH_H_

#include <vector>

#include "src/tensor/csr.h"
#include "src/tensor/matrix.h"
#include "src/util/ranking.h"
#include "src/util/thread_pool.h"

namespace firzen {

struct KnnGraphOptions {
  /// Neighbors kept per row (paper's K, Fig. 6d sweeps {5, 10, 15, 20}).
  Index top_k = 10;
  /// When non-empty, restricts which rows may appear as *neighbors*
  /// (columns); a set, so repeated ids count once. Training graphs pass the
  /// warm item list here so cold items cannot leak into training (paper
  /// §III-B.2: "In the training phase, the item-item graph is built on all
  /// warm-start items").
  std::vector<Index> candidate_items;
  /// When non-empty, only these rows get neighbor lists (others stay
  /// empty); a set, like candidate_items.
  std::vector<Index> query_items;
  /// Pool over blocks of query rows: each block is scored against every
  /// row with GemmBT and each query selects its neighbors through
  /// SelectTopK. nullptr runs the blocks on the calling thread, and each
  /// GemmBT then shards over ThreadPool::Global(), as every Gemm does. The
  /// graph is bit-identical for any pool.
  ThreadPool* pool = nullptr;
};

/// Scored kNN lists indexed by item id: rows[a] holds a's neighbors
/// best-first under RanksBefore, each with its cosine similarity (one
/// GemmBT cell). Rows that were not queried are empty.
struct KnnLists {
  /// KnnGraphOptions::top_k the lists were selected with.
  Index top_k = 0;
  std::vector<std::vector<ScoredItem>> rows;
};

/// Eq. 2's selection: each query's top-K cosine neighbors among the
/// candidates, itself excluded.
KnnLists BuildItemKnnLists(const Matrix& features,
                           const KnnGraphOptions& options);

/// The unweighted adjacency: entry (a, b) = 1 iff b is in rows[a].
CsrMatrix KnnListsToAdjacency(const KnnLists& lists);

/// Returns the kNN adjacency *before* normalization: entry (a, b) = 1 iff b
/// is among a's top-K cosine neighbors (Eq. 2). Self-loops are excluded.
CsrMatrix BuildItemKnnAdjacency(const Matrix& features,
                                const KnnGraphOptions& options);

/// Eq. 3: D^{-1/2} G̃ D^{-1/2} over the unweighted kNN adjacency.
CsrMatrix BuildItemItemGraph(const Matrix& features,
                             const KnnGraphOptions& options);

/// The strict-cold inference adjacency (Eq. 34), before normalization:
/// BuildItemKnnAdjacency over all items with top_k = warm_lists.top_k,
/// minus every warm -> cold edge, bit for bit. `warm_lists` must be the
/// warm-only build over the same features (candidates and queries both the
/// warm items of `is_cold_item`). Only similarities that touch a cold item
/// are computed, as one GemmBT panel of cold rows x all items. Cold rows
/// select from it with "not self". Each warm row offers its cold columns
/// to a heap that already holds the row's warm list, and keeps only the
/// warm survivors. Under RanksBefore that is exactly the all-item top-k
/// with the cold columns removed. Bit-identical for any pool.
CsrMatrix ExpandColdKnnAdjacency(const Matrix& features,
                                 const KnnLists& warm_lists,
                                 const std::vector<bool>& is_cold_item,
                                 ThreadPool* pool);

}  // namespace firzen

#endif  // FIRZEN_GRAPH_KNN_GRAPH_H_
