// Modality-specific item-item relation graph (paper §III-B.2, Eqs. 1-3):
// cosine similarity over raw modality features, kNN sparsification to an
// unweighted graph, then symmetric degree normalization. Frozen after build.
#ifndef FIRZEN_GRAPH_KNN_GRAPH_H_
#define FIRZEN_GRAPH_KNN_GRAPH_H_

#include <vector>

#include "src/tensor/csr.h"
#include "src/tensor/matrix.h"
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
  /// When non-empty, only these rows get neighbor lists (others stay empty).
  std::vector<Index> query_items;
  /// Pool over blocks of query rows: each block is scored against every
  /// row with GemmBT and each query selects its neighbors through
  /// SelectTopK. nullptr runs the blocks on the calling thread, and each
  /// GemmBT then shards over ThreadPool::Global(), as every Gemm does. The
  /// graph is bit-identical for any pool.
  ThreadPool* pool = nullptr;
};

/// Returns the kNN adjacency *before* normalization: entry (a, b) = 1 iff b
/// is among a's top-K cosine neighbors (Eq. 2). Self-loops are excluded.
CsrMatrix BuildItemKnnAdjacency(const Matrix& features,
                                const KnnGraphOptions& options);

/// Eq. 3: D^{-1/2} G̃ D^{-1/2} over the unweighted kNN adjacency.
CsrMatrix BuildItemItemGraph(const Matrix& features,
                             const KnnGraphOptions& options);

}  // namespace firzen

#endif  // FIRZEN_GRAPH_KNN_GRAPH_H_
