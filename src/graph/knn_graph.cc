#include "src/graph/knn_graph.h"

#include <algorithm>

#include "src/util/check.h"

namespace firzen {
namespace {

// Query rows scored per GemmBT call: a block x n similarity panel.
constexpr Index kQueryBlock = 32;

// Row-normalized copy so cosine similarity reduces to a dot product.
Matrix L2NormalizedRows(const Matrix& features) {
  Matrix out = features;
  for (Index r = 0; r < out.rows(); ++r) {
    const Real norm = out.RowNorm(r);
    if (norm <= 1e-12) continue;
    Real* row = out.row(r);
    for (Index c = 0; c < out.cols(); ++c) row[c] /= norm;
  }
  return out;
}

// Membership bitmap of the id set `ids` over n rows; empty means every row.
std::vector<bool> Members(const std::vector<Index>& ids, Index n) {
  std::vector<bool> member(static_cast<size_t>(n), ids.empty());
  for (Index i : ids) member[static_cast<size_t>(i)] = true;
  return member;
}

}  // namespace

KnnLists BuildItemKnnLists(const Matrix& features,
                           const KnnGraphOptions& options) {
  const Index n = features.rows();
  const Index d = features.cols();
  FIRZEN_CHECK_GT(options.top_k, 0);

  const std::vector<bool> is_candidate = Members(options.candidate_items, n);
  const std::vector<bool> is_query = Members(options.query_items, n);
  const Index num_candidates = static_cast<Index>(
      std::count(is_candidate.begin(), is_candidate.end(), true));
  std::vector<Index> queries;
  for (Index a = 0; a < n; ++a) {
    if (is_query[static_cast<size_t>(a)]) queries.push_back(a);
  }
  const Index num_queries = static_cast<Index>(queries.size());

  const Matrix normalized = L2NormalizedRows(features);
  const Index k = std::min<Index>(options.top_k, num_candidates - 1);
  FIRZEN_CHECK_GT(k, 0);

  // Each query block is scored against every row with GemmBT, whose cells
  // are each one p-ordered multiply-add chain from +0.0, then every query
  // selects its top-k candidates (itself excluded) through SelectTopK.
  // Each query writes only its own row, so workers share nothing.
  KnnLists lists;
  lists.top_k = options.top_k;
  lists.rows.resize(static_cast<size_t>(n));
  ParallelFor(
      options.pool, (num_queries + kQueryBlock - 1) / kQueryBlock,
      [&](Index block_begin, Index block_end) {
        TopKHeap heap(k);
        Matrix block;  // gathered query rows
        Matrix sims;   // block x n similarities
        for (Index q0 = block_begin * kQueryBlock;
             q0 < std::min(block_end * kQueryBlock, num_queries);
             q0 += kQueryBlock) {
          const Index rows = std::min(kQueryBlock, num_queries - q0);
          const Index* block_queries = queries.data() + q0;
          block.ResizeUninitialized(rows, d);
          for (Index r = 0; r < rows; ++r) {
            const Real* src = normalized.row(block_queries[r]);
            std::copy(src, src + d, block.row(r));
          }
          sims.ResizeUninitialized(rows, n);
          GemmBT(block, normalized.data(), n, MatrixView(&sims), options.pool);
          for (Index r = 0; r < rows; ++r) {
            const Index a = block_queries[r];
            heap.Reset();
            SelectTopK(
                sims.row(r), n, /*first_item=*/0,
                [&](Index b) {
                  return b != a && is_candidate[static_cast<size_t>(b)];
                },
                &heap);
            lists.rows[static_cast<size_t>(a)] = heap.Sorted();
          }
        }
      },
      /*min_shard_size=*/1);
  return lists;
}

CsrMatrix KnnListsToAdjacency(const KnnLists& lists) {
  const Index n = static_cast<Index>(lists.rows.size());
  std::vector<CooEntry> entries;
  for (Index a = 0; a < n; ++a) {
    for (const ScoredItem& e : lists.rows[static_cast<size_t>(a)]) {
      entries.push_back({a, e.item, 1.0});
    }
  }
  return CsrMatrix::FromCoo(n, n, std::move(entries));
}

CsrMatrix BuildItemKnnAdjacency(const Matrix& features,
                                const KnnGraphOptions& options) {
  return KnnListsToAdjacency(BuildItemKnnLists(features, options));
}

CsrMatrix BuildItemItemGraph(const Matrix& features,
                             const KnnGraphOptions& options) {
  return BuildItemKnnAdjacency(features, options).SymNormalized();
}

CsrMatrix ExpandColdKnnAdjacency(const Matrix& features,
                                 const KnnLists& warm_lists,
                                 const std::vector<bool>& is_cold_item,
                                 ThreadPool* pool) {
  const Index n = features.rows();
  const Index d = features.cols();
  FIRZEN_CHECK_EQ(static_cast<Index>(is_cold_item.size()), n);
  FIRZEN_CHECK_EQ(static_cast<Index>(warm_lists.rows.size()), n);
  // cold_slot[a]: a's row in the cold panel, or -1 for a warm item.
  std::vector<Index> cold;
  std::vector<Index> cold_slot(static_cast<size_t>(n), -1);
  for (Index a = 0; a < n; ++a) {
    const bool a_cold = is_cold_item[static_cast<size_t>(a)];
    // The warm-only build lists every warm row and no cold one.
    FIRZEN_CHECK_EQ(a_cold, warm_lists.rows[static_cast<size_t>(a)].empty());
    if (!a_cold) continue;
    cold_slot[static_cast<size_t>(a)] = static_cast<Index>(cold.size());
    cold.push_back(a);
  }
  const Index num_cold = static_cast<Index>(cold.size());
  // The all-item build's k (the warm lists may be shorter).
  const Index k = std::min<Index>(warm_lists.top_k, n - 1);

  // Cold rows x all items in one GemmBT panel. Read by column, it is also
  // the warm rows x cold items block: cells (c, w) and (w, c) are the same
  // p-ordered multiply-add chain, since each step's product commutes.
  const Matrix normalized = L2NormalizedRows(features);
  Matrix sims;
  if (num_cold > 0) {
    Matrix cold_rows;
    cold_rows.ResizeUninitialized(num_cold, d);
    for (Index j = 0; j < num_cold; ++j) {
      const Real* src = normalized.row(cold[static_cast<size_t>(j)]);
      std::copy(src, src + d, cold_rows.row(j));
    }
    sims.ResizeUninitialized(num_cold, n);
    GemmBT(cold_rows, normalized.data(), n, MatrixView(&sims), pool);
  }

  // A cold row selects over all items. A warm row's all-item top-k is the
  // top-k of its warm list plus every cold item: a warm item outside the
  // list ranks below at least k_warm >= k warm items, unless the list
  // already holds every other warm item. Its cold entries are then masked.
  KnnLists expanded;
  expanded.top_k = warm_lists.top_k;
  expanded.rows.resize(static_cast<size_t>(n));
  ParallelFor(
      pool, n,
      [&](Index begin, Index end) {
        TopKHeap heap(k);
        for (Index a = begin; a < end; ++a) {
          heap.Reset();
          std::vector<ScoredItem>& out =
              expanded.rows[static_cast<size_t>(a)];
          const Index slot = cold_slot[static_cast<size_t>(a)];
          if (slot >= 0) {
            SelectTopK(
                sims.row(slot), n, /*first_item=*/0,
                [a](Index b) { return b != a; }, &heap);
            out = heap.Sorted();
            continue;
          }
          for (const ScoredItem& e : warm_lists.rows[static_cast<size_t>(a)]) {
            heap.Push(e.item, e.score);
          }
          for (Index j = 0; j < num_cold; ++j) {
            heap.Push(cold[static_cast<size_t>(j)], sims(j, a));
          }
          for (const ScoredItem& e : heap.Sorted()) {
            if (cold_slot[static_cast<size_t>(e.item)] < 0) out.push_back(e);
          }
        }
      },
      /*min_shard_size=*/64);
  return KnnListsToAdjacency(expanded);
}

}  // namespace firzen
