#include "src/graph/knn_graph.h"

#include <algorithm>
#include <numeric>

#include "src/util/check.h"
#include "src/util/ranking.h"

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

}  // namespace

CsrMatrix BuildItemKnnAdjacency(const Matrix& features,
                                const KnnGraphOptions& options) {
  const Index n = features.rows();
  const Index d = features.cols();
  FIRZEN_CHECK_GT(options.top_k, 0);

  std::vector<bool> is_candidate(static_cast<size_t>(n),
                                 options.candidate_items.empty());
  for (Index b : options.candidate_items) {
    is_candidate[static_cast<size_t>(b)] = true;
  }
  const Index num_candidates = static_cast<Index>(
      std::count(is_candidate.begin(), is_candidate.end(), true));
  std::vector<Index> queries = options.query_items;
  if (queries.empty()) {
    queries.resize(static_cast<size_t>(n));
    std::iota(queries.begin(), queries.end(), Index{0});
  }
  const Index num_queries = static_cast<Index>(queries.size());

  const Matrix normalized = L2NormalizedRows(features);
  const Index k = std::min<Index>(options.top_k, num_candidates - 1);
  FIRZEN_CHECK_GT(k, 0);

  // Each query block is scored against every row with GemmBT, whose cells
  // are each one p-ordered multiply-add chain from +0.0, then every query
  // selects its top-k candidates (itself excluded) through SelectTopK.
  // Each query writes only its own slot, so workers share nothing.
  std::vector<std::vector<Index>> neighbors(queries.size());
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
            std::vector<Index>& out = neighbors[static_cast<size_t>(q0 + r)];
            for (const ScoredItem& e : heap.Sorted()) out.push_back(e.item);
          }
        }
      },
      /*min_shard_size=*/1);

  std::vector<CooEntry> entries;
  entries.reserve(queries.size() * static_cast<size_t>(k));
  for (size_t q = 0; q < queries.size(); ++q) {
    for (Index b : neighbors[q]) entries.push_back({queries[q], b, 1.0});
  }
  return CsrMatrix::FromCoo(n, n, std::move(entries));
}

CsrMatrix BuildItemItemGraph(const Matrix& features,
                             const KnnGraphOptions& options) {
  return BuildItemKnnAdjacency(features, options).SymNormalized();
}

}  // namespace firzen
