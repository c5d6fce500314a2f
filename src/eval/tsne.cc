#include "src/eval/tsne.h"

#include <algorithm>
#include <cmath>

#include "src/graph/knn_graph.h"
#include "src/util/check.h"

namespace firzen {
namespace {

// Pairwise squared Euclidean distances.
Matrix SquaredDistances(const Matrix& x) {
  const Index n = x.rows();
  const Index d = x.cols();
  Matrix dist(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) {
      Real acc = 0.0;
      const Real* a = x.row(i);
      const Real* b = x.row(j);
      for (Index c = 0; c < d; ++c) {
        const Real diff = a[c] - b[c];
        acc += diff * diff;
      }
      dist(i, j) = acc;
      dist(j, i) = acc;
    }
  }
  return dist;
}

// Binary-searches the Gaussian bandwidth of row i to match log(perplexity),
// then writes conditional probabilities p_{j|i}.
void RowConditionals(const Matrix& dist, Index i, Real target_entropy,
                     Matrix* p) {
  const Index n = dist.rows();
  Real beta = 1.0;
  Real beta_lo = 0.0;
  Real beta_hi = 1e30;
  for (int iter = 0; iter < 64; ++iter) {
    Real sum = 0.0;
    Real weighted = 0.0;
    for (Index j = 0; j < n; ++j) {
      if (j == i) continue;
      const Real w = std::exp(-beta * dist(i, j));
      sum += w;
      weighted += w * dist(i, j);
    }
    if (sum <= 1e-300) {
      beta_hi = beta;
      beta = (beta_lo + beta) / 2.0;
      continue;
    }
    const Real entropy = std::log(sum) + beta * weighted / sum;
    const Real diff = entropy - target_entropy;
    if (std::abs(diff) < 1e-5) break;
    if (diff > 0) {
      beta_lo = beta;
      beta = beta_hi > 1e29 ? beta * 2.0 : (beta + beta_hi) / 2.0;
    } else {
      beta_hi = beta;
      beta = (beta + beta_lo) / 2.0;
    }
  }
  Real sum = 0.0;
  for (Index j = 0; j < n; ++j) {
    if (j == i) continue;
    (*p)(i, j) = std::exp(-beta * dist(i, j));
    sum += (*p)(i, j);
  }
  if (sum <= 1e-300) sum = 1e-300;
  for (Index j = 0; j < n; ++j) {
    if (j != i) (*p)(i, j) /= sum;
  }
}

}  // namespace

Matrix TsneEmbed(const Matrix& x, const TsneOptions& options) {
  const Index n = x.rows();
  FIRZEN_CHECK_GT(n, 2);
  const Matrix dist = SquaredDistances(x);

  // Symmetrized joint probabilities.
  Matrix p(n, n);
  const Real target_entropy =
      std::log(std::min<Real>(options.perplexity, static_cast<Real>(n - 1)));
  for (Index i = 0; i < n; ++i) RowConditionals(dist, i, target_entropy, &p);
  Matrix joint(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      joint(i, j) =
          std::max((p(i, j) + p(j, i)) / (2.0 * static_cast<Real>(n)), 1e-12);
    }
  }

  Rng rng(options.seed);
  Matrix y(n, 2);
  y.FillNormal(&rng, 1e-2);
  Matrix velocity(n, 2);
  Matrix grad(n, 2);
  Matrix q_num(n, n);

  for (int iter = 0; iter < options.iterations; ++iter) {
    const Real exaggeration =
        iter < options.exaggeration_iters ? options.early_exaggeration : 1.0;
    // Student-t numerators and normalizer.
    Real q_sum = 0.0;
    for (Index i = 0; i < n; ++i) {
      for (Index j = i + 1; j < n; ++j) {
        const Real dy0 = y(i, 0) - y(j, 0);
        const Real dy1 = y(i, 1) - y(j, 1);
        const Real num = 1.0 / (1.0 + dy0 * dy0 + dy1 * dy1);
        q_num(i, j) = num;
        q_num(j, i) = num;
        q_sum += 2.0 * num;
      }
    }
    q_sum = std::max(q_sum, 1e-12);

    grad.Zero();
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        if (i == j) continue;
        const Real q = std::max(q_num(i, j) / q_sum, 1e-12);
        const Real coeff =
            4.0 * (exaggeration * joint(i, j) - q) * q_num(i, j);
        grad(i, 0) += coeff * (y(i, 0) - y(j, 0));
        grad(i, 1) += coeff * (y(i, 1) - y(j, 1));
      }
    }
    for (Index i = 0; i < n; ++i) {
      for (Index c = 0; c < 2; ++c) {
        velocity(i, c) = options.momentum * velocity(i, c) -
                         options.learning_rate * grad(i, c);
        y(i, c) += velocity(i, c);
      }
    }
  }
  return y;
}

MixingStats ComputeMixingStats(const Matrix& embeddings,
                               const std::vector<bool>& is_cold, Index knn_k) {
  const Index n = embeddings.rows();
  FIRZEN_CHECK_EQ(static_cast<Index>(is_cold.size()), n);
  FIRZEN_CHECK_GT(knn_k, 0);
  MixingStats stats;

  // Each cold item's cosine kNN over all items, selected the way the
  // frozen item-item graphs are (Eq. 2).
  KnnGraphOptions knn;
  knn.top_k = knn_k;
  for (Index i = 0; i < n; ++i) {
    if (is_cold[static_cast<size_t>(i)]) knn.query_items.push_back(i);
  }
  const Index cold_count = static_cast<Index>(knn.query_items.size());
  if (cold_count > 0) {
    const CsrMatrix neighbors = BuildItemKnnAdjacency(embeddings, knn);
    Real mix_total = 0.0;
    for (Index i : knn.query_items) {
      Index warm_neighbors = 0;
      for (Index p = neighbors.row_ptr()[i]; p < neighbors.row_ptr()[i + 1];
           ++p) {
        const Index j = neighbors.col_idx()[static_cast<size_t>(p)];
        if (!is_cold[static_cast<size_t>(j)]) ++warm_neighbors;
      }
      mix_total += static_cast<Real>(warm_neighbors) /
                   static_cast<Real>(neighbors.RowNnz(i));
    }
    stats.cold_warm_knn_mix = mix_total / static_cast<Real>(cold_count);
  }

  // Centroid distance normalized by mean warm pairwise distance.
  const Index d = embeddings.cols();
  Matrix cold_centroid(1, d);
  Matrix warm_centroid(1, d);
  Index warm_count = 0;
  for (Index i = 0; i < n; ++i) {
    if (is_cold[static_cast<size_t>(i)]) {
      for (Index c = 0; c < d; ++c) cold_centroid(0, c) += embeddings(i, c);
    } else {
      ++warm_count;
      for (Index c = 0; c < d; ++c) warm_centroid(0, c) += embeddings(i, c);
    }
  }
  if (cold_count > 0 && warm_count > 1) {
    cold_centroid.Scale(1.0 / static_cast<Real>(cold_count));
    warm_centroid.Scale(1.0 / static_cast<Real>(warm_count));
    Real centroid_dist = 0.0;
    for (Index c = 0; c < d; ++c) {
      const Real diff = cold_centroid(0, c) - warm_centroid(0, c);
      centroid_dist += diff * diff;
    }
    centroid_dist = std::sqrt(centroid_dist);
    // Sampled mean warm pairwise distance.
    Real warm_pairwise = 0.0;
    Index pairs = 0;
    for (Index i = 0; i < n && pairs < 4000; ++i) {
      if (is_cold[static_cast<size_t>(i)]) continue;
      for (Index j = i + 1; j < n && pairs < 4000; ++j) {
        if (is_cold[static_cast<size_t>(j)]) continue;
        Real acc = 0.0;
        for (Index c = 0; c < d; ++c) {
          const Real diff = embeddings(i, c) - embeddings(j, c);
          acc += diff * diff;
        }
        warm_pairwise += std::sqrt(acc);
        ++pairs;
      }
    }
    if (pairs > 0 && warm_pairwise > 0.0) {
      stats.centroid_distance_ratio =
          centroid_dist / (warm_pairwise / static_cast<Real>(pairs));
    }
  }
  return stats;
}

}  // namespace firzen
