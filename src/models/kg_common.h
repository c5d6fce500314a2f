// Shared machinery for knowledge-aware models (CKE, KGAT, KGCN, KGNN-LS,
// MKGAT and Firzen's knowledge-aware branch):
//  * diagonal-TransR triplet scoring + pairwise ranking loss (Eqs. 30-31;
//    the full d x d relation projection is replaced by a per-relation
//    diagonal — see DESIGN.md §2 substitutions),
//  * per-epoch knowledge-aware attention over the frozen CKG topology
//    (Eqs. 9-11), computed outside the autograd tape exactly like the
//    reference KGAT's update_attentive_A,
//  * the bi-interaction aggregator (Eq. 13).
#ifndef FIRZEN_MODELS_KG_COMMON_H_
#define FIRZEN_MODELS_KG_COMMON_H_

#include <memory>
#include <vector>

#include "src/graph/collaborative_kg.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace firzen {

/// Trainable KG representation: entity table, relation table and diagonal
/// relation projections.
struct KgEmbeddings {
  Tensor entity;    // E x d
  Tensor relation;  // R x d
  Tensor rel_proj;  // R x d (diagonal TransR projection weights)
};

KgEmbeddings MakeKgEmbeddings(Index num_entities, Index num_relations,
                              Index dim, Rng* rng);

/// Sampled triplet batch with uniformly corrupted negative tails.
struct KgBatch {
  std::vector<Index> heads;
  std::vector<Index> relations;
  std::vector<Index> pos_tails;
  std::vector<Index> neg_tails;
};

KgBatch SampleKgBatch(const std::vector<Triplet>& triplets,
                      Index num_entities, Index batch_size, Rng* rng);

/// sc(h, r, t) = -||w_r . e_h + e_r - w_r . e_t||^2 per batch row (B x 1).
Tensor TransRScore(const KgEmbeddings& kg, const std::vector<Index>& heads,
                   const std::vector<Index>& relations,
                   const std::vector<Index>& tails);

/// L_KG = mean softplus(sc_neg - sc_pos) + reg * batch L2 (Eq. 30).
Tensor TransRLoss(const KgEmbeddings& kg, const KgBatch& batch, Real reg);

/// Knowledge-aware attention values over the frozen CKG topology:
/// pi(h,r,t) = (w_r . x_t)^T tanh(w_r . x_h + x_r), row-softmax over each
/// head's ego network (Eqs. 9-11). Computed from detached current values.
/// The tanh term depends only on (h, r), so it is computed once per
/// distinct (head, relation) pair, not once per edge; each edge still sums
/// its channels in order, so the values are bit-identical to a per-edge
/// loop (core_components_test pins this).
CsrMatrix ComputeKgAttention(const CollaborativeKg& ckg, const Matrix& entity,
                             const Matrix& relation, const Matrix& rel_proj);

/// Bi-interaction aggregator (Eq. 13):
/// LeakyReLU((x + Ax) W1) + LeakyReLU((x . Ax) W2).
Tensor BiInteraction(const std::shared_ptr<const CsrMatrix>& attention,
                     const Tensor& x, const Tensor& w1, const Tensor& w2);

}  // namespace firzen

#endif  // FIRZEN_MODELS_KG_COMMON_H_
