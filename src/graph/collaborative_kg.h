// Collaborative knowledge graph (paper §III-B.1, following KGAT): the
// user-item interaction graph is merged with the item KG into one relational
// graph. Entity layout: [KG entities (items first) | users]. Each interaction
// becomes a (user, Interact, item) triplet; reverse edges get distinct
// relation ids so attention can differentiate direction.
#ifndef FIRZEN_GRAPH_COLLABORATIVE_KG_H_
#define FIRZEN_GRAPH_COLLABORATIVE_KG_H_

#include <vector>

#include "src/data/dataset.h"
#include "src/tensor/csr.h"

namespace firzen {

/// Frozen collaborative KG with per-edge relation ids aligned to the CSR
/// storage order (multigraph: parallel edges with different relations kept).
struct CollaborativeKg {
  Index num_entities = 0;     // num_kg_entities + num_users
  Index num_relations = 0;    // 2 * (R + 1): forward + Interact + reverses
  Index num_users = 0;
  Index num_items = 0;
  Index num_kg_entities = 0;  // items are entities [0, num_items)

  /// All triplets over CKG entity ids (including reverse edges).
  std::vector<Triplet> triplets;

  /// Head-major topology; stored entry p corresponds to triplets[p].
  CsrMatrix topology;

  /// Relation id of stored edge p (size nnz), aligned with `topology`.
  std::vector<Index> edge_relation;

  Index ItemEntity(Index item) const { return item; }
  Index UserEntity(Index user) const { return num_kg_entities + user; }
};

/// Builds the frozen CKG from training interactions and the item KG.
/// Reverse triplets are always added (relation r -> r + R + 1).
CollaborativeKg BuildCollaborativeKg(
    const std::vector<Interaction>& interactions, Index num_users,
    const KnowledgeGraph& kg);

}  // namespace firzen

#endif  // FIRZEN_GRAPH_COLLABORATIVE_KG_H_
