// The central dataset container: interactions with strict cold-start splits,
// multi-modal item features and the item knowledge graph.
#ifndef FIRZEN_DATA_DATASET_H_
#define FIRZEN_DATA_DATASET_H_

#include <string>
#include <vector>

#include "src/data/kg.h"
#include "src/tensor/matrix.h"
#include "src/util/common.h"

namespace firzen {

/// One observed user-item interaction (implicit feedback).
struct Interaction {
  Index user;
  Index item;
};

/// A named per-item dense feature table (one modality).
struct Modality {
  std::string name;       // "text" or "image"
  Matrix features;        // num_items x dim, row i = raw features of item i
};

/// Recommendation dataset with the paper's strict cold-start arrangement:
///   * 20% of items are strict cold: they appear in NO training interaction
///     and their held-out interactions form cold validation/test sets.
///   * Warm interactions are split 8:1:1 into train / warm-val / warm-test.
/// For the normal cold-start protocol (Table VI) the cold sets are further
/// split into `known` links (revealed at inference) and `unknown` targets.
struct Dataset {
  std::string name;
  Index num_users = 0;
  Index num_items = 0;

  std::vector<Interaction> train;
  std::vector<Interaction> warm_val;
  std::vector<Interaction> warm_test;
  std::vector<Interaction> cold_val;
  std::vector<Interaction> cold_test;

  /// Normal cold-start extension: interaction links of cold items revealed
  /// at inference time (empty under the strict protocol).
  std::vector<Interaction> cold_known;

  /// is_cold_item[i] == true iff item i is a strict cold-start item.
  std::vector<bool> is_cold_item;

  std::vector<Modality> modalities;
  KnowledgeGraph kg;

  // ---- Derived helpers ----

  /// Items with is_cold_item == false.
  std::vector<Index> WarmItems() const;

  /// Items with is_cold_item == true.
  std::vector<Index> ColdItems() const;

  /// Per-user sorted unique train item lists (size num_users).
  std::vector<std::vector<Index>> TrainItemsByUser() const;

  /// Sanity checks on all invariants (cold items absent from train, index
  /// ranges, feature table shapes). Aborts on violation.
  void CheckValid() const;
};

}  // namespace firzen

#endif  // FIRZEN_DATA_DATASET_H_
