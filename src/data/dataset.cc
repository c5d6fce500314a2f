#include "src/data/dataset.h"

#include <algorithm>

#include "src/util/check.h"

namespace firzen {

void KnowledgeGraph::CheckValid() const {
  FIRZEN_CHECK_GE(num_items, 0);
  FIRZEN_CHECK_LE(num_items, num_entities);
  if (!entity_type.empty()) {
    FIRZEN_CHECK_EQ(static_cast<Index>(entity_type.size()), num_entities);
  }
  for (const Triplet& t : triplets) {
    FIRZEN_CHECK_GE(t.head, 0);
    FIRZEN_CHECK_LT(t.head, num_entities);
    FIRZEN_CHECK_GE(t.tail, 0);
    FIRZEN_CHECK_LT(t.tail, num_entities);
    FIRZEN_CHECK_GE(t.relation, 0);
    FIRZEN_CHECK_LT(t.relation, num_relations);
  }
}

std::vector<Index> Dataset::WarmItems() const {
  std::vector<Index> out;
  for (Index i = 0; i < num_items; ++i) {
    if (!is_cold_item[static_cast<size_t>(i)]) out.push_back(i);
  }
  return out;
}

std::vector<Index> Dataset::ColdItems() const {
  std::vector<Index> out;
  for (Index i = 0; i < num_items; ++i) {
    if (is_cold_item[static_cast<size_t>(i)]) out.push_back(i);
  }
  return out;
}

std::vector<std::vector<Index>> Dataset::TrainItemsByUser() const {
  std::vector<std::vector<Index>> out(static_cast<size_t>(num_users));
  for (const Interaction& x : train) {
    out[static_cast<size_t>(x.user)].push_back(x.item);
  }
  for (auto& items : out) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
  }
  return out;
}

void Dataset::CheckValid() const {
  FIRZEN_CHECK_GT(num_users, 0);
  FIRZEN_CHECK_GT(num_items, 0);
  FIRZEN_CHECK_EQ(static_cast<Index>(is_cold_item.size()), num_items);

  auto check_split = [&](const std::vector<Interaction>& split,
                         bool must_be_cold, bool must_be_warm) {
    for (const Interaction& x : split) {
      FIRZEN_CHECK_GE(x.user, 0);
      FIRZEN_CHECK_LT(x.user, num_users);
      FIRZEN_CHECK_GE(x.item, 0);
      FIRZEN_CHECK_LT(x.item, num_items);
      if (must_be_cold) {
        FIRZEN_CHECK(is_cold_item[static_cast<size_t>(x.item)]);
      }
      if (must_be_warm) {
        FIRZEN_CHECK(!is_cold_item[static_cast<size_t>(x.item)]);
      }
    }
  };
  check_split(train, false, /*must_be_warm=*/true);
  check_split(warm_val, false, true);
  check_split(warm_test, false, true);
  check_split(cold_val, /*must_be_cold=*/true, false);
  check_split(cold_test, true, false);
  check_split(cold_known, true, false);

  for (const Modality& m : modalities) {
    FIRZEN_CHECK_EQ(m.features.rows(), num_items);
    FIRZEN_CHECK_GT(m.features.cols(), 0);
  }
  if (kg.num_entities > 0) {
    FIRZEN_CHECK_EQ(kg.num_items, num_items);
    kg.CheckValid();
  }
}

}  // namespace firzen
