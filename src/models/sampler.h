// BPR triple sampling (user, positive item, negative item) over training
// interactions. Negatives are drawn uniformly from warm items the user has
// not interacted with — strict cold items are never sampled (they do not
// exist at training time).
#ifndef FIRZEN_MODELS_SAMPLER_H_
#define FIRZEN_MODELS_SAMPLER_H_

#include <vector>

#include "src/data/dataset.h"
#include "src/util/rng.h"

namespace firzen {

class BprSampler {
 public:
  BprSampler(const Dataset& dataset, uint64_t seed);

  struct Triple {
    Index user;
    Index pos;
    Index neg;
  };

  /// One (u, i+, i-) triple; user sampled proportional to interaction count
  /// (uniform over training interactions).
  Triple Sample();

  /// Batch of triples into parallel id arrays.
  void SampleBatch(Index batch_size, std::vector<Index>* users,
                   std::vector<Index>* pos, std::vector<Index>* neg);

  /// Uniform batch of distinct-ish users with >= 1 training interaction.
  std::vector<Index> SampleUsers(Index count);

  /// Uniform batch of warm items.
  std::vector<Index> SampleWarmItems(Index count);

  const std::vector<std::vector<Index>>& items_by_user() const {
    return items_by_user_;
  }

 private:
  bool UserHasItem(Index user, Index item) const;

  std::vector<Interaction> train_;
  std::vector<std::vector<Index>> items_by_user_;  // sorted
  std::vector<Index> warm_items_;
  std::vector<Index> active_users_;
  Rng rng_;
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_SAMPLER_H_
