#include "src/models/dropoutnet.h"

#include "src/models/mm_common.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

Tensor DropoutNet::UserTower(const Tensor& user_rows) const {
  using namespace ops;  // NOLINT(build/namespaces)
  return Tanh(AddRowBroadcast(MatMul(user_rows, w_user_), bias_user_));
}

Tensor DropoutNet::ItemTower(const Tensor& behavior,
                             const Tensor& content) const {
  using namespace ops;  // NOLINT(build/namespaces)
  Tensor projected = MatMul(content, w_content_);
  return Tanh(AddRowBroadcast(Add(MatMul(behavior, w_behavior_), projected),
                              bias_item_));
}

void DropoutNet::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  const Index d = options.embedding_dim;

  Matrix raw = ConcatModalFeatures(dataset);
  StandardizeColumns(&raw);
  features_ = Tensor::Constant(std::move(raw));

  user_table_ = XavierVariable(dataset.num_users, d, &rng);
  item_table_ = XavierVariable(dataset.num_items, d, &rng);
  w_user_ = XavierVariable(d, d, &rng);
  w_behavior_ = XavierVariable(d, d, &rng);
  w_content_ = XavierVariable(features_.cols(), d, &rng);
  bias_user_ = ZerosVariable(1, d);
  bias_item_ = ZerosVariable(1, d);

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);
  Rng drop_rng(options.seed + 7);

  // Item tower with a per-row behavior dropout mask on e_i.
  auto item_tower = [&](const std::vector<Index>& items) {
    Tensor behavior = GatherRows(item_table_, items);
    if (options_.behavior_dropout > 0.0) {
      Matrix mask(static_cast<Index>(items.size()), 1);
      for (Index r = 0; r < mask.rows(); ++r) {
        mask(r, 0) = drop_rng.Bernoulli(options_.behavior_dropout) ? 0.0 : 1.0;
      }
      behavior = RowScale(behavior, Tensor::Constant(std::move(mask)));
    }
    return ItemTower(behavior, GatherRows(features_, items));
  };

  EpochLoop loop;
  loop.compute_final = [&] {
    final_user_ = UserTower(user_table_).value();
    RecomputeItems(dataset, /*cold_behavior=*/false,
                   /*use_known_links=*/false);
  };

  // No best-state restore: PrepareColdInference recomputes item towers
  // from the current parameters, so the final state must stay consistent
  // with them.
  loop.keep_best = false;
  loop.step = [&](const BprBatch& batch) {
    Tensor eu = UserTower(GatherRows(user_table_, batch.users));
    Tensor ep = item_tower(batch.pos);
    Tensor en = item_tower(batch.neg);
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({GatherRows(user_table_, batch.users),
                               GatherRows(item_table_, batch.pos)},
                              options.reg, options.batch_size));
    Backward(loss);
    optimizer.Step({user_table_, item_table_, w_user_, w_behavior_,
                    w_content_, bias_user_, bias_item_});
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

void DropoutNet::RecomputeItems(const Dataset& dataset, bool cold_behavior,
                                bool use_known_links) {
  if (!cold_behavior) {
    final_item_ = ItemTower(item_table_, features_).value();
    return;
  }
  const Index d = item_table_.cols();
  const Matrix& user_table = user_table_.value();
  // Mean user embedding over revealed links (normal cold), else zeros.
  std::vector<Index> known_count(static_cast<size_t>(dataset.num_items), 0);
  Matrix known_mean(dataset.num_items, d);
  if (use_known_links) {
    for (const Interaction& x : dataset.cold_known) {
      ++known_count[static_cast<size_t>(x.item)];
      for (Index c = 0; c < d; ++c) {
        known_mean(x.item, c) += user_table(x.user, c);
      }
    }
  }
  Matrix behavior = item_table_.value();
  for (Index i = 0; i < dataset.num_items; ++i) {
    if (!dataset.is_cold_item[static_cast<size_t>(i)]) continue;
    for (Index c = 0; c < d; ++c) {
      behavior(i, c) =
          known_count[static_cast<size_t>(i)] > 0
              ? known_mean(i, c) /
                    static_cast<Real>(known_count[static_cast<size_t>(i)])
              : 0.0;
    }
  }
  final_item_ =
      ItemTower(Tensor::Constant(std::move(behavior)), features_).value();
}

void DropoutNet::PrepareColdInference(const Dataset& dataset) {
  RecomputeItems(dataset, /*cold_behavior=*/true, /*use_known_links=*/false);
}

void DropoutNet::PrepareNormalColdInference(const Dataset& dataset) {
  RecomputeItems(dataset, /*cold_behavior=*/true, /*use_known_links=*/true);
}

}  // namespace firzen
