#include "src/models/dropoutnet.h"

#include <cmath>

#include "src/models/mm_common.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

void DropoutNet::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  const Index d = options.embedding_dim;

  Matrix raw = ConcatModalFeatures(dataset);
  StandardizeColumns(&raw);
  features_ = raw;
  Tensor features = Tensor::Constant(std::move(raw));

  Tensor user_table = XavierVariable(dataset.num_users, d, &rng);
  Tensor item_table = XavierVariable(dataset.num_items, d, &rng);
  Tensor w_user = XavierVariable(d, d, &rng);
  Tensor w_behavior = XavierVariable(d, d, &rng);
  Tensor w_content = XavierVariable(features.cols(), d, &rng);
  Tensor bias_user = ZerosVariable(1, d);
  Tensor bias_item = ZerosVariable(1, d);

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);
  Rng drop_rng(options.seed + 7);

  auto user_tower = [&](const std::vector<Index>& users) {
    return Tanh(AddRowBroadcast(
        MatMul(GatherRows(user_table, users), w_user), bias_user));
  };
  // Item tower with per-row behavior dropout mask: tanh(mask.e_i Wb + f Wc).
  auto item_tower = [&](const std::vector<Index>& items, bool training) {
    Tensor behavior = GatherRows(item_table, items);
    if (training && options_.behavior_dropout > 0.0) {
      Matrix mask(static_cast<Index>(items.size()), 1);
      for (Index r = 0; r < mask.rows(); ++r) {
        mask(r, 0) =
            drop_rng.Bernoulli(options_.behavior_dropout) ? 0.0 : 1.0;
      }
      behavior = RowScale(behavior, Tensor::Constant(std::move(mask)));
    }
    Tensor content = MatMul(GatherRows(features, items), w_content);
    return Tanh(AddRowBroadcast(
        Add(MatMul(behavior, w_behavior), content), bias_item));
  };

  auto snapshot = [&] {
    user_table_ = user_table.value();
    item_table_ = item_table.value();
    w_user_ = w_user.value();
    w_behavior_ = w_behavior.value();
    w_content_ = w_content.value();
    bias_user_ = bias_user.value();
    bias_item_ = bias_item.value();
  };

  EpochLoop loop;
  loop.compute_final = [&] {
    snapshot();
    // Users.
    Matrix hu;
    Gemm(false, false, 1.0, user_table_, w_user_, 0.0, &hu);
    final_user_.Resize(dataset.num_users, d);
    for (Index u = 0; u < dataset.num_users; ++u) {
      for (Index c = 0; c < d; ++c) {
        final_user_(u, c) = std::tanh(hu(u, c) + bias_user_(0, c));
      }
    }
    RecomputeItems(dataset, /*zero_cold_behavior=*/false,
                   /*use_known_links=*/false);
  };

  // No best-state restore: PrepareColdInference recomputes item towers
  // from the stored tables, so the final state must stay consistent with
  // them.
  loop.keep_best = false;
  loop.step = [&](const BprBatch& batch) {
    Tensor eu = user_tower(batch.users);
    Tensor ep = item_tower(batch.pos, true);
    Tensor en = item_tower(batch.neg, true);
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({GatherRows(user_table, batch.users),
                               GatherRows(item_table, batch.pos)},
                              options.reg, options.batch_size));
    Backward(loss);
    optimizer.Step({user_table, item_table, w_user, w_behavior, w_content,
                    bias_user, bias_item});
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

void DropoutNet::RecomputeItems(const Dataset& dataset,
                                bool zero_cold_behavior,
                                bool use_known_links) {
  const Index d = item_table_.cols();
  Matrix behavior = item_table_;
  if (zero_cold_behavior || use_known_links) {
    // Mean user embedding over revealed links (normal cold), else zeros.
    std::vector<Index> known_count(static_cast<size_t>(dataset.num_items), 0);
    Matrix known_mean(dataset.num_items, d);
    if (use_known_links) {
      for (const Interaction& x : dataset.cold_known) {
        ++known_count[static_cast<size_t>(x.item)];
        for (Index c = 0; c < d; ++c) {
          known_mean(x.item, c) += user_table_(x.user, c);
        }
      }
    }
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
  }
  Matrix hb;
  Gemm(false, false, 1.0, behavior, w_behavior_, 0.0, &hb);
  Matrix hc;
  Gemm(false, false, 1.0, features_, w_content_, 0.0, &hc);
  final_item_.Resize(dataset.num_items, d);
  for (Index i = 0; i < dataset.num_items; ++i) {
    for (Index c = 0; c < d; ++c) {
      final_item_(i, c) =
          std::tanh(hb(i, c) + hc(i, c) + bias_item_(0, c));
    }
  }
}

void DropoutNet::PrepareColdInference(const Dataset& dataset) {
  RecomputeItems(dataset, /*zero_cold_behavior=*/true,
                 /*use_known_links=*/false);
}

void DropoutNet::PrepareNormalColdInference(const Dataset& dataset) {
  RecomputeItems(dataset, /*zero_cold_behavior=*/true,
                 /*use_known_links=*/true);
}

}  // namespace firzen
