#include "src/models/bpr_mf.h"

#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

void BprMf::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  Tensor user_table = XavierVariable(dataset.num_users,
                                     options.embedding_dim, &rng);
  Tensor item_table = XavierVariable(dataset.num_items,
                                     options.embedding_dim, &rng);

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  adam_options.lazy = true;
  Adam optimizer(adam_options);

  EpochLoop loop;
  loop.step = [&](const BprBatch& batch) {
    Tensor eu = GatherRows(user_table, batch.users);
    Tensor ep = GatherRows(item_table, batch.pos);
    Tensor en = GatherRows(item_table, batch.neg);
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({eu, ep, en}, options.reg, options.batch_size));
    Backward(loss);
    optimizer.Step({user_table, item_table});
    return loss.scalar();
  };
  loop.compute_final = [&] {
    final_user_ = user_table.value();
    final_item_ = item_table.value();
  };
  RunEpochs(dataset, options, loop);
}

}  // namespace firzen
