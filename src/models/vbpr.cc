#include "src/models/vbpr.h"

#include "src/models/mm_common.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

void Vbpr::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  const Index d = options.embedding_dim;
  Matrix raw = ConcatModalFeatures(dataset);
  StandardizeColumns(&raw);
  Tensor features = Tensor::Constant(std::move(raw));

  Tensor user_id = XavierVariable(dataset.num_users, d, &rng);
  Tensor item_id = XavierVariable(dataset.num_items, d, &rng);
  Tensor user_visual = XavierVariable(dataset.num_users, d, &rng);
  Tensor proj = XavierVariable(features.cols(), d, &rng);

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);

  EpochLoop loop;
  loop.compute_final = [&] {
    // Concatenated towers make the two dot products one:
    //   [e_u | v_u] . [e_i | W f_i].
    final_user_ = ConcatCols({user_id, user_visual}).value();
    final_item_ = ConcatCols({item_id, MatMul(features, proj)}).value();
  };

  loop.step = [&](const BprBatch& batch) {
    Tensor eu = GatherRows(user_id, batch.users);
    Tensor vu = GatherRows(user_visual, batch.users);
    Tensor ep = GatherRows(item_id, batch.pos);
    Tensor en = GatherRows(item_id, batch.neg);
    Tensor fp = MatMul(GatherRows(features, batch.pos), proj);
    Tensor fn = MatMul(GatherRows(features, batch.neg), proj);
    Tensor pos_score = Add(RowDot(eu, ep), RowDot(vu, fp));
    Tensor neg_score = Add(RowDot(eu, en), RowDot(vu, fn));
    Tensor rank =
        Scale(ReduceMean(LogSigmoid(Sub(pos_score, neg_score))), -1.0);
    Tensor loss = Add(rank, BatchL2({eu, vu, ep, en, proj}, options.reg,
                                    options.batch_size));
    Backward(loss);
    optimizer.Step({user_id, item_id, user_visual, proj});
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

}  // namespace firzen
