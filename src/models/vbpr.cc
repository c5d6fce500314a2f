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
    Matrix content;
    Gemm(false, false, 1.0, features.value(), proj.value(), 0.0, &content);
    final_user_.Resize(dataset.num_users, 2 * d);
    final_item_.Resize(dataset.num_items, 2 * d);
    for (Index u = 0; u < dataset.num_users; ++u) {
      for (Index c = 0; c < d; ++c) {
        final_user_(u, c) = user_id.value()(u, c);
        final_user_(u, d + c) = user_visual.value()(u, c);
      }
    }
    for (Index i = 0; i < dataset.num_items; ++i) {
      for (Index c = 0; c < d; ++c) {
        final_item_(i, c) = item_id.value()(i, c);
        final_item_(i, d + c) = content(i, c);
      }
    }
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
