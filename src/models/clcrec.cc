#include "src/models/clcrec.h"

#include "src/models/mm_common.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

void ClcRec::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  const Index d = options.embedding_dim;
  const Real a = options_.hybrid_alpha;

  Matrix raw = ConcatModalFeatures(dataset);
  StandardizeColumns(&raw);
  Tensor features = Tensor::Constant(std::move(raw));

  Tensor user_table = XavierVariable(dataset.num_users, d, &rng);
  Tensor item_table = XavierVariable(dataset.num_items, d, &rng);
  Tensor enc1 = XavierVariable(features.cols(), options_.hidden_dim, &rng);
  Tensor enc2 = XavierVariable(options_.hidden_dim, d, &rng);

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);

  auto encode = [&](const Tensor& f) {
    return MatMul(LeakyRelu(MatMul(f, enc1)), enc2);
  };

  EpochLoop loop;
  loop.compute_final = [&] {
    Tensor c = encode(features);
    content_ = c.value();
    final_user_ = user_table.value();
    hybrid_.Resize(dataset.num_items, d);
    // A hand blend, not the tape's Add(Scale, Scale): GCC contracts it into
    // an FMA, so moving it is a bit change (ROADMAP Open item 1).
    for (Index i = 0; i < dataset.num_items; ++i) {
      for (Index col = 0; col < d; ++col) {
        hybrid_(i, col) =
            a * item_table.value()(i, col) + (1.0 - a) * content_(i, col);
      }
    }
    final_item_ = hybrid_;
  };

  // No best-state restore: PrepareColdInference swaps in content_
  // representations, which must match the state that produced final_*.
  loop.keep_best = false;
  loop.step = [&](const BprBatch& batch) {
    Tensor eu = GatherRows(user_table, batch.users);
    Tensor cp = encode(GatherRows(features, batch.pos));
    Tensor cn = encode(GatherRows(features, batch.neg));
    Tensor ep = Add(Scale(GatherRows(item_table, batch.pos), a),
                    Scale(cp, 1.0 - a));
    Tensor en = Add(Scale(GatherRows(item_table, batch.neg), a),
                    Scale(cn, 1.0 - a));
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({eu, GatherRows(item_table, batch.pos)},
                              options.reg, options.batch_size));
    // Contrast content encoding against the collaborative embedding of
    // the same item (positives) vs other items in the batch (negatives).
    Tensor c_norm = RowL2Normalize(cp);
    Tensor e_norm = RowL2Normalize(GatherRows(item_table, batch.pos));
    Tensor logits = Scale(MatMul(c_norm, e_norm, false, true),
                          1.0 / options_.temperature);
    Tensor positives = Scale(RowDot(c_norm, e_norm),
                             1.0 / options_.temperature);
    Tensor lse = Log(RowSum(Exp(logits)));
    loss = Add(loss, Scale(ReduceMean(Sub(lse, positives)),
                           options_.contrastive_weight));
    Backward(loss);
    optimizer.Step({user_table, item_table, enc1, enc2});
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

void ClcRec::PrepareColdInference(const Dataset& dataset) {
  if (content_.empty()) return;
  final_item_ = hybrid_;
  for (Index i = 0; i < dataset.num_items; ++i) {
    if (!dataset.is_cold_item[static_cast<size_t>(i)]) continue;
    for (Index c = 0; c < content_.cols(); ++c) {
      final_item_(i, c) = content_(i, c);
    }
  }
}

}  // namespace firzen
