#include "src/models/simplex.h"

#include "src/graph/interaction_graph.h"
#include "src/models/sampler.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

void SimpleX::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  const Index num_users = dataset.num_users;
  const Index num_items = dataset.num_items;
  Tensor user_table = XavierVariable(num_users, options.embedding_dim, &rng);
  Tensor item_table = XavierVariable(num_items, options.embedding_dim, &rng);

  // Mean-of-history aggregation: row-normalized user->item matrix.
  auto u2i = std::make_shared<CsrMatrix>(
      CsrMatrix(BuildUserToItemGraph(dataset.train, num_users, num_items))
          .RowNormalized());

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);

  const Real g = options_.fusion_weight;
  const Index n_neg = options_.num_negatives;

  auto fused_users = [&]() -> Tensor {
    Tensor aggregated = SpMM(u2i, item_table);
    return Add(Scale(user_table, g), Scale(aggregated, 1.0 - g));
  };

  EpochLoop loop;
  loop.compute_final = [&] {
    // Cosine scoring: store L2-normalized towers.
    Tensor fu = RowL2Normalize(fused_users());
    Tensor fi = RowL2Normalize(item_table);
    final_user_ = fu.value();
    final_item_ = fi.value();
  };

  // The batch's neg ids go unused: CCL draws its own n_neg per user.
  loop.step = [&](const BprBatch& batch) {
    std::vector<Index> negs;
    negs.reserve(static_cast<size_t>(options.batch_size * n_neg));
    for (Index b = 0; b < options.batch_size; ++b) {
      for (Index k = 0; k < n_neg; ++k) {
        negs.push_back(batch.sampler->SampleWarmItems(1)[0]);
      }
    }
    Tensor fu = RowL2Normalize(GatherRows(fused_users(), batch.users));
    Tensor fp = RowL2Normalize(GatherRows(item_table, batch.pos));
    Tensor fn = RowL2Normalize(GatherRows(item_table, negs));

    // CCL: (1 - cos(u, p)) + w * mean(relu(cos(u, n) - margin)).
    Tensor pos_cos = RowDot(fu, fp);  // B x 1
    Tensor pos_term = Scale(AddScalar(Scale(pos_cos, -1.0), 1.0), 1.0);
    Tensor fu_rep = RepeatInterleaveRows(fu, n_neg);  // (B*n) x d
    Tensor neg_cos = RowDot(fu_rep, fn);              // (B*n) x 1
    Tensor neg_term = Scale(
        SumGroups(Relu(AddScalar(neg_cos, -options_.margin)), n_neg),
        options_.negative_weight / static_cast<Real>(n_neg));
    Tensor eu0 = GatherRows(user_table, batch.users);
    Tensor ep0 = GatherRows(item_table, batch.pos);
    Tensor loss = Add(ReduceMean(Add(pos_term, neg_term)),
                      BatchL2({eu0, ep0}, options.reg, options.batch_size));
    Backward(loss);
    optimizer.Step({user_table, item_table});
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

}  // namespace firzen
