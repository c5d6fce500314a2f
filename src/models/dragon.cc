#include "src/models/dragon.h"

#include "src/graph/cooccurrence_graph.h"
#include "src/graph/interaction_graph.h"
#include "src/graph/knn_graph.h"
#include "src/models/lightgcn.h"
#include "src/models/mm_common.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

void Dragon::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  const Index num_users = dataset.num_users;
  const Index num_items = dataset.num_items;
  const Index d = options.embedding_dim;

  Tensor joint = XavierVariable(num_users + num_items, d, &rng);
  Matrix raw = ConcatModalFeatures(dataset);
  StandardizeColumns(&raw);
  Tensor proj = XavierVariable(raw.cols(), d, &rng);
  Tensor features = Tensor::Constant(std::move(raw));

  auto inter = std::make_shared<CsrMatrix>(BuildNormalizedInteractionGraph(
      dataset.train, num_users, num_items));
  KnnGraphOptions knn_options;
  knn_options.top_k = options_.knn_k;
  knn_options.candidate_items = dataset.WarmItems();
  knn_options.query_items = knn_options.candidate_items;
  knn_options.pool = options.pool;
  auto item_graph = std::make_shared<CsrMatrix>(
      BuildItemItemGraph(features.value(), knn_options));
  auto user_graph = std::make_shared<CsrMatrix>(
      BuildUserCooccurrenceGraph(dataset.train, num_users, num_items,
                                 options_.user_topk)
          .RowSoftmax());

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);

  // Forward: behavior tower from the bipartite graph; homogeneous towers
  // refine items over the item-item graph and users over the user-user
  // graph, starting from projected modal content.
  auto forward = [&](Tensor* user_out, Tensor* item_out) {
    Tensor behavior = LightGcn::Propagate(inter, joint, options.num_layers);
    Tensor modal = MatMul(features, proj);
    Tensor item_homo = modal;
    for (int l = 0; l < options_.homo_layers; ++l) {
      item_homo = SpMM(item_graph, item_homo);
    }
    // Users: propagate their behavior embedding over co-occurrence.
    std::vector<Index> user_rows(static_cast<size_t>(num_users));
    for (Index u = 0; u < num_users; ++u) {
      user_rows[static_cast<size_t>(u)] = u;
    }
    Tensor behavior_users = GatherRows(behavior, user_rows);
    Tensor user_homo = behavior_users;
    for (int l = 0; l < options_.homo_layers; ++l) {
      user_homo = SpMM(user_graph, user_homo);
    }
    std::vector<Index> item_rows(static_cast<size_t>(num_items));
    for (Index i = 0; i < num_items; ++i) {
      item_rows[static_cast<size_t>(i)] = num_users + i;
    }
    Tensor behavior_items = GatherRows(behavior, item_rows);
    *user_out = Add(behavior_users, user_homo);
    *item_out = Add(behavior_items, item_homo);
  };

  EpochLoop loop;
  loop.compute_final = [&] {
    Tensor user_out;
    Tensor item_out;
    forward(&user_out, &item_out);
    final_user_ = user_out.value();
    final_item_ = item_out.value();
  };

  loop.step = [&](const BprBatch& batch) {
    Tensor user_out;
    Tensor item_out;
    forward(&user_out, &item_out);
    Tensor eu = GatherRows(user_out, batch.users);
    Tensor ep = GatherRows(item_out, batch.pos);
    Tensor en = GatherRows(item_out, batch.neg);
    Tensor eu0 = GatherRows(joint, batch.users);
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({eu0, ep, en}, options.reg, options.batch_size));
    Backward(loss);
    optimizer.Step({joint, proj});
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

}  // namespace firzen
