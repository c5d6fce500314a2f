#include "src/models/sgl.h"

#include "src/graph/interaction_graph.h"
#include "src/models/lightgcn.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {
namespace {

// InfoNCE between two views of the same node batch (rows aligned).
Tensor InfoNce(const Tensor& view_a, const Tensor& view_b, Real temperature) {
  using namespace ops;  // NOLINT(build/namespaces)
  Tensor a = RowL2Normalize(view_a);
  Tensor b = RowL2Normalize(view_b);
  Tensor positives = Scale(RowDot(a, b), 1.0 / temperature);  // B x 1
  Tensor logits = Scale(MatMul(a, b, false, true), 1.0 / temperature);
  // log-sum-exp per row via RowSoftmax-free formulation:
  // lse_r = log(sum_j exp(l_rj)). Stable enough at temperature >= 0.1 with
  // normalized embeddings (|l| <= 1/temp).
  Tensor lse = Log(RowSum(Exp(logits)));
  return ReduceMean(Sub(lse, positives));
}

}  // namespace

void Sgl::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  const Index num_users = dataset.num_users;
  const Index num_items = dataset.num_items;
  Tensor table =
      XavierVariable(num_users + num_items, options.embedding_dim, &rng);

  auto graph = std::make_shared<CsrMatrix>(BuildNormalizedInteractionGraph(
      dataset.train, num_users, num_items));

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);

  EpochLoop loop;
  loop.compute_final = [&] {
    LightGcn::PropagateFinal(*graph, table.value(), options.num_layers,
                             num_users, &final_user_, &final_item_);
  };

  std::shared_ptr<CsrMatrix> view1;
  std::shared_ptr<CsrMatrix> view2;
  loop.begin_epoch = [&](int) {
    // Two fresh augmented views per epoch (edge dropout).
    Rng view_rng = rng.Fork();
    view1 = std::make_shared<CsrMatrix>(BuildDroppedInteractionGraph(
        dataset.train, num_users, num_items, options_.edge_drop_rate,
        &view_rng));
    view2 = std::make_shared<CsrMatrix>(BuildDroppedInteractionGraph(
        dataset.train, num_users, num_items, options_.edge_drop_rate,
        &view_rng));
  };
  loop.step = [&](const BprBatch& batch) {
    std::vector<Index> pos_nodes;
    std::vector<Index> neg_nodes;
    for (Index i : batch.pos) pos_nodes.push_back(num_users + i);
    for (Index i : batch.neg) neg_nodes.push_back(num_users + i);

    Tensor main = LightGcn::Propagate(graph, table, options.num_layers);
    Tensor eu = GatherRows(main, batch.users);
    Tensor ep = GatherRows(main, pos_nodes);
    Tensor en = GatherRows(main, neg_nodes);
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({eu, ep, en}, options.reg, options.batch_size));

    Tensor aug1 = LightGcn::Propagate(view1, table, options.num_layers);
    Tensor aug2 = LightGcn::Propagate(view2, table, options.num_layers);
    Tensor ssl_users = InfoNce(GatherRows(aug1, batch.users),
                               GatherRows(aug2, batch.users),
                               options_.ssl_temperature);
    Tensor ssl_items = InfoNce(GatherRows(aug1, pos_nodes),
                               GatherRows(aug2, pos_nodes),
                               options_.ssl_temperature);
    loss = Add(loss, Scale(Add(ssl_users, ssl_items), options_.ssl_weight));
    Backward(loss);
    optimizer.Step({table});
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

}  // namespace firzen
