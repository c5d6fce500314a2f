#include "src/models/lightgcn.h"

#include "src/graph/interaction_graph.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

Tensor LightGcn::Propagate(const std::shared_ptr<const CsrMatrix>& graph,
                           const Tensor& table, int num_layers) {
  using namespace ops;  // NOLINT(build/namespaces)
  std::vector<Tensor> layers{table};
  Tensor current = table;
  for (int l = 0; l < num_layers; ++l) {
    current = SpMM(graph, current);
    layers.push_back(current);
  }
  return Scale(AddN(layers), 1.0 / static_cast<Real>(layers.size()));
}

void LightGcn::ComputeFinal(const std::shared_ptr<const CsrMatrix>& graph) {
  const Tensor propagated = Propagate(graph, joint_table_, num_layers_);
  final_user_ = ops::SliceRows(propagated, 0, num_users_).value();
  final_item_ =
      ops::SliceRows(propagated, num_users_, num_users_ + num_items_).value();
}

void LightGcn::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  num_users_ = dataset.num_users;
  num_items_ = dataset.num_items;
  num_layers_ = options.num_layers;
  joint_table_ = XavierVariable(num_users_ + num_items_,
                                options.embedding_dim, &rng);

  auto graph = std::make_shared<CsrMatrix>(BuildNormalizedInteractionGraph(
      dataset.train, num_users_, num_items_));

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);

  EpochLoop loop;
  loop.step = [&](const BprBatch& batch) {
    Tensor propagated = Propagate(graph, joint_table_, num_layers_);
    std::vector<Index> pos_nodes;
    std::vector<Index> neg_nodes;
    pos_nodes.reserve(batch.pos.size());
    neg_nodes.reserve(batch.neg.size());
    for (Index i : batch.pos) pos_nodes.push_back(num_users_ + i);
    for (Index i : batch.neg) neg_nodes.push_back(num_users_ + i);
    Tensor eu = GatherRows(propagated, batch.users);
    Tensor ep = GatherRows(propagated, pos_nodes);
    Tensor en = GatherRows(propagated, neg_nodes);
    // Regularize the layer-0 (ego) embeddings as in the reference code.
    Tensor eu0 = GatherRows(joint_table_, batch.users);
    Tensor ep0 = GatherRows(joint_table_, pos_nodes);
    Tensor en0 = GatherRows(joint_table_, neg_nodes);
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({eu0, ep0, en0}, options.reg,
                              options.batch_size));
    Backward(loss);
    optimizer.Step({joint_table_});
    return loss.scalar();
  };
  loop.compute_final = [&] { ComputeFinal(graph); };
  RunEpochs(dataset, options, loop);
}

void LightGcn::PrepareNormalColdInference(const Dataset& dataset) {
  if (dataset.cold_known.empty()) return;
  std::vector<Interaction> merged = dataset.train;
  merged.insert(merged.end(), dataset.cold_known.begin(),
                dataset.cold_known.end());
  ComputeFinal(std::make_shared<const CsrMatrix>(
      BuildNormalizedInteractionGraph(merged, num_users_, num_items_)));
}

}  // namespace firzen
