#include "src/models/bm3.h"

#include "src/graph/interaction_graph.h"
#include "src/models/lightgcn.h"
#include "src/models/mm_common.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {
namespace {

// 1 - cos(a, b) averaged over rows.
Tensor CosineAlignLoss(const Tensor& a, const Tensor& b) {
  using namespace ops;  // NOLINT(build/namespaces)
  Tensor cos = RowDot(RowL2Normalize(a), RowL2Normalize(b));
  return ReduceMean(AddScalar(Scale(cos, -1.0), 1.0));
}

}  // namespace

void Bm3::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  const Index num_users = dataset.num_users;
  const Index num_items = dataset.num_items;
  const Index d = options.embedding_dim;

  Tensor joint = XavierVariable(num_users + num_items, d, &rng);
  Tensor predictor = XavierVariable(d, d, &rng);
  Matrix raw = ConcatModalFeatures(dataset);
  StandardizeColumns(&raw);
  Tensor proj = XavierVariable(raw.cols(), d, &rng);
  Tensor features = Tensor::Constant(std::move(raw));

  auto graph = std::make_shared<CsrMatrix>(BuildNormalizedInteractionGraph(
      dataset.train, num_users, num_items));

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);
  Rng drop_rng(options.seed + 3);

  EpochLoop loop;
  loop.compute_final = [&] {
    const Tensor propagated =
        LightGcn::Propagate(graph, joint, options.num_layers);
    final_user_ = SliceRows(propagated, 0, num_users).value();
    final_item_ = Add(SliceRows(propagated, num_users, num_users + num_items),
                      MatMul(features, proj))
                      .value();
  };

  // BM3 learns without negatives: the batch's neg ids go unused.
  loop.step = [&](const BprBatch& batch) {
    std::vector<Index> pos_nodes;
    for (Index i : batch.pos) pos_nodes.push_back(num_users + i);

    Tensor propagated = LightGcn::Propagate(graph, joint, options.num_layers);
    Tensor hu = GatherRows(propagated, batch.users);
    Tensor hi = GatherRows(propagated, pos_nodes);
    // Online views (dropout) -> predictor; targets are stop-gradient.
    Tensor hu_view = MatMul(Dropout(hu, options_.dropout, &drop_rng),
                            predictor);
    Tensor hi_view = MatMul(Dropout(hi, options_.dropout, &drop_rng),
                            predictor);
    Tensor hu_target = Detach(hu);
    Tensor hi_target = Detach(hi);
    // Graph reconstruction: align user view with positive item target
    // (inter-view) and each view with its own target (intra-view).
    Tensor rec = Add(CosineAlignLoss(hu_view, hi_target),
                     Add(CosineAlignLoss(hu_view, hu_target),
                         CosineAlignLoss(hi_view, hi_target)));
    // Modal alignment.
    Tensor modal = MatMul(GatherRows(features, batch.pos), proj);
    Tensor modal_drop = Dropout(modal, options_.dropout, &drop_rng);
    Tensor align = Add(CosineAlignLoss(modal, hi_target),
                       CosineAlignLoss(modal_drop, Detach(modal)));
    Tensor hu0 = GatherRows(joint, batch.users);
    Tensor hi0 = GatherRows(joint, pos_nodes);
    Tensor loss = Add(Add(rec, Scale(align, options_.modal_weight)),
                      BatchL2({hu0, hi0}, options.reg, options.batch_size));
    Backward(loss);
    optimizer.Step({joint, predictor, proj});
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

}  // namespace firzen
