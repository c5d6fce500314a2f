#include "src/models/kgat.h"

#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

Tensor Kgat::PropagateAll(const std::shared_ptr<const CsrMatrix>& attention) {
  using namespace ops;  // NOLINT(build/namespaces)
  std::vector<Tensor> layers{kg_.entity};
  Tensor current = kg_.entity;
  for (int l = 0; l < num_layers_; ++l) {
    current = BiInteraction(attention, current, w1_[static_cast<size_t>(l)],
                            w2_[static_cast<size_t>(l)]);
    layers.push_back(current);
  }
  // Mean pooling across layers (the original concatenates; mean keeps the
  // embedding width constant — documented substitution in DESIGN.md).
  return Scale(AddN(layers), 1.0 / static_cast<Real>(layers.size()));
}

void Kgat::ComputeFinal(const CollaborativeKg& ckg,
                        const std::shared_ptr<const CsrMatrix>& attention) {
  const Tensor all = PropagateAll(attention);
  const Matrix& propagated = all.value();
  final_user_.Resize(ckg.num_users, propagated.cols());
  final_item_.Resize(ckg.num_items, propagated.cols());
  for (Index u = 0; u < ckg.num_users; ++u) {
    const Real* src = propagated.row(ckg.UserEntity(u));
    for (Index c = 0; c < propagated.cols(); ++c) final_user_(u, c) = src[c];
  }
  for (Index i = 0; i < ckg.num_items; ++i) {
    const Real* src = propagated.row(ckg.ItemEntity(i));
    for (Index c = 0; c < propagated.cols(); ++c) final_item_(i, c) = src[c];
  }
}

void Kgat::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  num_layers_ = options.num_layers;

  const KnowledgeGraph kg_data = AugmentKg(dataset);
  const CollaborativeKg ckg =
      BuildCollaborativeKg(dataset.train, dataset.num_users, kg_data);

  kg_ = MakeKgEmbeddings(ckg.num_entities, ckg.num_relations,
                         options.embedding_dim, &rng);
  SeedEntityRows(dataset, kg_.entity.mutable_value());
  w1_.clear();
  w2_.clear();
  for (int l = 0; l < num_layers_; ++l) {
    w1_.push_back(XavierVariable(options.embedding_dim,
                                 options.embedding_dim, &rng));
    w2_.push_back(XavierVariable(options.embedding_dim,
                                 options.embedding_dim, &rng));
  }

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);
  Rng kg_rng(options.seed + 2);

  std::vector<Tensor> rec_params{kg_.entity};
  for (int l = 0; l < num_layers_; ++l) {
    rec_params.push_back(w1_[static_cast<size_t>(l)]);
    rec_params.push_back(w2_[static_cast<size_t>(l)]);
  }

  // Attention is computed outside the tape: here, then after each epoch's KG
  // steps, so the next epoch, validation and ComputeFinal read current values.
  const auto refresh = [&] {
    return std::make_shared<const CsrMatrix>(
        ComputeKgAttention(ckg, kg_.entity.value(), kg_.relation.value(),
                           kg_.rel_proj.value()));
  };
  std::shared_ptr<const CsrMatrix> attention = refresh();
  EpochLoop loop;
  loop.step = [&](const BprBatch& batch) {
    std::vector<Index> user_nodes;
    std::vector<Index> pos_nodes;
    std::vector<Index> neg_nodes;
    for (Index u : batch.users) user_nodes.push_back(ckg.UserEntity(u));
    for (Index i : batch.pos) pos_nodes.push_back(ckg.ItemEntity(i));
    for (Index i : batch.neg) neg_nodes.push_back(ckg.ItemEntity(i));

    Tensor all = PropagateAll(attention);
    Tensor eu = GatherRows(all, user_nodes);
    Tensor ep = GatherRows(all, pos_nodes);
    Tensor en = GatherRows(all, neg_nodes);
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({eu, ep, en}, options.reg, options.batch_size));
    Backward(loss);
    optimizer.Step(rec_params);

    const KgBatch kg_batch = SampleKgBatch(ckg.triplets, ckg.num_entities,
                                           options.batch_size, &kg_rng);
    Tensor kg_loss = TransRLoss(kg_, kg_batch, options.reg);
    Backward(kg_loss);
    optimizer.Step({kg_.entity, kg_.relation, kg_.rel_proj});
    return loss.scalar();
  };
  loop.end_epoch = [&] { attention = refresh(); };
  loop.compute_final = [&] { ComputeFinal(ckg, attention); };
  RunEpochs(dataset, options, loop);
}

void Kgat::PrepareNormalColdInference(const Dataset& dataset) {
  if (dataset.cold_known.empty()) return;
  // Rebuild the CKG with the revealed cold links so propagation reaches the
  // normal-cold items through users as well as KG entities.
  std::vector<Interaction> merged = dataset.train;
  merged.insert(merged.end(), dataset.cold_known.begin(),
                dataset.cold_known.end());
  const KnowledgeGraph kg_data = AugmentKg(dataset);
  const CollaborativeKg ckg =
      BuildCollaborativeKg(merged, dataset.num_users, kg_data);
  auto attention = std::make_shared<const CsrMatrix>(
      ComputeKgAttention(ckg, kg_.entity.value(), kg_.relation.value(),
                         kg_.rel_proj.value()));
  ComputeFinal(ckg, attention);
}

}  // namespace firzen
