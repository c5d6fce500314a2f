#include "src/models/cke.h"

#include "src/models/kg_common.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

void Cke::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  Tensor user_table = XavierVariable(dataset.num_users,
                                     options.embedding_dim, &rng);
  Tensor item_table = XavierVariable(dataset.num_items,
                                     options.embedding_dim, &rng);
  KgEmbeddings kg = MakeKgEmbeddings(dataset.kg.num_entities,
                                     dataset.kg.num_relations,
                                     options.embedding_dim, &rng);

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  adam_options.lazy = true;
  Adam optimizer(adam_options);
  Rng kg_rng(options.seed + 2);

  EpochLoop loop;
  loop.compute_final = [&] {
    // Item representation = ID embedding + structural (entity) embedding.
    final_user_ = user_table.value();
    final_item_ = item_table.value();
    for (Index i = 0; i < dataset.num_items; ++i) {
      for (Index c = 0; c < final_item_.cols(); ++c) {
        final_item_(i, c) += kg.entity.value()(i, c);
      }
    }
  };

  loop.step = [&](const BprBatch& batch) {
    // Alternate: recommendation objective ...
    Tensor eu = GatherRows(user_table, batch.users);
    Tensor ep = Add(GatherRows(item_table, batch.pos),
                    GatherRows(kg.entity, batch.pos));
    Tensor en = Add(GatherRows(item_table, batch.neg),
                    GatherRows(kg.entity, batch.neg));
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({eu, ep, en}, options.reg, options.batch_size));
    Backward(loss);
    optimizer.Step({user_table, item_table, kg.entity});

    // ... then the KG representation objective.
    const KgBatch kg_batch = SampleKgBatch(dataset.kg.triplets,
                                           dataset.kg.num_entities,
                                           options.batch_size, &kg_rng);
    Tensor kg_loss = TransRLoss(kg, kg_batch, options.reg);
    Backward(kg_loss);
    optimizer.Step({kg.entity, kg.relation, kg.rel_proj});
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

}  // namespace firzen
