#include "src/models/mmssl.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/core/discriminator.h"
#include "src/graph/interaction_graph.h"
#include "src/models/lightgcn.h"
#include "src/models/mm_common.h"
#include "src/models/sampler.h"
#include "src/tensor/init.h"
#include "src/tensor/optim.h"

namespace firzen {

void Mmssl::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  const Index num_users = dataset.num_users;
  const Index num_items = dataset.num_items;
  const Index d = options.embedding_dim;

  Tensor joint = XavierVariable(num_users + num_items, d, &rng);
  // Per-modality projections.
  std::vector<Tensor> proj;
  std::vector<Tensor> modal_features;
  for (const Modality& m : dataset.modalities) {
    Matrix raw = m.features;
    StandardizeColumns(&raw);
    proj.push_back(XavierVariable(raw.cols(), d, &rng));
    modal_features.push_back(Tensor::Constant(std::move(raw)));
  }

  auto graph = std::make_shared<CsrMatrix>(BuildNormalizedInteractionGraph(
      dataset.train, num_users, num_items));
  auto u2i = std::make_shared<CsrMatrix>(
      BuildUserToItemGraph(dataset.train, num_users, num_items));
  auto i2u = std::make_shared<CsrMatrix>(
      BuildItemToUserGraph(dataset.train, num_users, num_items));

  const Index adv_b = std::min<Index>(options_.adv_batch, num_users);
  Discriminator::Options d_options;
  Discriminator discriminator(adv_b, d_options, &rng);
  Adam::Options d_adam;
  d_adam.lr = options_.d_lr;
  Adam d_optimizer(d_adam);

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);
  Rng adv_rng(options.seed + 5);

  // Train interaction lookup for building the observed block.
  std::vector<std::unordered_set<Index>> train_sets(
      static_cast<size_t>(num_users));
  for (const Interaction& x : dataset.train) {
    train_sets[static_cast<size_t>(x.user)].insert(x.item);
  }

  // Modality-aware representations over the full graph (Eqs. 7-8 style).
  auto modal_reps = [&](size_t m, Tensor* xu, Tensor* xi) {
    Tensor projected = MatMul(modal_features[m], proj[m]);  // I x d
    *xu = SpMM(u2i, projected);                             // U x d
    *xi = SpMM(i2u, *xu);                                   // I x d
  };

  auto forward = [&](Tensor* user_out, Tensor* item_out,
                     std::vector<Tensor>* xus, std::vector<Tensor>* xis) {
    Tensor backbone = LightGcn::Propagate(graph, joint, options.num_layers);
    std::vector<Index> user_rows(static_cast<size_t>(num_users));
    for (Index u = 0; u < num_users; ++u) user_rows[static_cast<size_t>(u)] = u;
    std::vector<Index> item_rows(static_cast<size_t>(num_items));
    for (Index i = 0; i < num_items; ++i) {
      item_rows[static_cast<size_t>(i)] = num_users + i;
    }
    Tensor hu = GatherRows(backbone, user_rows);
    Tensor hi = GatherRows(backbone, item_rows);
    xus->clear();
    xis->clear();
    for (size_t m = 0; m < modal_features.size(); ++m) {
      Tensor xu;
      Tensor xi;
      modal_reps(m, &xu, &xi);
      xus->push_back(xu);
      xis->push_back(xi);
      hu = Add(hu, Scale(xu, options_.modal_weight));
      hi = Add(hi, Scale(xi, options_.modal_weight));
    }
    *user_out = hu;
    *item_out = hi;
  };

  EpochLoop loop;
  loop.compute_final = [&] {
    Tensor user_out;
    Tensor item_out;
    std::vector<Tensor> xus;
    std::vector<Tensor> xis;
    forward(&user_out, &item_out, &xus, &xis);
    final_user_ = user_out.value();
    final_item_ = item_out.value();
  };

  loop.step = [&](const BprBatch& batch) {
    Tensor user_out;
    Tensor item_out;
    std::vector<Tensor> xus;
    std::vector<Tensor> xis;
    forward(&user_out, &item_out, &xus, &xis);

    // ---- Adversarial block over sampled users/items ----
    const std::vector<Index> adv_users = batch.sampler->SampleUsers(adv_b);
    const std::vector<Index> adv_items = batch.sampler->SampleWarmItems(adv_b);
    // Observed block with Gumbel augmentation + auxiliary cosine signal
    // (Eq. 23), treated as the "real" sample (constant).
    Matrix real_block(adv_b, adv_b);
    for (Index r = 0; r < adv_b; ++r) {
      const auto& seen = train_sets[static_cast<size_t>(adv_users[r])];
      Real max_v = -1e30;
      std::vector<Real> row(static_cast<size_t>(adv_b));
      for (Index c = 0; c < adv_b; ++c) {
        const Real y = seen.count(adv_items[c]) > 0 ? 1.0 : 0.0;
        row[static_cast<size_t>(c)] =
            (y + adv_rng.Gumbel() * 0.1) / options_.temperature;
        max_v = std::max(max_v, row[static_cast<size_t>(c)]);
      }
      Real denom = 0.0;
      for (Index c = 0; c < adv_b; ++c) {
        row[static_cast<size_t>(c)] =
            std::exp(row[static_cast<size_t>(c)] - max_v);
        denom += row[static_cast<size_t>(c)];
      }
      for (Index c = 0; c < adv_b; ++c) {
        Real phi = 0.0;
        const Real* eu = final_user_.empty()
                             ? nullptr
                             : final_user_.row(adv_users[r]);
        if (eu != nullptr) {
          const Real* ei = final_item_.row(adv_items[c]);
          Real nu = 0.0;
          Real ni = 0.0;
          for (Index k = 0; k < final_user_.cols(); ++k) {
            phi += eu[k] * ei[k];
            nu += eu[k] * eu[k];
            ni += ei[k] * ei[k];
          }
          phi /= std::sqrt(nu * ni) + 1e-12;
        }
        real_block(r, c) = row[static_cast<size_t>(c)] / denom +
                           options_.aux_weight * phi;
      }
    }
    Tensor real = Tensor::Constant(real_block);

    // Fake block from modality features (Eq. 22), one modality per step.
    const size_t m = static_cast<size_t>(batch.step) % modal_features.size();
    Tensor xu_batch = RowL2Normalize(GatherRows(xus[m], adv_users));
    Tensor xi_batch = RowL2Normalize(GatherRows(xis[m], adv_items));
    Tensor fake = MatMul(xu_batch, xi_batch, false, true);  // B x B

    // Discriminator update (fake detached).
    Tensor d_loss = Sub(
        ReduceMean(discriminator.Critic(Detach(fake), &adv_rng, true)),
        ReduceMean(discriminator.Critic(real, &adv_rng, true)));
    Backward(d_loss);
    d_optimizer.Step(discriminator.Params());
    discriminator.ClipWeights();

    // ---- Main objective ----
    Tensor eu = GatherRows(user_out, batch.users);
    Tensor ep = GatherRows(item_out, batch.pos);
    Tensor en = GatherRows(item_out, batch.neg);
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({GatherRows(joint, batch.users)}, options.reg,
                              options.batch_size));
    // Generator: fool the critic.
    Tensor g_adv = Scale(
        ReduceMean(discriminator.Critic(fake, &adv_rng, true)),
        -options_.adv_weight);
    loss = Add(loss, g_adv);
    // Cross-modality contrast: align modal user reps with fused ones.
    Tensor xu_users = RowL2Normalize(GatherRows(xus[m], batch.users));
    Tensor fu_users = RowL2Normalize(GatherRows(user_out, batch.users));
    Tensor cos = RowDot(xu_users, fu_users);
    loss = Add(loss,
               Scale(ReduceMean(AddScalar(Scale(cos, -1.0), 1.0)),
                     options_.contrastive_weight));
    Backward(loss);
    std::vector<Tensor> params{joint};
    for (Tensor& p : proj) params.push_back(p);
    optimizer.Step(params);
    // Drop generator-step gradients accumulated on the critic.
    for (Tensor p : discriminator.Params()) p.ZeroGrad();
    return loss.scalar();
  };
  RunEpochs(dataset, options, loop);
}

}  // namespace firzen
