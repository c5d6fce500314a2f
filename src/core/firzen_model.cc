#include "src/core/firzen_model.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "src/core/losses.h"
#include "src/graph/knn_graph.h"
#include "src/models/sampler.h"
#include "src/tensor/optim.h"
#include "src/util/check.h"

namespace firzen {
namespace {

SahglOptions MakeSahglOptions(const FirzenOptions& o, Index dim,
                              const Dataset& dataset) {
  SahglOptions s;
  s.embedding_dim = dim;
  s.behavior_layers = o.behavior_layers;
  s.knowledge_layers = o.knowledge_layers;
  s.lambda_k = o.lambda_k;
  s.lambda_m = o.lambda_m;
  s.feature_dropout = o.feature_dropout;
  s.use_behavior = o.use_behavior;
  s.use_knowledge = o.use_knowledge;
  s.use_modality.clear();
  for (const Modality& m : dataset.modalities) {
    bool enabled = true;
    if (m.name == "text") enabled = o.use_text;
    if (m.name == "image") enabled = o.use_image;
    s.use_modality.push_back(enabled);
  }
  return s;
}

}  // namespace

void FirzenModel::ComputeFinalFrom(const FrozenGraphs& graphs,
                                   const Dataset& dataset,
                                   const SahglOptions& gates) {
  using namespace ops;  // NOLINT(build/namespaces)
  // Swap the requested gates in for this forward pass, then restore.
  const SahglOptions saved = sahgl_.options();
  sahgl_.set_options(gates);

  Rng unused_rng(0);
  SahglOutput sa =
      sahgl_.Forward(graphs, dataset, betas_, /*training=*/false, &unused_rng);
  Tensor user_final = sa.fused_user;
  Tensor item_final = sa.fused_item;
  if (options_.use_mshgl) {
    MshglOutput ms = mshgl_.Forward(graphs, sa.fused_user, sa.fused_item);
    // Residual combination keeps warm items' fused identity while the
    // homogeneous pass injects warm->cold transfer.
    user_final = Add(sa.fused_user, ms.user);
    item_final = Add(sa.fused_item, ms.item);
  }
  final_user_ = user_final.value();
  final_item_ = item_final.value();

  sahgl_.set_options(saved);
}

void FirzenModel::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  train_options_ = options;
  Rng rng(options.seed);
  const Index d = options.embedding_dim;

  graph_options_.knn_k = options_.knn_k;
  graph_options_.user_topk = options_.user_topk;
  graph_options_.pool = options.pool;
  train_graphs_ = BuildTrainGraphs(dataset, graph_options_);

  sahgl_ = Sahgl(dataset, MakeSahglOptions(options_, d, dataset), &rng);
  mshgl_ = Mshgl(static_cast<Index>(dataset.modalities.size()),
                 MshglOptions{d, options_.item_layers, options_.user_layers,
                              options_.attention_heads},
                 &rng);
  const Index adv_b = std::min<Index>(options_.adv_batch, dataset.num_users);
  discriminator_ = Discriminator(adv_b, Discriminator::Options{}, &rng);
  betas_.assign(dataset.modalities.size(),
                1.0 / static_cast<Real>(dataset.modalities.size()));

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  Adam optimizer(adam_options);
  Adam::Options d_adam;
  d_adam.lr = options_.d_lr;
  Adam d_optimizer(d_adam);
  Adam::Options kg_adam;
  kg_adam.lr = options.lr;
  kg_adam.lazy = true;
  Adam kg_optimizer(kg_adam);

  Rng kg_rng(options.seed + 2);
  Rng adv_rng(options.seed + 3);
  Rng drop_rng(options.seed + 4);

  std::vector<std::unordered_set<Index>> train_sets(
      static_cast<size_t>(dataset.num_users));
  for (const Interaction& x : dataset.train) {
    train_sets[static_cast<size_t>(x.user)].insert(x.item);
  }

  std::vector<Tensor> rec_params = sahgl_.RecParams();
  if (options_.use_mshgl) {
    for (const Tensor& p : mshgl_.Params()) rec_params.push_back(p);
  }

  const bool modalities_active = options_.use_text || options_.use_image;
  // Knowledge attention (Eqs. 9-11) is refreshed here and after each epoch's
  // TransR steps: the next epoch, validation, the final representations and
  // strict-cold inference all read the attention of the current parameters.
  if (options_.use_knowledge) sahgl_.RefreshAttention(train_graphs_);
  EpochLoop loop;
  loop.begin_epoch = [&](int epoch) {
    if (!options_.dynamic_item_graphs || epoch == 0) return;
    // LATTICE-style ablation: rebuild the item-item graphs from the
    // CURRENT learned modal projections (the paper's frozen design skips
    // this entirely). Warm-only, like the frozen training graphs. Only
    // item_item is replaced: strict-cold inference expands
    // warm_knn_lists, which stay the raw-feature lists.
    KnnGraphOptions knn_options;
    knn_options.top_k = options_.knn_k;
    knn_options.candidate_items = dataset.WarmItems();
    knn_options.query_items = knn_options.candidate_items;
    knn_options.pool = options.pool;
    for (size_t m = 0; m < train_graphs_.item_item.size(); ++m) {
      train_graphs_.item_item[m] = std::make_shared<const CsrMatrix>(
          BuildItemItemGraph(sahgl_.ProjectedModalFeatures(m),
                             knn_options));
    }
  };
  loop.step = [&](const BprBatch& batch) {
    // ---- Forward: SAHGL + MSHGL ----
    SahglOutput sa = sahgl_.Forward(train_graphs_, dataset, betas_,
                                    /*training=*/true, &drop_rng);
    Tensor user_final = sa.fused_user;
    Tensor item_final = sa.fused_item;
    if (options_.use_mshgl) {
      MshglOutput ms =
          mshgl_.Forward(train_graphs_, sa.fused_user, sa.fused_item);
      user_final = Add(sa.fused_user, ms.user);
      item_final = Add(sa.fused_item, ms.item);
    }

    // ---- L_BPR (Eq. 33) ----
    Tensor eu = GatherRows(user_final, batch.users);
    Tensor ep = GatherRows(item_final, batch.pos);
    Tensor en = GatherRows(item_final, batch.neg);
    Tensor loss = Add(BprLoss(eu, ep, en),
                      BatchL2({eu, ep, en}, options.reg, options.batch_size));

    // ---- L_adv (Eqs. 22-27) + beta momentum update (Eqs. 16-17) ----
    if (modalities_active && options_.lambda_adv > 0.0) {
      const std::vector<Index> adv_users =
          batch.sampler->SampleUsers(adv_b);
      const std::vector<Index> adv_items =
          batch.sampler->SampleWarmItems(adv_b);
      Tensor real = Tensor::Constant(BuildAugmentedBlock(
          adv_users, adv_items, train_sets, final_user_, final_item_,
          options_.adv_temperature, options_.aux_gamma, &adv_rng));

      std::vector<Real> critic_means(betas_.size(), 0.0);
      Tensor g_adv;
      bool g_adv_set = false;
      for (size_t m = 0; m < betas_.size(); ++m) {
        if (!sahgl_.options().use_modality[m]) continue;
        Tensor xu = RowL2Normalize(GatherRows(sa.modal_user[m], adv_users));
        Tensor xi = RowL2Normalize(GatherRows(sa.modal_item[m], adv_items));
        Tensor fake = MatMul(xu, xi, false, true);  // B x B (Eq. 22)

        // Discriminator step on the detached fake block.
        Tensor d_loss =
            Sub(ReduceMean(
                    discriminator_.Critic(Detach(fake), &adv_rng, true)),
                ReduceMean(discriminator_.Critic(real, &adv_rng, true)));
        Backward(d_loss);
        d_optimizer.Step(discriminator_.Params());
        discriminator_.ClipWeights();

        // Generator signal + critic output for the beta update.
        Tensor critic = ReduceMean(
            discriminator_.Critic(fake, &adv_rng, true));
        critic_means[m] = critic.scalar();
        Tensor g_term = Scale(critic, -options_.lambda_adv /
                                          static_cast<Real>(betas_.size()));
        g_adv = g_adv_set ? Add(g_adv, g_term) : g_term;
        g_adv_set = true;
      }
      if (g_adv_set) loss = Add(loss, g_adv);

      // Eqs. 16-17: softmax over critic outputs, momentum update.
      Real max_c = -1e30;
      for (size_t m = 0; m < betas_.size(); ++m) {
        if (sahgl_.options().use_modality[m]) {
          max_c = std::max(max_c, critic_means[m]);
        }
      }
      Real denom = 0.0;
      for (size_t m = 0; m < betas_.size(); ++m) {
        if (sahgl_.options().use_modality[m]) {
          denom += std::exp(critic_means[m] - max_c);
        }
      }
      if (denom > 0.0) {
        for (size_t m = 0; m < betas_.size(); ++m) {
          if (!sahgl_.options().use_modality[m]) continue;
          const Real target = std::exp(critic_means[m] - max_c) / denom;
          betas_[m] = options_.beta_momentum * betas_[m] +
                      (1.0 - options_.beta_momentum) * target;
        }
      }
    }

    // ---- L_contr (Eqs. 28-29) ----
    if (modalities_active && options_.lambda_contr > 0.0) {
      Tensor fu_batch = GatherRows(user_final, batch.users);
      Tensor contr;
      bool contr_set = false;
      for (size_t m = 0; m < betas_.size(); ++m) {
        if (!sahgl_.options().use_modality[m]) continue;
        Tensor xm_batch = GatherRows(sa.modal_user[m], batch.users);
        Tensor term = ModalContrastiveLoss(fu_batch, xm_batch);
        contr = contr_set ? Add(contr, term) : term;
        contr_set = true;
      }
      if (contr_set) {
        loss = Add(loss, Scale(contr, options_.lambda_contr));
      }
    }

    Backward(loss);
    optimizer.Step(rec_params);
    for (Tensor p : discriminator_.Params()) p.ZeroGrad();

    // ---- Alternating L_KG (Eqs. 30-31) ----
    if (options_.use_knowledge) {
      const KgBatch kg_batch =
          SampleKgBatch(train_graphs_.ckg.triplets,
                        train_graphs_.ckg.num_entities,
                        options.batch_size, &kg_rng);
      Tensor kg_loss = TransRLoss(sahgl_.kg(), kg_batch, options.reg);
      Backward(kg_loss);
      kg_optimizer.Step(
          {sahgl_.kg().entity, sahgl_.kg().relation, sahgl_.kg().rel_proj});
    }
    return loss.scalar();
  };
  loop.end_epoch = [&] {
    if (options_.use_knowledge) sahgl_.RefreshAttention(train_graphs_);
  };
  loop.compute_final = [&] {
    ComputeFinalFrom(train_graphs_, dataset,
                     MakeSahglOptions(options_, d, dataset));
  };
  // No best-state restore: warm and cold evaluation see one model state,
  // the current parameters and the attention computed from them, which
  // PrepareColdInference reuses.
  loop.keep_best = false;
  loop.log_suffix = [&] {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " beta=[%.3f, %.3f]",
                  betas_.empty() ? 0.0 : betas_[0],
                  betas_.size() > 1 ? betas_[1] : 0.0);
    return std::string(buf);
  };
  RunEpochs(dataset, options, loop);
}

void FirzenModel::PrepareColdInference(const Dataset& dataset) {
  const FrozenGraphs graphs =
      BuildInferenceGraphs(dataset, graph_options_, train_graphs_);
  // Eq. 34 adds no CKG link, so the attention Fit left over the training
  // CKG is the one this forward pass needs.
  ComputeFinalFrom(graphs, dataset,
                   MakeSahglOptions(options_, train_options_.embedding_dim,
                                    dataset));
}

void FirzenModel::PrepareNormalColdInference(const Dataset& dataset) {
  const FrozenGraphs graphs = BuildInferenceGraphs(
      dataset, graph_options_, train_graphs_, dataset.cold_known);
  // The revealed links join the CKG: attend over it for this pass, then put
  // back the training-CKG attention that PrepareColdInference reuses.
  if (options_.use_knowledge) sahgl_.RefreshAttention(graphs);
  ComputeFinalFrom(graphs, dataset,
                   MakeSahglOptions(options_, train_options_.embedding_dim,
                                    dataset));
  if (options_.use_knowledge) sahgl_.RefreshAttention(train_graphs_);
}

void FirzenModel::RecomputeFinal(const Dataset& dataset,
                                 const FirzenOptions& gates,
                                 bool cold_expanded) {
  const FrozenGraphs graphs =
      cold_expanded
          ? BuildInferenceGraphs(dataset, graph_options_, train_graphs_)
          : train_graphs_;
  if (gates.use_knowledge) sahgl_.RefreshAttention(graphs);
  const bool saved_ms = options_.use_mshgl;
  options_.use_mshgl = gates.use_mshgl;
  ComputeFinalFrom(graphs, dataset,
                   MakeSahglOptions(gates, train_options_.embedding_dim,
                                    dataset));
  options_.use_mshgl = saved_ms;
}

}  // namespace firzen
