#include "src/core/sahgl.h"

#include "src/models/mm_common.h"
#include "src/tensor/init.h"
#include "src/util/check.h"

namespace firzen {

Sahgl::Sahgl(const Dataset& dataset, const SahglOptions& options, Rng* rng)
    : options_(options),
      num_users_(dataset.num_users),
      num_items_(dataset.num_items) {
  const Index d = options.embedding_dim;
  behavior_table_ = XavierVariable(num_users_ + num_items_, d, rng);

  const CollaborativeKg probe =
      BuildCollaborativeKg(dataset.train, dataset.num_users, dataset.kg);
  kg_ = MakeKgEmbeddings(probe.num_entities, probe.num_relations, d, rng);

  for (int l = 0; l < options.knowledge_layers; ++l) {
    w1_.push_back(XavierVariable(d, d, rng));
    w2_.push_back(XavierVariable(d, d, rng));
  }
  for (const Modality& m : dataset.modalities) {
    Matrix raw = m.features;
    StandardizeColumns(&raw);
    modal_proj_.push_back(XavierVariable(raw.cols(), d, rng));
    modal_bias_.push_back(ZerosVariable(1, d));
    modal_features_.push_back(Tensor::Constant(std::move(raw)));
  }
  if (options_.use_modality.empty()) {
    options_.use_modality.assign(dataset.modalities.size(), true);
  }
  FIRZEN_CHECK_EQ(options_.use_modality.size(), dataset.modalities.size());
}

void Sahgl::RefreshAttention(const FrozenGraphs& graphs) {
  attention_ = std::make_shared<const CsrMatrix>(
      ComputeKgAttention(graphs.ckg, kg_.entity.value(),
                         kg_.relation.value(), kg_.rel_proj.value()));
}

Matrix Sahgl::ProjectedModalFeatures(size_t modality) const {
  FIRZEN_CHECK_LT(static_cast<Index>(modality),
                  static_cast<Index>(modal_features_.size()));
  Matrix projected;
  Gemm(false, false, 1.0, modal_features_[modality].value(),
       modal_proj_[modality].value(), 0.0, &projected);
  for (Index r = 0; r < projected.rows(); ++r) {
    for (Index c = 0; c < projected.cols(); ++c) {
      projected(r, c) += modal_bias_[modality].value()(0, c);
    }
  }
  return projected;
}

std::vector<Tensor> Sahgl::RecParams() const {
  std::vector<Tensor> params{behavior_table_, kg_.entity};
  for (const Tensor& w : w1_) params.push_back(w);
  for (const Tensor& w : w2_) params.push_back(w);
  for (const Tensor& w : modal_proj_) params.push_back(w);
  for (const Tensor& b : modal_bias_) params.push_back(b);
  return params;
}

SahglOutput Sahgl::Forward(const FrozenGraphs& graphs, const Dataset& dataset,
                           const std::vector<Real>& betas, bool training,
                           Rng* dropout_rng) {
  using namespace ops;  // NOLINT(build/namespaces)
  const Index d = options_.embedding_dim;
  SahglOutput out;

  std::vector<Index> user_rows(static_cast<size_t>(num_users_));
  for (Index u = 0; u < num_users_; ++u) user_rows[static_cast<size_t>(u)] = u;
  std::vector<Index> item_rows(static_cast<size_t>(num_items_));
  for (Index i = 0; i < num_items_; ++i) {
    item_rows[static_cast<size_t>(i)] = num_users_ + i;
  }

  // ---- Behavior-aware graph convolution (Eqs. 5-6) ----
  Tensor behavior_user;
  Tensor behavior_item;
  if (options_.use_behavior) {
    std::vector<Tensor> layers{behavior_table_};
    Tensor current = behavior_table_;
    for (int l = 0; l < options_.behavior_layers; ++l) {
      current = SpMM(graphs.interaction, current);
      layers.push_back(current);
    }
    Tensor pooled =
        Scale(AddN(layers), 1.0 / static_cast<Real>(layers.size()));
    behavior_user = GatherRows(pooled, user_rows);
    behavior_item = GatherRows(pooled, item_rows);
    if (!training) {
      // §III-C.1: strict cold items have no interaction edges; their ID rows
      // are untrained noise, so the behavior component is zeroed exactly as
      // if the CF module were skipped for them.
      Matrix masked = behavior_item.value();
      for (Index i = 0; i < num_items_; ++i) {
        if (!dataset.is_cold_item[static_cast<size_t>(i)]) continue;
        for (Index c = 0; c < d; ++c) masked(i, c) = 0.0;
      }
      behavior_item = Tensor::Constant(std::move(masked));
    }
  } else {
    behavior_user = Tensor::Constant(Matrix(num_users_, d));
    behavior_item = Tensor::Constant(Matrix(num_items_, d));
  }

  // ---- Modality-aware graph convolution (Eqs. 7-8) ----
  for (size_t m = 0; m < modal_features_.size(); ++m) {
    if (!options_.use_modality[m]) {
      out.modal_user.push_back(Tensor::Constant(Matrix(num_users_, d)));
      out.modal_item.push_back(Tensor::Constant(Matrix(num_items_, d)));
      continue;
    }
    Tensor projected = AddRowBroadcast(
        MatMul(modal_features_[m], modal_proj_[m]), modal_bias_[m]);
    if (training && options_.feature_dropout > 0.0) {
      projected = Dropout(projected, options_.feature_dropout, dropout_rng);
    }
    Tensor xu = SpMM(graphs.user_to_item, projected);  // Eq. 7
    Tensor xi = SpMM(graphs.item_to_user, xu);         // Eq. 8
    out.modal_user.push_back(xu);
    out.modal_item.push_back(xi);
  }

  // ---- Knowledge-aware graph attention (Eqs. 9-13) ----
  Tensor know_user;
  Tensor know_item;
  if (options_.use_knowledge) {
    FIRZEN_CHECK(attention_ != nullptr);
    // Attention from another CKG (the normal-cold merge) spans the same
    // entities, so SpMM would take it; its edge count tells it apart.
    FIRZEN_CHECK_EQ(attention_->rows(), graphs.ckg.topology.rows());
    FIRZEN_CHECK_EQ(attention_->nnz(), graphs.ckg.topology.nnz());
    Tensor current = kg_.entity;
    for (int l = 0; l < options_.knowledge_layers; ++l) {
      current = BiInteraction(attention_, current,
                              w1_[static_cast<size_t>(l)],
                              w2_[static_cast<size_t>(l)]);
    }
    std::vector<Index> user_entities(static_cast<size_t>(num_users_));
    for (Index u = 0; u < num_users_; ++u) {
      user_entities[static_cast<size_t>(u)] = graphs.ckg.UserEntity(u);
    }
    std::vector<Index> item_entities(static_cast<size_t>(num_items_));
    for (Index i = 0; i < num_items_; ++i) {
      item_entities[static_cast<size_t>(i)] = graphs.ckg.ItemEntity(i);
    }
    know_user = GatherRows(current, user_entities);
    know_item = GatherRows(current, item_entities);
  } else {
    know_user = Tensor::Constant(Matrix(num_users_, d));
    know_item = Tensor::Constant(Matrix(num_items_, d));
  }

  // ---- Importance-aware fusion (Eqs. 14-15) ----
  FIRZEN_CHECK_EQ(betas.size(), out.modal_user.size());
  Tensor fused_user = Add(behavior_user,
                          Scale(know_user, options_.lambda_k));
  Tensor fused_item = Add(behavior_item,
                          Scale(know_item, options_.lambda_k));
  for (size_t m = 0; m < out.modal_user.size(); ++m) {
    const Real weight = options_.lambda_m * betas[m];
    fused_user = Add(fused_user, Scale(out.modal_user[m], weight));
    fused_item = Add(fused_item, Scale(out.modal_item[m], weight));
  }
  out.fused_user = fused_user;
  out.fused_item = fused_item;
  return out;
}

}  // namespace firzen
