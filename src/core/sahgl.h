// Side information-Aware Heterogeneous Graph Learning (paper §III-C):
// behavior-aware graph convolution (Eqs. 5-6), modality-aware graph
// convolution (Eqs. 7-8), knowledge-aware graph attention (Eqs. 9-13) and
// importance-aware fusion (Eqs. 14-15). The beta_t / beta_i modality weights
// are updated externally by the discriminator-driven momentum rule
// (Eqs. 16-17) in FirzenModel.
#ifndef FIRZEN_CORE_SAHGL_H_
#define FIRZEN_CORE_SAHGL_H_

#include <memory>
#include <vector>

#include "src/core/frozen_graphs.h"
#include "src/models/kg_common.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"

namespace firzen {

struct SahglOptions {
  Index embedding_dim = 32;
  int behavior_layers = 2;   // L for the behavior GCN
  int knowledge_layers = 1;  // bi-interaction propagation depth
  Real lambda_k = 0.36;
  Real lambda_m = 1.10;
  Real feature_dropout = 0.1;  // dropout inside the Linear of Eq. 7
  // Component gates (ablation, Table IV / Table VIII).
  bool use_behavior = true;
  bool use_knowledge = true;
  std::vector<bool> use_modality;  // per modality; empty = all enabled
};

/// Per-forward outputs consumed by MSHGL and the loss terms.
struct SahglOutput {
  Tensor fused_user;  // e_u (Eq. 14), U x d
  Tensor fused_item;  // e_i (Eq. 15), I x d
  std::vector<Tensor> modal_user;  // x^m_u per modality (Eq. 7)
  std::vector<Tensor> modal_item;  // x^m_i per modality (Eq. 8)
};

class Sahgl {
 public:
  Sahgl() = default;
  Sahgl(const Dataset& dataset, const SahglOptions& options, Rng* rng);

  /// Full-graph forward pass. `betas` are the current modality importance
  /// weights (size = #modalities). Pass training=false at inference to
  /// disable dropout and zero the behavior component of strict cold items
  /// (their ID rows were never trained — §III-C.1).
  SahglOutput Forward(const FrozenGraphs& graphs, const Dataset& dataset,
                      const std::vector<Real>& betas, bool training,
                      Rng* dropout_rng);

  /// Recomputes the knowledge attention (Eqs. 9-11) over `graphs.ckg` from
  /// the current KG parameters. Forward reads the last one computed, and
  /// checks that it was computed over a CKG of its graphs' shape.
  void RefreshAttention(const FrozenGraphs& graphs);

  /// Parameters trained by the recommendation objective.
  std::vector<Tensor> RecParams() const;

  /// Parameters trained by the alternating KG objective (Eqs. 30-31).
  const KgEmbeddings& kg() const { return kg_; }

  /// Current modality projection Linear(f_m) of all items (no dropout).
  /// Used by the dynamic-graph ablation (DESIGN.md §4: frozen vs.
  /// LATTICE-style per-epoch graph refresh).
  Matrix ProjectedModalFeatures(size_t modality) const;

  const SahglOptions& options() const { return options_; }

  /// Replaces the component gates (used by ablation / Table VIII inference
  /// sweeps). The modality gate vector must keep its size.
  void set_options(const SahglOptions& options) { options_ = options; }

 private:
  /// Linear(f_m) of Eq. 7 over all items: f_m W_m + b_m.
  Tensor Project(size_t modality) const;

  SahglOptions options_;
  Tensor behavior_table_;           // (U + I) x d
  KgEmbeddings kg_;                 // over CKG entities
  std::vector<Tensor> w1_;          // bi-interaction weights per layer
  std::vector<Tensor> w2_;
  std::vector<Tensor> modal_proj_;  // Linear of Eq. 7 per modality
  std::vector<Tensor> modal_bias_;
  std::vector<Tensor> modal_features_;  // constants (standardized)
  std::shared_ptr<const CsrMatrix> attention_;
  Index num_users_ = 0;
  Index num_items_ = 0;
};

}  // namespace firzen

#endif  // FIRZEN_CORE_SAHGL_H_
