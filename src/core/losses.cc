#include "src/core/losses.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace firzen {

Tensor ModalContrastiveLoss(const Tensor& final_user_batch,
                            const Tensor& modal_user_batch) {
  using namespace ops;  // NOLINT(build/namespaces)
  FIRZEN_CHECK_EQ(final_user_batch.rows(), modal_user_batch.rows());
  const Index b = final_user_batch.rows();
  Tensor fin = RowL2Normalize(final_user_batch);
  Tensor mod = RowL2Normalize(modal_user_batch);
  // Positive: s(e-breve_u, x^m_u) along the diagonal.
  Tensor positives = RowDot(fin, mod);  // B x 1
  // Denominator (Eq. 29): column u sums over anchors u' from both the final
  // and the modal embedding families.
  Tensor s_final = MatMul(fin, mod, false, true);  // [u', u]
  Tensor s_modal = MatMul(mod, mod, false, true);
  Tensor den = Add(ColSumExp(s_final), ColSumExp(s_modal));  // 1 x B
  Tensor log_den = Reshape(Log(den), b, 1);
  return ReduceMean(Sub(log_den, positives));
}

Matrix BuildAugmentedBlock(
    const std::vector<Index>& users, const std::vector<Index>& items,
    const std::vector<std::unordered_set<Index>>& train_sets,
    const Matrix& final_user, const Matrix& final_item, Real temperature,
    Real aux_gamma, Rng* rng) {
  const Index rows = static_cast<Index>(users.size());
  const Index cols = static_cast<Index>(items.size());
  Matrix block(rows, cols);
  std::vector<Real> row(static_cast<size_t>(cols));
  for (Index r = 0; r < rows; ++r) {
    const auto& seen = train_sets[static_cast<size_t>(users[r])];
    Real max_v = -1e30;
    for (Index c = 0; c < cols; ++c) {
      const Real y = seen.count(items[static_cast<size_t>(c)]) > 0 ? 1.0 : 0.0;
      // Eq. 23/25: Gumbel perturbation then row softmax.
      row[static_cast<size_t>(c)] = (y + 0.1 * rng->Gumbel()) / temperature;
      max_v = std::max(max_v, row[static_cast<size_t>(c)]);
    }
    Real denom = 0.0;
    for (Index c = 0; c < cols; ++c) {
      row[static_cast<size_t>(c)] =
          std::exp(row[static_cast<size_t>(c)] - max_v);
      denom += row[static_cast<size_t>(c)];
    }
    for (Index c = 0; c < cols; ++c) {
      Real phi = 0.0;
      if (!final_user.empty()) {
        // Eq. 24 auxiliary cosine signal.
        const Real* eu = final_user.row(users[r]);
        const Real* ei = final_item.row(items[static_cast<size_t>(c)]);
        Real dot = 0.0;
        Real nu = 0.0;
        Real ni = 0.0;
        for (Index k = 0; k < final_user.cols(); ++k) {
          dot += eu[k] * ei[k];
          nu += eu[k] * eu[k];
          ni += ei[k] * ei[k];
        }
        phi = dot / (std::sqrt(nu * ni) + 1e-12);
      }
      block(r, c) = row[static_cast<size_t>(c)] / denom + aux_gamma * phi;
    }
  }
  return block;
}

}  // namespace firzen
