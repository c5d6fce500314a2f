#include "src/models/mm_common.h"

#include <cmath>

#include "src/util/check.h"

namespace firzen {

void RequireModalFeatures(const Dataset& dataset) {
  FIRZEN_CHECK_MSG(!dataset.modalities.empty(),
                   "the dataset has no modality features (text/image); "
                   "feature models need at least one");
}

Matrix ConcatModalFeatures(const Dataset& dataset) {
  RequireModalFeatures(dataset);
  Index total_dim = 0;
  for (const Modality& m : dataset.modalities) total_dim += m.features.cols();
  Matrix out(dataset.num_items, total_dim);
  Index offset = 0;
  for (const Modality& m : dataset.modalities) {
    for (Index i = 0; i < dataset.num_items; ++i) {
      const Real* src = m.features.row(i);
      Real* dst = out.row(i) + offset;
      for (Index c = 0; c < m.features.cols(); ++c) dst[c] = src[c];
    }
    offset += m.features.cols();
  }
  return out;
}

void StandardizeColumns(Matrix* features) {
  const Index n = features->rows();
  const Index d = features->cols();
  if (n == 0) return;
  for (Index c = 0; c < d; ++c) {
    Real mean = 0.0;
    for (Index r = 0; r < n; ++r) mean += (*features)(r, c);
    mean /= n;
    Real var = 0.0;
    for (Index r = 0; r < n; ++r) {
      const Real dev = (*features)(r, c) - mean;
      var += dev * dev;
    }
    var /= n;
    const Real inv_std = 1.0 / std::sqrt(var + 1e-8);
    for (Index r = 0; r < n; ++r) {
      (*features)(r, c) = ((*features)(r, c) - mean) * inv_std;
    }
  }
}

}  // namespace firzen
