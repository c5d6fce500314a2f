// Shared helpers for multi-modal models.
#ifndef FIRZEN_MODELS_MM_COMMON_H_
#define FIRZEN_MODELS_MM_COMMON_H_

#include "src/data/dataset.h"
#include "src/tensor/matrix.h"

namespace firzen {

/// Aborts with a message naming the missing input when `dataset` carries
/// no modality features: every feature model needs at least one.
void RequireModalFeatures(const Dataset& dataset);

/// Concatenation [modality_0 | modality_1 | ...] of all per-item feature
/// tables (num_items x sum(dims)). Requires modality features.
Matrix ConcatModalFeatures(const Dataset& dataset);

/// Standardizes each column to zero mean / unit variance (in place); keeps
/// raw projections well-conditioned across modalities with different scales.
void StandardizeColumns(Matrix* features);

}  // namespace firzen

#endif  // FIRZEN_MODELS_MM_COMMON_H_
