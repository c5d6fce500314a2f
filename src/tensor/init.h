// Parameter initialization schemes. The paper initializes ID embeddings with
// Xavier uniform (Section III-C).
#ifndef FIRZEN_TENSOR_INIT_H_
#define FIRZEN_TENSOR_INIT_H_

#include "src/tensor/matrix.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace firzen {

/// Xavier/Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
Matrix XavierUniform(Index rows, Index cols, Rng* rng);

/// Zero-initialized matrix as a trainable Variable.
Tensor ZerosVariable(Index rows, Index cols);

/// Xavier-uniform trainable Variable.
Tensor XavierVariable(Index rows, Index cols, Rng* rng);

}  // namespace firzen

#endif  // FIRZEN_TENSOR_INIT_H_
