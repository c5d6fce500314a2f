#include "src/tensor/init.h"

#include <cmath>

namespace firzen {

Matrix XavierUniform(Index rows, Index cols, Rng* rng) {
  Matrix m(rows, cols);
  const Real a = std::sqrt(6.0 / static_cast<Real>(rows + cols));
  m.FillUniform(rng, -a, a);
  return m;
}

Tensor ZerosVariable(Index rows, Index cols) {
  return Tensor::Variable(Matrix(rows, cols));
}

Tensor XavierVariable(Index rows, Index cols, Rng* rng) {
  return Tensor::Variable(XavierUniform(rows, cols, rng));
}

}  // namespace firzen
