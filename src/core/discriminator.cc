#include "src/core/discriminator.h"

#include <algorithm>

#include "src/tensor/init.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace firzen {

Discriminator::Discriminator(Index input_dim, const Options& options,
                             Rng* rng)
    : input_dim_(input_dim), options_(options) {
  w1_ = XavierVariable(input_dim, options.hidden_dim, rng);
  b1_ = ZerosVariable(1, options.hidden_dim);
  gamma_ = Tensor::Variable(Matrix(1, options.hidden_dim, 1.0));
  beta_ = ZerosVariable(1, options.hidden_dim);
  w2_ = XavierVariable(options.hidden_dim, 1, rng);
  b2_ = ZerosVariable(1, 1);
}

Tensor Discriminator::Critic(const Tensor& x, Rng* dropout_rng,
                             bool training) {
  using namespace ops;  // NOLINT(build/namespaces)
  FIRZEN_CHECK_EQ(x.cols(), input_dim_);
  Tensor h = LeakyRelu(AddRowBroadcast(MatMul(x, w1_), b1_),
                       options_.leaky_slope);
  if (x.rows() > 1) {
    h = BatchNorm(h, gamma_, beta_);
  }
  if (training && options_.dropout > 0.0) {
    h = Dropout(h, options_.dropout, dropout_rng);
  }
  return AddRowBroadcast(MatMul(h, w2_), b2_);
}

Tensor Discriminator::Forward(const Tensor& x, Rng* dropout_rng,
                              bool training) {
  return ops::Sigmoid(Critic(x, dropout_rng, training));
}

std::vector<Tensor> Discriminator::Params() const {
  return {w1_, b1_, gamma_, beta_, w2_, b2_};
}

void Discriminator::ClipWeights() {
  const Real clip = options_.weight_clip;
  for (Tensor param : {w1_, w2_}) {
    Matrix* value = param.mutable_value();
    ops::ApplyElementwise(
        value->size(), value->data(), value->data(),
        [clip](Real v) { return std::clamp(v, -clip, clip); });
  }
}

}  // namespace firzen
