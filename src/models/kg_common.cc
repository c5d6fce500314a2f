#include "src/models/kg_common.h"

#include <cmath>
#include <vector>

#include "src/tensor/init.h"
#include "src/util/check.h"

namespace firzen {

KgEmbeddings MakeKgEmbeddings(Index num_entities, Index num_relations,
                              Index dim, Rng* rng) {
  KgEmbeddings kg;
  kg.entity = XavierVariable(num_entities, dim, rng);
  kg.relation = XavierVariable(num_relations, dim, rng);
  // Projections initialized near identity (value 1) for stable warm-up.
  Matrix proj(num_relations, dim, 1.0);
  for (Index i = 0; i < proj.size(); ++i) {
    proj.data()[i] += 0.05 * rng->Normal();
  }
  kg.rel_proj = Tensor::Variable(std::move(proj));
  return kg;
}

KgBatch SampleKgBatch(const std::vector<Triplet>& triplets,
                      Index num_entities, Index batch_size, Rng* rng) {
  FIRZEN_CHECK(!triplets.empty());
  KgBatch batch;
  batch.heads.reserve(batch_size);
  batch.relations.reserve(batch_size);
  batch.pos_tails.reserve(batch_size);
  batch.neg_tails.reserve(batch_size);
  for (Index b = 0; b < batch_size; ++b) {
    const Triplet& t = triplets[static_cast<size_t>(
        rng->UniformInt(static_cast<Index>(triplets.size())))];
    batch.heads.push_back(t.head);
    batch.relations.push_back(t.relation);
    batch.pos_tails.push_back(t.tail);
    Index neg = rng->UniformInt(num_entities);
    if (neg == t.tail) neg = (neg + 1) % num_entities;
    batch.neg_tails.push_back(neg);
  }
  return batch;
}

Tensor TransRScore(const KgEmbeddings& kg, const std::vector<Index>& heads,
                   const std::vector<Index>& relations,
                   const std::vector<Index>& tails) {
  using namespace ops;  // NOLINT(build/namespaces)
  Tensor h = GatherRows(kg.entity, heads);
  Tensor r = GatherRows(kg.relation, relations);
  Tensor w = GatherRows(kg.rel_proj, relations);
  Tensor t = GatherRows(kg.entity, tails);
  Tensor diff = Sub(Add(Mul(w, h), r), Mul(w, t));
  return Scale(RowDot(diff, diff), -1.0);
}

Tensor TransRLoss(const KgEmbeddings& kg, const KgBatch& batch, Real reg) {
  using namespace ops;  // NOLINT(build/namespaces)
  Tensor sc_pos = TransRScore(kg, batch.heads, batch.relations,
                              batch.pos_tails);
  Tensor sc_neg = TransRScore(kg, batch.heads, batch.relations,
                              batch.neg_tails);
  Tensor rank = ReduceMean(Softplus(Sub(sc_neg, sc_pos)));
  Tensor h = GatherRows(kg.entity, batch.heads);
  Tensor r = GatherRows(kg.relation, batch.relations);
  Tensor tp = GatherRows(kg.entity, batch.pos_tails);
  Tensor tn = GatherRows(kg.entity, batch.neg_tails);
  Tensor l2 = Add(Add(SumSquares(h), SumSquares(r)),
                  Add(SumSquares(tp), SumSquares(tn)));
  return Add(rank, Scale(l2, reg / static_cast<Real>(batch.heads.size())));
}

CsrMatrix ComputeKgAttention(const CollaborativeKg& ckg, const Matrix& entity,
                             const Matrix& relation, const Matrix& rel_proj) {
  FIRZEN_CHECK_EQ(entity.rows(), ckg.num_entities);
  FIRZEN_CHECK_EQ(relation.rows(), ckg.num_relations);
  const Index d = entity.cols();
  const Index nnz = ckg.topology.nnz();
  std::vector<Real> values(static_cast<size_t>(nnz));
  const auto& row_ptr = ckg.topology.row_ptr();
  const auto& col_idx = ckg.topology.col_idx();
  // tanh(w_r . x_h + x_r) depends only on (head, relation): each head's
  // edges are grouped by relation through `group` (a relation's row in
  // `th`, or -1), which is reset after the head, and the tanh row is
  // computed when its relation is first met.
  std::vector<Index> group(static_cast<size_t>(ckg.num_relations), -1);
  std::vector<Index> head_relations;  // relations met, in group order
  std::vector<Real> th;               // groups x d
  for (Index h = 0; h < ckg.num_entities; ++h) {
    const Real* xh = entity.row(h);
    for (Index p = row_ptr[h]; p < row_ptr[h + 1]; ++p) {
      const Index r = ckg.edge_relation[static_cast<size_t>(p)];
      const Real* wr = rel_proj.row(r);
      Index& g = group[static_cast<size_t>(r)];
      if (g < 0) {
        g = static_cast<Index>(head_relations.size());
        head_relations.push_back(r);
        th.resize(head_relations.size() * static_cast<size_t>(d));
        const Real* xr = relation.row(r);
        Real* out = th.data() + g * d;
        for (Index c = 0; c < d; ++c) {
          out[c] = std::tanh(wr[c] * xh[c] + xr[c]);
        }
      }
      const Real* xt = entity.row(col_idx[static_cast<size_t>(p)]);
      const Real* thr = th.data() + g * d;
      Real score = 0.0;
      for (Index c = 0; c < d; ++c) score += (wr[c] * xt[c]) * thr[c];
      values[static_cast<size_t>(p)] = score;
    }
    for (Index r : head_relations) group[static_cast<size_t>(r)] = -1;
    head_relations.clear();
  }
  return ckg.topology.WithValues(std::move(values)).RowSoftmax();
}

Tensor BiInteraction(const std::shared_ptr<const CsrMatrix>& attention,
                     const Tensor& x, const Tensor& w1, const Tensor& w2) {
  using namespace ops;  // NOLINT(build/namespaces)
  Tensor neighborhood = SpMM(attention, x);
  Tensor sum_part = LeakyRelu(MatMul(Add(x, neighborhood), w1));
  Tensor prod_part = LeakyRelu(MatMul(Mul(x, neighborhood), w2));
  return Add(sum_part, prod_part);
}

}  // namespace firzen
