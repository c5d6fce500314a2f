#include "src/models/kgcn.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/init.h"
#include "src/tensor/optim.h"
#include "src/util/check.h"

namespace firzen {

void Kgcn::Fit(const Dataset& dataset, const TrainOptions& options) {
  using namespace ops;  // NOLINT(build/namespaces)
  Rng rng(options.seed);
  num_items_ = dataset.num_items;
  dim_ = options.embedding_dim;
  const Index s = kgcn_options_.neighbor_samples;

  // Freeze per-item neighbor samples from the (item-headed) KG triplets.
  std::vector<std::vector<std::pair<Index, Index>>> by_item(
      static_cast<size_t>(num_items_));
  for (const Triplet& t : dataset.kg.triplets) {
    if (t.head < num_items_) {
      by_item[static_cast<size_t>(t.head)].emplace_back(t.tail, t.relation);
    }
  }
  neighbor_tails_.assign(static_cast<size_t>(num_items_ * s), 0);
  neighbor_rels_.assign(static_cast<size_t>(num_items_ * s), 0);
  for (Index i = 0; i < num_items_; ++i) {
    const auto& pool = by_item[static_cast<size_t>(i)];
    for (Index j = 0; j < s; ++j) {
      if (pool.empty()) {
        // Self-loop fallback for KG-isolated items.
        neighbor_tails_[static_cast<size_t>(i * s + j)] = i;
        neighbor_rels_[static_cast<size_t>(i * s + j)] = 0;
      } else {
        const auto& pick = pool[static_cast<size_t>(
            rng.UniformInt(static_cast<Index>(pool.size())))];
        neighbor_tails_[static_cast<size_t>(i * s + j)] = pick.first;
        neighbor_rels_[static_cast<size_t>(i * s + j)] = pick.second;
      }
    }
  }

  Tensor user_table = XavierVariable(dataset.num_users, dim_, &rng);
  Tensor entity_table = XavierVariable(dataset.kg.num_entities, dim_, &rng);
  Tensor relation_table =
      XavierVariable(std::max<Index>(1, dataset.kg.num_relations), dim_, &rng);
  Tensor w = XavierVariable(dim_, dim_, &rng);
  Tensor bias = ZerosVariable(1, dim_);

  Adam::Options adam_options;
  adam_options.lr = options.lr;
  adam_options.lazy = true;
  Adam optimizer(adam_options);

  auto item_tower = [&](const std::vector<Index>& items,
                        const Tensor& eu) -> Tensor {
    const Index b = static_cast<Index>(items.size());
    std::vector<Index> tails(static_cast<size_t>(b * s));
    std::vector<Index> rels(static_cast<size_t>(b * s));
    for (Index k = 0; k < b; ++k) {
      for (Index j = 0; j < s; ++j) {
        tails[static_cast<size_t>(k * s + j)] =
            neighbor_tails_[static_cast<size_t>(items[static_cast<size_t>(k)] * s + j)];
        rels[static_cast<size_t>(k * s + j)] =
            neighbor_rels_[static_cast<size_t>(items[static_cast<size_t>(k)] * s + j)];
      }
    }
    Tensor er = GatherRows(relation_table, rels);          // (B*S) x d
    Tensor eu_rep = RepeatInterleaveRows(eu, s);           // (B*S) x d
    Tensor pi = Reshape(RowDot(eu_rep, er), b, s);         // B x S
    Tensor weights = Reshape(RowSoftmax(pi), b * s, 1);    // (B*S) x 1
    Tensor tails_emb = GatherRows(entity_table, tails);    // (B*S) x d
    Tensor agg = SumGroups(RowScale(tails_emb, weights), s);  // B x d
    Tensor ego = GatherRows(entity_table, items);
    return Tanh(AddRowBroadcast(MatMul(Add(agg, ego), w), bias));
  };

  EpochLoop loop;
  loop.step = [&](const BprBatch& batch) {
    Tensor eu = GatherRows(user_table, batch.users);
    Tensor vp = item_tower(batch.pos, eu);
    Tensor vn = item_tower(batch.neg, eu);
    Tensor loss = Add(BprLoss(eu, vp, vn),
                      BatchL2({eu, vp, vn}, options.reg, options.batch_size));
    if (SmoothnessWeight() > 0.0) {
      // Embedding smoothness over positive neighborhoods: pull sampled
      // tails toward the item embedding (label-smoothness substitution).
      const Index b = static_cast<Index>(batch.pos.size());
      std::vector<Index> tails(static_cast<size_t>(b * s));
      for (Index k = 0; k < b; ++k) {
        for (Index j = 0; j < s; ++j) {
          tails[static_cast<size_t>(k * s + j)] = neighbor_tails_
              [static_cast<size_t>(batch.pos[static_cast<size_t>(k)] * s + j)];
        }
      }
      Tensor t_emb = GatherRows(entity_table, tails);
      Tensor ego_rep =
          RepeatInterleaveRows(GatherRows(entity_table, batch.pos), s);
      Tensor diff = Sub(t_emb, ego_rep);
      loss = Add(loss, Scale(ReduceMean(Mul(diff, diff)),
                             SmoothnessWeight()));
    }
    Backward(loss);
    optimizer.Step({user_table, entity_table, relation_table, w, bias});
    return loss.scalar();
  };
  // KgcnScorer scores from the five tables; final_* are kept for
  // ItemEmbeddings() and diagnostics.
  const auto publish = [&] {
    final_user_ = user_emb_;
    final_item_ = ItemEmbeddings();
  };
  loop.compute_final = [&] {
    user_emb_ = user_table.value();
    entity_emb_ = entity_table.value();
    relation_emb_ = relation_table.value();
    w_ = w.value();
    bias_ = bias.value();
    publish();
  };
  // The best state is the five tables the scorer reads, not final_*.
  Matrix best_user;
  Matrix best_entity;
  Matrix best_relation;
  Matrix best_w;
  Matrix best_bias;
  loop.save_best = [&] {
    best_user = user_emb_;
    best_entity = entity_emb_;
    best_relation = relation_emb_;
    best_w = w_;
    best_bias = bias_;
  };
  loop.restore_best = [&] {
    user_emb_ = best_user;
    entity_emb_ = best_entity;
    relation_emb_ = best_relation;
    w_ = best_w;
    bias_ = best_bias;
    publish();
  };
  RunEpochs(dataset, options, loop);
}

namespace {

// Block-native scorer for the user-conditioned KGCN tower. Holds references
// into the owning model (which must outlive it) plus the projected entity
// table (entity_emb * W) computed once at mint time instead of once per
// scoring call. The per-user relation-attention logits are cached in the
// caller's ScoringArena keyed by the user batch, so streaming a catalog
// block-by-block computes them once per batch (and concurrent callers with
// separate arenas never share scratch). Item positions shard across the
// pool with per-shard softmax scratch; every (user, item) cell is an
// independent p-ordered computation, so results are bit-identical for any
// block partitioning and pool size.
class KgcnScorer : public Scorer {
 public:
  KgcnScorer(const Matrix& user_emb, const Matrix& relation_emb,
             const Matrix& bias, const std::vector<Index>& neighbor_tails,
             const std::vector<Index>& neighbor_rels, Index s,
             Index num_items, Matrix projected)
      : user_emb_(user_emb),
        relation_emb_(relation_emb),
        bias_(bias),
        neighbor_tails_(neighbor_tails),
        neighbor_rels_(neighbor_rels),
        s_(s),
        num_items_(num_items),
        projected_(std::move(projected)) {}

  Index num_items() const override { return num_items_; }

  void ScoreBlock(const std::vector<Index>& users, ItemBlock block,
                  MatrixView out, ScoringArena* arena) const override {
    FIRZEN_CHECK_GE(block.begin, 0);
    FIRZEN_CHECK_LE(block.begin, block.end);
    FIRZEN_CHECK_LE(block.end, num_items_);
    ScoreItems(users, block.begin, nullptr, block.size(), out, arena);
  }

  void ScoreCandidates(const std::vector<Index>& users,
                       const std::vector<Index>& candidates, MatrixView out,
                       ScoringArena* arena) const override {
    for (Index item : candidates) {
      FIRZEN_CHECK_GE(item, 0);
      FIRZEN_CHECK_LT(item, num_items_);
    }
    ScoreItems(users, 0, &candidates, static_cast<Index>(candidates.size()),
               out, arena);
  }

 private:
  // Per-user relation attention logits, shared by every item in a call and
  // cached in the arena across consecutive calls with the same user batch.
  const Matrix& RelLogitsFor(const std::vector<Index>& users,
                             ScoringArena* arena) const {
    arena->BindTo(scorer_id());
    const Index d = user_emb_.cols();
    const Index num_rel = relation_emb_.rows();
    if (users != arena->cached_users ||
        arena->rel_logits.rows() != static_cast<Index>(users.size())) {
      Matrix& rel_score = arena->rel_logits;
      rel_score.ResizeUninitialized(static_cast<Index>(users.size()), num_rel);
      for (size_t r = 0; r < users.size(); ++r) {
        const Real* eu = user_emb_.row(users[r]);
        for (Index rel = 0; rel < num_rel; ++rel) {
          const Real* er = relation_emb_.row(rel);
          Real acc = 0.0;
          for (Index c = 0; c < d; ++c) acc += eu[c] * er[c];
          rel_score(static_cast<Index>(r), rel) = acc;
        }
      }
      arena->cached_users = users;
    }
    return arena->rel_logits;
  }

  // Scores `count` items — candidates when given, else the contiguous range
  // starting at `first` — for every user into `out`.
  void ScoreItems(const std::vector<Index>& users, Index first,
                  const std::vector<Index>* candidates, Index count,
                  MatrixView out, ScoringArena* arena) const {
    FIRZEN_CHECK(arena != nullptr);
    FIRZEN_CHECK_EQ(out.rows(), static_cast<Index>(users.size()));
    FIRZEN_CHECK_EQ(out.cols(), count);
    if (users.empty() || count == 0) return;
    const Index d = user_emb_.cols();
    const Matrix& rel_score = RelLogitsFor(users, arena);

    ParallelFor(
        ThreadPool::Global(), count,
        [&](Index begin, Index end) {
          std::vector<Real> weight(static_cast<size_t>(s_));
          std::vector<Real> tower(static_cast<size_t>(d));
          for (Index j = begin; j < end; ++j) {
            const Index i =
                candidates ? (*candidates)[static_cast<size_t>(j)] : first + j;
            for (size_t r = 0; r < users.size(); ++r) {
              const Real* logits = rel_score.row(static_cast<Index>(r));
              // Softmax over the item's sampled neighbor relations.
              Real max_v = -1e30;
              for (Index t = 0; t < s_; ++t) {
                max_v = std::max(
                    max_v, logits[neighbor_rels_[static_cast<size_t>(
                               i * s_ + t)]]);
              }
              Real denom = 0.0;
              for (Index t = 0; t < s_; ++t) {
                weight[static_cast<size_t>(t)] = std::exp(
                    logits[neighbor_rels_[static_cast<size_t>(i * s_ + t)]] -
                    max_v);
                denom += weight[static_cast<size_t>(t)];
              }
              const Real* ego = projected_.row(i);
              for (Index c = 0; c < d; ++c) {
                tower[static_cast<size_t>(c)] = ego[c];
              }
              for (Index t = 0; t < s_; ++t) {
                const Real wj = weight[static_cast<size_t>(t)] / denom;
                const Real* tail = projected_.row(
                    neighbor_tails_[static_cast<size_t>(i * s_ + t)]);
                for (Index c = 0; c < d; ++c) {
                  tower[static_cast<size_t>(c)] += wj * tail[c];
                }
              }
              const Real* eu = user_emb_.row(users[r]);
              Real score = 0.0;
              for (Index c = 0; c < d; ++c) {
                score += eu[c] * std::tanh(tower[static_cast<size_t>(c)] +
                                           bias_(0, c));
              }
              out(static_cast<Index>(r), j) = score;
            }
          }
        },
        /*min_shard_size=*/64);
  }

  const Matrix& user_emb_;
  const Matrix& relation_emb_;
  const Matrix& bias_;
  const std::vector<Index>& neighbor_tails_;
  const std::vector<Index>& neighbor_rels_;
  Index s_;
  Index num_items_;
  Matrix projected_;
};

}  // namespace

std::unique_ptr<Scorer> Kgcn::MakeScorer(ScoringPrecision precision) const {
  (void)precision;
  FIRZEN_CHECK(!user_emb_.empty());
  // entity_emb * W once per scorer, amortized over every streamed block.
  Matrix projected;
  Gemm(false, false, 1.0, entity_emb_, w_, 0.0, &projected);
  return std::make_unique<KgcnScorer>(
      user_emb_, relation_emb_, bias_, neighbor_tails_, neighbor_rels_,
      kgcn_options_.neighbor_samples, num_items_, std::move(projected));
}

Matrix Kgcn::ItemEmbeddings() const {
  Matrix out(num_items_, dim_);
  for (Index i = 0; i < num_items_; ++i) {
    for (Index c = 0; c < dim_; ++c) out(i, c) = entity_emb_(i, c);
  }
  return out;
}

}  // namespace firzen
