#include "src/models/recommender.h"

namespace firzen {

Recommender::~Recommender() = default;

void Recommender::Score(const std::vector<Index>& users,
                        Matrix* scores) const {
  const std::unique_ptr<Scorer> scorer = MakeScorer();
  scores->ResizeUninitialized(static_cast<Index>(users.size()),
                              scorer->num_items());
  ScoringArena arena;
  scorer->ScoreBlock(users, {0, scorer->num_items()}, MatrixView(scores),
                     &arena);
}

void Recommender::PrepareColdInference(const Dataset& dataset) {
  (void)dataset;
}

void Recommender::PrepareNormalColdInference(const Dataset& dataset) {
  PrepareColdInference(dataset);
}

Matrix Recommender::ItemEmbeddings() const { return Matrix(); }

Matrix Recommender::UserEmbeddings() const { return Matrix(); }

bool EarlyStopper::Update(Real metric) {
  if (metric > best_) {
    best_ = metric;
    strikes_ = 0;
    improved_ = true;
    return false;
  }
  improved_ = false;
  return ++strikes_ > patience_;
}

}  // namespace firzen
