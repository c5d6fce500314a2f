// Test-only scorer whose score for each (user, item) cell is an arbitrary
// function: the stand-in for score tables no trained model produces
// (descending ids, all ties, NaN holes, per-trial random grids). It has no
// arena cache; every call evaluates its cells directly, so it is as
// thread-safe as the function it wraps.
#ifndef FIRZEN_TESTS_CELL_SCORER_H_
#define FIRZEN_TESTS_CELL_SCORER_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/models/scorer.h"
#include "src/util/check.h"

namespace firzen {

class CellScorer : public Scorer {
 public:
  using CellFn = std::function<Real(Index user, Index item)>;

  CellScorer(CellFn score, Index num_items)
      : score_(std::move(score)), num_items_(num_items) {}

  Index num_items() const override { return num_items_; }

  void ScoreBlock(const std::vector<Index>& users, ItemBlock block,
                  MatrixView out, ScoringArena* /*arena*/) const override {
    FIRZEN_CHECK_GE(block.begin, 0);
    FIRZEN_CHECK_LE(block.begin, block.end);
    FIRZEN_CHECK_LE(block.end, num_items_);
    FIRZEN_CHECK_EQ(out.rows(), static_cast<Index>(users.size()));
    FIRZEN_CHECK_EQ(out.cols(), block.size());
    for (size_t r = 0; r < users.size(); ++r) {
      for (Index j = 0; j < block.size(); ++j) {
        out(static_cast<Index>(r), j) = score_(users[r], block.begin + j);
      }
    }
  }

  void ScoreCandidates(const std::vector<Index>& users,
                       const std::vector<Index>& candidates, MatrixView out,
                       ScoringArena* /*arena*/) const override {
    FIRZEN_CHECK_EQ(out.rows(), static_cast<Index>(users.size()));
    FIRZEN_CHECK_EQ(out.cols(), static_cast<Index>(candidates.size()));
    for (size_t r = 0; r < users.size(); ++r) {
      for (size_t j = 0; j < candidates.size(); ++j) {
        FIRZEN_CHECK_GE(candidates[j], 0);
        FIRZEN_CHECK_LT(candidates[j], num_items_);
        out(static_cast<Index>(r), static_cast<Index>(j)) =
            score_(users[r], candidates[j]);
      }
    }
  }

 private:
  CellFn score_;
  Index num_items_;
};

}  // namespace firzen

#endif  // FIRZEN_TESTS_CELL_SCORER_H_
