#include "src/models/scorer.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/util/check.h"

namespace firzen {

namespace {

// Copies the rows named by `users` out of `table` into `batch`.
void GatherRows(const Matrix& table, const std::vector<Index>& users,
                Matrix* batch) {
  batch->ResizeUninitialized(static_cast<Index>(users.size()), table.cols());
  for (size_t r = 0; r < users.size(); ++r) {
    FIRZEN_CHECK_GE(users[r], 0);
    FIRZEN_CHECK_LT(users[r], table.rows());
    const Real* src = table.row(users[r]);
    Real* dst = batch->row(static_cast<Index>(r));
    for (Index c = 0; c < table.cols(); ++c) dst[c] = src[c];
  }
}

void CheckBlock(ItemBlock block, Index num_items) {
  FIRZEN_CHECK_GE(block.begin, 0);
  FIRZEN_CHECK_LE(block.begin, block.end);
  FIRZEN_CHECK_LE(block.end, num_items);
}

void CheckOut(MatrixView out, Index rows, Index cols) {
  FIRZEN_CHECK_EQ(out.rows(), rows);
  FIRZEN_CHECK_EQ(out.cols(), cols);
}

}  // namespace

ArenaPool::Lease& ArenaPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr && arena_ != nullptr) {
      pool_->Release(std::move(arena_));
    }
    pool_ = other.pool_;
    arena_ = std::move(other.arena_);
    other.pool_ = nullptr;
  }
  return *this;
}

ArenaPool::Lease::~Lease() {
  if (pool_ != nullptr && arena_ != nullptr) {
    pool_->Release(std::move(arena_));
  }
}

ArenaPool::Lease ArenaPool::Acquire() {
  {
    MutexLock lock(mu_);
    if (!free_.empty()) {
      std::unique_ptr<ScoringArena> arena = std::move(free_.back());
      free_.pop_back();
      return Lease(this, std::move(arena));
    }
  }
  return Lease(this, std::make_unique<ScoringArena>());
}

void ArenaPool::Release(std::unique_ptr<ScoringArena> arena) {
  MutexLock lock(mu_);
  free_.push_back(std::move(arena));
}

namespace {

// Monotonic scorer-id source: ids are never reused, so an arena bound to a
// destroyed scorer can never mistake a newly minted one (even at the same
// address) for its previous owner.
uint64_t NextScorerId() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;  // first id is 1; 0 means "arena unbound"
}

}  // namespace

const char* ScoringPrecisionName(ScoringPrecision precision) {
  switch (precision) {
    case ScoringPrecision::kFp32:
      return "fp32";
    case ScoringPrecision::kInt8:
      return "int8";
  }
  return "unknown";
}

Scorer::Scorer() : scorer_id_(NextScorerId()) {}

Scorer::~Scorer() = default;

DotProductScorer::DotProductScorer(const Matrix& user_emb,
                                   const Matrix& item_emb, ThreadPool* pool,
                                   ScoringPrecision precision)
    : user_emb_(user_emb),
      item_emb_(item_emb),
      pool_(pool),
      precision_(precision) {
  FIRZEN_CHECK(!user_emb.empty());
  FIRZEN_CHECK(!item_emb.empty());
  FIRZEN_CHECK_EQ(user_emb.cols(), item_emb.cols());
  if (precision_ == ScoringPrecision::kInt8) {
    // Mint-time work: the catalog is frozen for the scorer's lifetime, so
    // the per-row scales are computed exactly once and amortize over every
    // block this scorer ever streams.
    quant_items_ = QuantizedMatrix::FromMatrix(item_emb, pool);
  }
}

const Matrix& DotProductScorer::BatchFor(const std::vector<Index>& users,
                                         ScoringArena* arena) const {
  arena->BindTo(scorer_id());
  if (users != arena->cached_users ||
      arena->user_batch.rows() != static_cast<Index>(users.size())) {
    GatherRows(user_emb_, users, &arena->user_batch);
    arena->cached_users = users;
  }
  return arena->user_batch;
}

// Quantizes the gathered user batch into the arena's int8 scratch, cached
// under the same users key as the fp32 gather: streaming a catalog
// block-by-block quantizes each batch once per arena. Rows share
// QuantizeRow with the catalog build — one definition of the code mapping
// on both sides of the dot product.
void DotProductScorer::QuantBatchFor(const std::vector<Index>& users,
                                     ScoringArena* arena) const {
  arena->BindTo(scorer_id());
  const Index stride = quant_items_.stride();
  const size_t rows = users.size();
  if (users == arena->cached_users && arena->q_user_scales.size() == rows &&
      arena->q_user_codes.size() == rows * static_cast<size_t>(stride)) {
    return;
  }
  GatherRows(user_emb_, users, &arena->user_batch);
  arena->q_user_codes.resize(rows * static_cast<size_t>(stride));
  arena->q_user_scales.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    QuantizeRow(arena->user_batch.row(static_cast<Index>(r)),
                user_emb_.cols(), stride,
                arena->q_user_codes.data() + r * static_cast<size_t>(stride),
                &arena->q_user_scales[r]);
  }
  arena->cached_users = users;
}

void DotProductScorer::ScoreBlock(const std::vector<Index>& users,
                                  ItemBlock block, MatrixView out,
                                  ScoringArena* arena) const {
  FIRZEN_CHECK(arena != nullptr);
  CheckBlock(block, num_items());
  CheckOut(out, static_cast<Index>(users.size()), block.size());
  if (users.empty() || block.size() == 0) return;
  if (precision_ == ScoringPrecision::kInt8) {
    QuantBatchFor(users, arena);
    GemmBTQuant(arena->q_user_codes.data(), static_cast<Index>(users.size()),
                item_emb_.cols(), quant_items_.stride(),
                arena->q_user_scales.data(), quant_items_, block.begin,
                block.size(), out, pool_);
    return;
  }
  GemmBT(BatchFor(users, arena), item_emb_.row(block.begin), block.size(), out,
         pool_);
}

void DotProductScorer::ScoreCandidates(const std::vector<Index>& users,
                                       const std::vector<Index>& candidates,
                                       MatrixView out,
                                       ScoringArena* arena) const {
  FIRZEN_CHECK(arena != nullptr);
  CheckOut(out, static_cast<Index>(users.size()),
           static_cast<Index>(candidates.size()));
  if (users.empty() || candidates.empty()) return;
  if (precision_ == ScoringPrecision::kInt8) {
    // Gather the candidates' ALREADY-quantized catalog rows (codes, scale,
    // code sum) — never re-quantize per call: a candidate list must score
    // bit-identically to the same item inside a block.
    const Index stride = quant_items_.stride();
    const size_t n = candidates.size();
    arena->q_cand_codes.resize(n * static_cast<size_t>(stride));
    arena->q_cand_scales.resize(n);
    arena->q_cand_sums.resize(n);
    for (size_t j = 0; j < n; ++j) {
      FIRZEN_CHECK_GE(candidates[j], 0);
      FIRZEN_CHECK_LT(candidates[j], num_items());
      const int8_t* src = quant_items_.row(candidates[j]);
      std::copy(src, src + stride,
                arena->q_cand_codes.data() + j * static_cast<size_t>(stride));
      arena->q_cand_scales[j] = quant_items_.scale(candidates[j]);
      arena->q_cand_sums[j] = quant_items_.row_sum(candidates[j]);
    }
    QuantBatchFor(users, arena);
    GemmBTQuant(arena->q_user_codes.data(), static_cast<Index>(users.size()),
                item_emb_.cols(), stride, arena->q_user_scales.data(),
                arena->q_cand_codes.data(), static_cast<Index>(n), stride,
                arena->q_cand_scales.data(), arena->q_cand_sums.data(), out,
                pool_);
    return;
  }
  // Gather candidates before BatchFor: both share the arena, and BatchFor's
  // cached batch must stay valid while GemmBT reads it.
  GatherRows(item_emb_, candidates, &arena->candidate_rows);
  GemmBT(BatchFor(users, arena), arena->candidate_rows.data(),
         arena->candidate_rows.rows(), out, pool_);
}

ItemRangeScorer::ItemRangeScorer(const Scorer* base, Index item_begin,
                                 Index item_end)
    : base_(base), item_begin_(item_begin), item_end_(item_end) {
  FIRZEN_CHECK(base != nullptr);
  FIRZEN_CHECK_GE(item_begin, 0);
  FIRZEN_CHECK_LE(item_begin, item_end);
  FIRZEN_CHECK_LE(item_end, base->num_items());
}

void ItemRangeScorer::ScoreBlock(const std::vector<Index>& users,
                                 ItemBlock block, MatrixView out,
                                 ScoringArena* arena) const {
  CheckBlock(block, num_items());
  base_->ScoreBlock(users,
                    {block.begin + item_begin_, block.end + item_begin_}, out,
                    arena);
}

void ItemRangeScorer::ScoreCandidates(const std::vector<Index>& users,
                                      const std::vector<Index>& candidates,
                                      MatrixView out,
                                      ScoringArena* arena) const {
  FIRZEN_CHECK(arena != nullptr);
  // Translate into the arena's transient buffer — no allocation in the
  // per-chunk hot path once its capacity has grown. When `candidates` IS
  // that buffer (a view stacked on another view, same arena), translate in
  // place instead of clearing the input out from under ourselves; each
  // nesting level just adds its own offset.
  std::vector<Index>& global = arena->translated_ids;
  if (&candidates == &global) {
    for (Index& id : global) {
      FIRZEN_CHECK_GE(id, 0);
      FIRZEN_CHECK_LT(id, num_items());
      id += item_begin_;
    }
  } else {
    global.clear();
    global.reserve(candidates.size());
    for (Index local : candidates) {
      FIRZEN_CHECK_GE(local, 0);
      FIRZEN_CHECK_LT(local, num_items());
      global.push_back(local + item_begin_);
    }
  }
  base_->ScoreCandidates(users, global, out, arena);
}

}  // namespace firzen
