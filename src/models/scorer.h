// Block-streaming scoring API. A Scorer is a lightweight handle minted by
// Recommender::MakeScorer() that produces scores in bounded item panels:
// instead of one dense users x num_items matrix per request — a
// catalog-sized transient — callers stream ItemBlocks (or explicit candidate
// lists) through ScoreBlock/ScoreCandidates and fuse ranking on the fly, so
// peak memory is O(user_batch * block_size) for any catalog size.
//
// Models whose scores are user·item dot products mint a DotProductScorer
// over their final embedding tables (zero-copy Gemm over an item-row slice);
// KGCN and KGNN-LS, whose item towers are user-conditioned, mint their own
// block-native scorer.
//
// Thread safety: scorers are logically const and safely shared across
// threads. All mutable per-batch scratch (gathered user rows, per-user
// relation logits, ...) lives in an explicit ScoringArena supplied by the
// caller — one arena per concurrent stream. Every scoring call takes one;
// there is no hidden per-thread arena. One ServingEngine can therefore
// serve many request threads over a single shared scorer.
#ifndef FIRZEN_MODELS_SCORER_H_
#define FIRZEN_MODELS_SCORER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/tensor/quantized.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace firzen {

/// Numeric tier a scorer computes in. kFp32 is the exactly-rounded
/// fma-chain path (the parity/quality oracle); kInt8 scores through the
/// per-row symmetric int8 catalog and GemmBTQuant (src/tensor/quantized.h),
/// trading bounded ranking drift — gated by the Recall@K/NDCG quality ctest
/// (label `quant`) — for a resident catalog 7.1x smaller than the 8-byte
/// Real table at d = 64 (72 versus 512 bytes per row) and vectorized
/// integer throughput. KGCN's scorer has no factorized scoring path; it
/// ignores kInt8 and scores in fp32.
enum class ScoringPrecision {
  kFp32 = 0,
  kInt8 = 1,
};

/// Stable lowercase name ("fp32", "int8") for flags, logs, and docs.
const char* ScoringPrecisionName(ScoringPrecision precision);

/// Half-open range [begin, end) of item ids.
struct ItemBlock {
  Index begin = 0;
  Index end = 0;

  Index size() const { return end - begin; }
};

/// Mutable per-stream scratch for a Scorer. Owning the scratch here — not in
/// the scorer — is what makes scorers shareable: each concurrent caller
/// passes its own arena, and consecutive calls with the same user batch
/// amortize the gather/projection work through the arena's cache.
///
/// An arena must not be used from two threads at once; everything else is
/// flexible — it may be reused across scorers (the owner tag below
/// invalidates stale caches) and kept alive across calls to amortize
/// allocations. See ArenaPool for a mutex-guarded free list suitable for
/// request-driven reuse.
class ScoringArena {
 public:
  /// Claims the arena for the scorer with the given id (see
  /// Scorer::scorer_id()), clearing the cached-batch key when the previous
  /// user was a different scorer so one scorer never reads another's
  /// scratch. Ids are process-unique and never reused — unlike an owner
  /// *pointer*, a scorer minted at a destroyed scorer's address cannot
  /// inherit its cache. Scorer implementations call this first.
  void BindTo(uint64_t owner_id) {
    if (owner_id_ != owner_id) {
      cached_users.clear();
      owner_id_ = owner_id;
    }
  }

  // Scratch slots. Which ones a scorer uses is an implementation detail;
  // all caching is keyed by `cached_users` under the current owner.
  std::vector<Index> cached_users;  // batch the cached matrices were built for
  Matrix user_batch;                // gathered user rows (DotProductScorer)
  Matrix candidate_rows;            // gathered candidate rows
  Matrix rel_logits;                // per-user relation logits (KGCN)
  // Transient per-call id-translation buffer (ItemRangeScorer): valid only
  // within one call, never cached across calls.
  std::vector<Index> translated_ids;
  // Int8 scoring scratch (DotProductScorer in kInt8 mode). The quantized
  // user batch is cached under `cached_users` exactly like `user_batch`;
  // the candidate-side buffers are per-call gathers of catalog rows.
  std::vector<int8_t> q_user_codes;    // quantized user rows, padded stride
  std::vector<float> q_user_scales;    // one scale per cached user row
  std::vector<int8_t> q_cand_codes;    // gathered quantized candidate rows
  std::vector<float> q_cand_scales;    // per-candidate scales
  std::vector<int32_t> q_cand_sums;    // per-candidate code sums (VNNI)

 private:
  uint64_t owner_id_ = 0;  // 0 = unbound; scorer ids start at 1
};

/// Mutex-guarded free list of ScoringArenas. Acquire() hands out an RAII
/// lease (recycling a previously released arena when one is free, so its
/// buffers amortize across requests); the lease returns the arena on
/// destruction. Safe for concurrent Acquire/release from any thread.
class ArenaPool {
 public:
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    ScoringArena* get() const { return arena_.get(); }
    ScoringArena* operator->() const { return arena_.get(); }
    ScoringArena& operator*() const { return *arena_; }

   private:
    friend class ArenaPool;
    Lease(ArenaPool* pool, std::unique_ptr<ScoringArena> arena)
        : pool_(pool), arena_(std::move(arena)) {}

    ArenaPool* pool_ = nullptr;
    std::unique_ptr<ScoringArena> arena_;
  };

  ArenaPool() = default;
  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  /// Returns a leased arena: a recycled one when available, else fresh.
  Lease Acquire() FIRZEN_EXCLUDES(mu_);

 private:
  friend class Lease;
  void Release(std::unique_ptr<ScoringArena> arena) FIRZEN_EXCLUDES(mu_);

  Mutex mu_;
  std::vector<std::unique_ptr<ScoringArena>> free_ FIRZEN_GUARDED_BY(mu_);
};

/// Streaming scorer handle. Holds whatever read-only per-inference state the
/// model needs (e.g. a projected entity table), so minting one can do
/// one-off work that then amortizes over every block.
///
/// Scorers are logically const and thread-safe: all mutable per-batch
/// scratch lives in the caller-supplied ScoringArena, so any number of
/// threads may score through one shared Scorer as long as each passes its
/// own arena. Scoring parallelizes internally over the thread pool;
/// concurrent callers interleave on it without blocking each other
/// (per-call completion groups).
class Scorer {
 public:
  Scorer();
  virtual ~Scorer();

  /// Total number of scorable items (the catalog size).
  virtual Index num_items() const = 0;

  /// Fills `out` (users.size() x block.size()) with scores of items
  /// [block.begin, block.end) for each user, out(r, j) = score of
  /// users[r] for item block.begin + j. `arena` holds this call's scratch
  /// and must not be shared with a concurrent call.
  virtual void ScoreBlock(const std::vector<Index>& users, ItemBlock block,
                          MatrixView out, ScoringArena* arena) const = 0;

  /// Fills `out` (users.size() x candidates.size()) with scores of the
  /// explicitly listed items, out(r, j) = score of users[r] for
  /// candidates[j]. Each score is bit-identical to the same item's score
  /// inside a ScoreBlock call. `arena` is as for ScoreBlock.
  virtual void ScoreCandidates(const std::vector<Index>& users,
                               const std::vector<Index>& candidates,
                               MatrixView out, ScoringArena* arena) const = 0;

 protected:
  /// Process-unique, never-reused id for arena cache keying: pass to
  /// ScoringArena::BindTo before reading or writing cached scratch.
  uint64_t scorer_id() const { return scorer_id_; }

 private:
  const uint64_t scorer_id_;
};

/// Scorer for models whose score is dot(user_emb[u], item_emb[i]). Holds
/// references to the tables (the owner must outlive the scorer); an item
/// block is a zero-copy row slice of the item table fed to GemmBT. The
/// gathered user batch lives in the arena and is cached across consecutive
/// calls with the same users, so streaming a catalog block-by-block gathers
/// each batch once per arena.
///
/// In kInt8 mode the scorer quantizes the item table ONCE at mint time
/// (per-row symmetric int8, src/tensor/quantized.h) and scores blocks
/// through GemmBTQuant; the user batch is quantized per call into the
/// arena, cached under the same users key as the fp32 gather. The fp32
/// table reference is kept either way — it stays the oracle the quant
/// quality gate compares against.
class DotProductScorer : public Scorer {
 public:
  /// `user_emb`: num_users x d, `item_emb`: num_items x d. Both must stay
  /// alive and unchanged for the scorer's lifetime.
  DotProductScorer(const Matrix& user_emb, const Matrix& item_emb,
                   ThreadPool* pool = nullptr,
                   ScoringPrecision precision = ScoringPrecision::kFp32);

  Index num_items() const override { return item_emb_.rows(); }

  void ScoreBlock(const std::vector<Index>& users, ItemBlock block,
                  MatrixView out, ScoringArena* arena) const override;

  void ScoreCandidates(const std::vector<Index>& users,
                       const std::vector<Index>& candidates, MatrixView out,
                       ScoringArena* arena) const override;

  /// The precision this scorer actually computes in.
  ScoringPrecision precision() const { return precision_; }

 private:
  const Matrix& BatchFor(const std::vector<Index>& users,
                         ScoringArena* arena) const;
  void QuantBatchFor(const std::vector<Index>& users,
                     ScoringArena* arena) const;

  const Matrix& user_emb_;
  const Matrix& item_emb_;
  ThreadPool* pool_;
  ScoringPrecision precision_;
  QuantizedMatrix quant_items_;  // built at mint time in kInt8 mode
};

/// Item-range-restricted view of a base scorer: presents the contiguous
/// global item range [item_begin, item_end) as a shard-local catalog of
/// size item_end - item_begin (local item j = global item item_begin + j).
/// This is the per-shard scoring handle behind a sharded ServingEngine and
/// the shard server: one base scorer is minted once, then each catalog
/// shard gets a zero-copy view over its slice, so sibling shards share the
/// mint-time work (entity projections, embedding tables) and only
/// translate coordinates.
///
/// Every call delegates to the base scorer, so per-item scores are
/// bit-identical to scoring the same global items through the base directly
/// — the property the sharded top-K merge relies on. The view is as
/// thread-safe as its base: logically const, scratch in the caller's arena
/// (arena caches key to the BASE scorer, so one arena may be reused across
/// sibling views of the same base without invalidation). The base scorer
/// must outlive the view.
class ItemRangeScorer : public Scorer {
 public:
  /// Requires 0 <= item_begin <= item_end <= base->num_items().
  ItemRangeScorer(const Scorer* base, Index item_begin, Index item_end);

  Index num_items() const override { return item_end_ - item_begin_; }
  Index item_begin() const { return item_begin_; }
  Index item_end() const { return item_end_; }

  /// `block` is in LOCAL coordinates ([0, num_items())); delegates the
  /// translated global range to the base scorer.
  void ScoreBlock(const std::vector<Index>& users, ItemBlock block,
                  MatrixView out, ScoringArena* arena) const override;

  /// `candidates` are LOCAL ids; translated to global for the base.
  void ScoreCandidates(const std::vector<Index>& users,
                       const std::vector<Index>& candidates, MatrixView out,
                       ScoringArena* arena) const override;

 private:
  const Scorer* base_;
  Index item_begin_;
  Index item_end_;
};

}  // namespace firzen

#endif  // FIRZEN_MODELS_SCORER_H_
