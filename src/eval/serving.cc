#include "src/eval/serving.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/eval/serving_internal.h"
#include "src/eval/sharded_serving.h"
#include "src/util/check.h"
#include "src/util/ranking.h"
#include "src/util/thread_pool.h"

namespace firzen {

namespace {

bool Excluded(const serving_internal::PreparedRequest& prepared, Index item) {
  return prepared.exclude != nullptr &&
         std::binary_search(prepared.exclude->begin(),
                            prepared.exclude->end(), item);
}

}  // namespace

namespace serving_internal {

std::vector<PreparedRequest> PrepareRequests(
    const std::vector<RecRequest>& requests, const ServingSharedState& state,
    Index num_items) {
  const std::vector<std::vector<Index>>& seen = state.seen;
  std::vector<PreparedRequest> prepared;
  // Reserve up front: prepared[i].exclude may point at
  // prepared[i].custom_sorted, so the elements must never relocate.
  prepared.reserve(requests.size());
  for (const RecRequest& request : requests) {
    FIRZEN_CHECK_GT(request.k, 0);
    FIRZEN_CHECK_GE(request.user, 0);
    prepared.emplace_back();
    PreparedRequest& p = prepared.back();
    if (!request.candidates.empty()) {
      for (Index item : request.candidates) {
        FIRZEN_CHECK_GE(item, 0);
        FIRZEN_CHECK_LT(item, num_items);
      }
      // Deduplicate: each pool item is ranked once no matter how often the
      // request lists it, and the sorted copy is what PrepareBatch groups
      // requests by.
      p.pool_sorted = request.candidates;
      std::sort(p.pool_sorted.begin(), p.pool_sorted.end());
      p.pool_sorted.erase(
          std::unique(p.pool_sorted.begin(), p.pool_sorted.end()),
          p.pool_sorted.end());
    }
    switch (request.exclusion) {
      case ExclusionPolicy::kTrainSeen:
        if (request.user < static_cast<Index>(seen.size())) {
          p.exclude = &seen[static_cast<size_t>(request.user)];
        }
        break;
      case ExclusionPolicy::kCustom:
        p.custom_sorted = request.exclude;
        std::sort(p.custom_sorted.begin(), p.custom_sorted.end());
        p.exclude = &p.custom_sorted;
        break;
      case ExclusionPolicy::kNone:
        break;
    }
  }
  return prepared;
}

PreparedBatch PrepareBatch(const std::vector<RecRequest>& requests,
                           const ServingSharedState& state, Index num_items) {
  PreparedBatch batch;
  batch.requests = PrepareRequests(requests, state, num_items);

  // Requests over the full catalog share one fused score-and-rank stream
  // per range. Explicit-pool requests whose deduplicated pool equals that
  // of the previous explicit-pool request join its group, and a group
  // scores only its own pool, so no cell a request did not ask for is ever
  // scored.
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::vector<Index>& pool = batch.requests[i].pool_sorted;
    if (pool.empty()) {
      batch.streamed.push_back(i);
      batch.streamed_users.push_back(requests[i].user);
    } else if (!batch.groups.empty() &&
               batch.requests[batch.groups.back()[0]].pool_sorted == pool) {
      batch.groups.back().push_back(i);
      batch.group_users.back().push_back(requests[i].user);
    } else {
      batch.groups.push_back({i});
      batch.group_users.push_back({requests[i].user});
    }
  }
  return batch;
}

std::vector<TopKHeap> RankRequestsInRange(
    const Scorer& scorer, ItemBlock range,
    const std::vector<RecRequest>& requests, const PreparedBatch& batch,
    const ServingSharedState& state, Index item_block, ThreadPool* pool,
    ArenaPool* arenas) {
  const std::vector<PreparedRequest>& prepared = batch.requests;
  FIRZEN_CHECK_EQ(static_cast<Index>(prepared.size()),
                  static_cast<Index>(requests.size()));
  FIRZEN_CHECK_GE(range.begin, 0);
  FIRZEN_CHECK_LE(range.begin, range.end);
  FIRZEN_CHECK_LE(range.end, scorer.num_items());
  // A heap can retain no more items than its range holds, so none reserves
  // past that, however large k is.
  std::vector<TopKHeap> heaps;
  heaps.reserve(requests.size());
  for (const RecRequest& request : requests) {
    heaps.emplace_back(std::min(request.k, std::max<Index>(range.size(), 1)));
  }
  if (requests.empty() || range.size() == 0) return heaps;
  const std::vector<bool>& is_cold = state.is_cold;

  if (!batch.streamed.empty()) {
    // Full-catalog requests: one pass over item_block-wide tiles, sharded
    // across the pool. Each worker scores its tiles into its own panel
    // through its own leased arena and selects into worker-local heaps;
    // the caller then merges those heaps. The merge is exact because
    // RanksBefore is a strict total order: the top-k of a union is the
    // top-k of the parts' top-k lists, pushed in any order (the MergeTopK
    // argument), so responses cannot depend on the tile width or the
    // number of workers.
    const std::vector<Index>& users = batch.streamed_users;
    const Index num_tiles = (range.size() + item_block - 1) / item_block;
    // One slot per shard, indexed by its first tile: shards write disjoint
    // slots, and ParallelFor returns only after every shard has finished.
    std::vector<std::vector<TopKHeap>> shard_heaps(
        static_cast<size_t>(num_tiles));
    ParallelFor(
        pool, num_tiles,
        [&](Index tile_begin, Index tile_end) {
          const ArenaPool::Lease arena = arenas->Acquire();
          const Index shard_items =
              std::min(tile_end * item_block, range.size()) -
              tile_begin * item_block;
          std::vector<TopKHeap>& local =
              shard_heaps[static_cast<size_t>(tile_begin)];
          local.reserve(batch.streamed.size());
          for (size_t idx : batch.streamed) {
            local.emplace_back(std::min(requests[idx].k, shard_items));
          }
          Matrix panel;  // streamed.size() x item_block, reused per tile
          for (Index t = tile_begin; t < tile_end; ++t) {
            const ItemBlock tile{
                range.begin + t * item_block,
                std::min(range.begin + (t + 1) * item_block, range.end)};
            panel.ResizeUninitialized(static_cast<Index>(users.size()),
                                      tile.size());
            scorer.ScoreBlock(users, tile, MatrixView(&panel), arena.get());
            for (size_t r = 0; r < batch.streamed.size(); ++r) {
              const size_t idx = batch.streamed[r];
              const RecRequest& request = requests[idx];
              const PreparedRequest& p = prepared[idx];
              // Once the heap is warm almost every chunk lies wholly below
              // its floor, and the exclusion search and cold lookup run
              // only for items that pass the threshold (SelectTopK).
              SelectTopK(
                  panel.row(static_cast<Index>(r)), tile.size(), tile.begin,
                  [&](Index item) {
                    return (!request.cold_only ||
                            is_cold[static_cast<size_t>(item)]) &&
                           !Excluded(p, item);
                  },
                  &local[r]);
            }
          }
        },
        /*min_shard_size=*/1);
    for (std::vector<TopKHeap>& local : shard_heaps) {
      for (size_t r = 0; r < local.size(); ++r) {
        TopKHeap& heap = heaps[batch.streamed[r]];
        for (const ScoredItem& e : local[r].Sorted()) {
          heap.Push(e.item, e.score);
        }
      }
    }
  }
  if (batch.groups.empty()) return heaps;

  // Explicit pools: each group streams the in-range slice of its sorted
  // pool in item_block-bounded chunks, scoring each chunk once for the
  // group's whole user batch. Every chunk item is in every grouped pool.
  const ArenaPool::Lease arena = arenas->Acquire();
  Matrix chunk_scores;
  std::vector<Index> chunk;
  for (size_t g = 0; g < batch.groups.size(); ++g) {
    const std::vector<size_t>& idxs = batch.groups[g];
    const std::vector<Index>& users = batch.group_users[g];
    const std::vector<Index>& pool_items = prepared[idxs[0]].pool_sorted;
    const auto slice_begin =
        std::lower_bound(pool_items.begin(), pool_items.end(), range.begin);
    const auto slice_end =
        std::lower_bound(slice_begin, pool_items.end(), range.end);
    for (auto begin = slice_begin; begin != slice_end;
         begin += static_cast<ptrdiff_t>(chunk.size())) {
      chunk.assign(begin,
                   begin + std::min<ptrdiff_t>(item_block, slice_end - begin));
      chunk_scores.ResizeUninitialized(static_cast<Index>(users.size()),
                                       static_cast<Index>(chunk.size()));
      scorer.ScoreCandidates(users, chunk, MatrixView(&chunk_scores),
                             arena.get());
      ParallelFor(
          pool, static_cast<Index>(idxs.size()),
          [&](Index row_begin, Index row_end) {
            for (Index r = row_begin; r < row_end; ++r) {
              const size_t idx = idxs[static_cast<size_t>(r)];
              const RecRequest& request = requests[idx];
              const PreparedRequest& p = prepared[idx];
              TopKHeap& heap = heaps[idx];
              const Real* row = chunk_scores.row(r);
              for (size_t j = 0; j < chunk.size(); ++j) {
                const Index item = chunk[j];
                // Threshold first, as in the streamed pass above.
                if (!heap.MightAccept(item, row[j])) continue;
                if (request.cold_only &&
                    !is_cold[static_cast<size_t>(item)]) {
                  continue;
                }
                if (Excluded(p, item)) continue;
                heap.Push(item, row[j]);
              }
            }
          },
          /*min_shard_size=*/8);
    }
  }
  return heaps;
}

}  // namespace serving_internal

const char* RecStatusName(RecStatus status) {
  switch (status) {
    case RecStatus::kOk:
      return "OK";
    case RecStatus::kShed:
      return "SHED";
    case RecStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case RecStatus::kBackendError:
      return "BACKEND_ERROR";
    case RecStatus::kDegraded:
      return "DEGRADED";
  }
  return "UNKNOWN";
}

std::shared_ptr<const ServingSharedState> ServingSharedState::FromDataset(
    const Dataset& dataset) {
  return FromDataset(dataset, dataset.num_items);
}

std::shared_ptr<const ServingSharedState> ServingSharedState::FromDataset(
    const Dataset& dataset, Index num_items) {
  auto state = std::make_shared<ServingSharedState>();
  state->seen = dataset.TrainItemsByUser();
  state->is_cold = dataset.is_cold_item;
  if (state->is_cold.empty()) {
    state->is_cold.assign(static_cast<size_t>(num_items), false);
  }
  return state;
}

ServingEngine::ServingEngine(const Recommender* model, const Dataset& dataset,
                             ServingEngineOptions options)
    : ServingEngine(
          model != nullptr ? model->MakeScorer(options.precision) : nullptr,
          dataset, options) {}

ServingEngine::ServingEngine(std::unique_ptr<Scorer> scorer,
                             const Dataset& dataset,
                             ServingEngineOptions options)
    : scorer_(std::move(scorer)), options_(std::move(options)) {
  FIRZEN_CHECK(scorer_ != nullptr);
  num_items_ = scorer_->num_items();
  if (dataset.num_items != 0) FIRZEN_CHECK_EQ(dataset.num_items, num_items_);
  state_ = ServingSharedState::FromDataset(dataset, num_items_);
  Init();
}

ServingEngine::ServingEngine(std::unique_ptr<Scorer> scorer,
                             std::shared_ptr<const ServingSharedState> state,
                             ServingEngineOptions options)
    : scorer_(std::move(scorer)),
      state_(std::move(state)),
      options_(std::move(options)) {
  FIRZEN_CHECK(scorer_ != nullptr);
  FIRZEN_CHECK(state_ != nullptr);
  num_items_ = scorer_->num_items();
  Init();
}

void ServingEngine::Init() {
  FIRZEN_CHECK_EQ(static_cast<Index>(state_->is_cold.size()), num_items_);
  FIRZEN_CHECK_GT(options_.item_block, 0);
  if (options_.pool == nullptr) options_.pool = ThreadPool::Global();
  ranges_ = options_.boundaries.empty()
                ? MakeShardRanges(num_items_, options_.num_shards)
                : RangesFromBoundaries(num_items_, options_.boundaries);
}

RecResponse ServingEngine::Recommend(const RecRequest& request) const {
  return RecommendBatch({request})[0];
}

std::vector<RecResponse> ServingEngine::RecommendBatch(
    const std::vector<RecRequest>& requests) const {
  std::vector<RecResponse> responses(requests.size());
  if (requests.empty()) return responses;

  // All mutable per-call state is local (or leased): the prepared requests,
  // heaps, score panels, and the scoring arenas. Concurrent RecommendBatch
  // calls on this const engine therefore never share scratch; they
  // interleave freely on the thread pool (per-call completion groups).
  //
  // Exclusions, candidate pools, and the explicit-pool batching plan are
  // resolved ONCE, in global item ids: every shard executes the same plan,
  // so the per-shard streams cannot disagree about eligibility or
  // user-batch composition, and the prep cost is paid once for any shard
  // count.
  const serving_internal::PreparedBatch batch =
      serving_internal::PrepareBatch(requests, *state_, num_items_);
  const auto respond = [&](size_t i, const std::vector<ScoredItem>& top) {
    responses[i].user = requests[i].user;
    responses[i].items.reserve(top.size());
    for (const ScoredItem& e : top) {
      responses[i].items.push_back({e.item, e.score});
    }
  };
  const auto rank_range = [&](ItemBlock range) {
    return serving_internal::RankRequestsInRange(
        *scorer_, range, requests, batch, *state_, options_.item_block,
        options_.pool, &arenas_);
  };

  const Index num_shards = static_cast<Index>(ranges_.size());
  if (num_shards == 1) {
    // Unsharded: the whole catalog is one range, ranked straight into the
    // response heaps — no merge.
    std::vector<TopKHeap> heaps = rank_range({0, num_items_});
    for (size_t i = 0; i < requests.size(); ++i) respond(i, heaps[i].Sorted());
    return responses;
  }

  // Per-(shard, request) bounded heaps: shards share the base scorer and
  // the prepared plan but no mutable scratch, so they can rank their
  // disjoint item slices in parallel.
  std::vector<std::vector<TopKHeap>> shard_heaps(
      static_cast<size_t>(num_shards));

  // Where the parallelism goes is a throughput choice only — per-shard
  // heaps are disjoint and per-cell scores partition-invariant, so both
  // placements below produce bit-identical responses. With at least one
  // shard per worker, an outer shard-parallel loop is the parallelism and
  // each shard's fused pass runs inline on its worker; with fewer shards
  // than workers, shards run one after another and each fused pass shards
  // its item tiles across the pool. Either way every worker leases its own
  // arena from arenas_.
  const auto rank_shard = [&](Index s) {
    shard_heaps[static_cast<size_t>(s)] =
        rank_range(ranges_[static_cast<size_t>(s)]);
  };
  if (num_shards >= static_cast<Index>(options_.pool->num_threads())) {
    ParallelFor(
        options_.pool, num_shards,
        [&](Index begin, Index end) {
          for (Index s = begin; s < end; ++s) rank_shard(s);
        },
        /*min_shard_size=*/1);
  } else {
    for (Index s = 0; s < num_shards; ++s) rank_shard(s);
  }

  // Merge: per request, sort the concatenated per-shard top-k lists under
  // RanksBefore and keep the first k — the unique global top-k.
  for (size_t i = 0; i < requests.size(); ++i) {
    std::vector<ScoredItem> entries;
    for (std::vector<TopKHeap>& heaps : shard_heaps) {
      const std::vector<ScoredItem>& top = heaps[i].Sorted();
      entries.insert(entries.end(), top.begin(), top.end());
    }
    respond(i, MergeTopK(std::move(entries), requests[i].k));
  }
  return responses;
}

}  // namespace firzen
