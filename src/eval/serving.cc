#include "src/eval/serving.h"

#include <algorithm>
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
      // request lists it, and the sorted copy doubles as the membership
      // filter for the union stream in RankRequestsInRange.
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
  // per range; explicit candidate pools follow the plan below.
  size_t total_entries = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].candidates.empty()) {
      batch.streamed.push_back(i);
      batch.streamed_users.push_back(requests[i].user);
    } else {
      batch.explicit_idx.push_back(i);
      total_entries += batch.requests[i].pool_sorted.size();
    }
  }
  if (batch.explicit_idx.empty()) return batch;

  // Unequal explicit pools batch by streaming the sorted union of all
  // pools — one batched gather/Gemm per chunk instead of one scoring call
  // per request. When the pools barely overlap the union costs
  // O(requests * |union|) score cells against O(sum of pool sizes) for
  // per-group scoring, so a waste bound gates it: past kUnionWasteFactor
  // we fall back to grouping requests with identical pools (the TopKBatch
  // shim's shape, which under the union is free anyway: union == pool).
  // Identical pools: union cost == grouped cost (ratio 1). Disjoint pools:
  // union scores ~|requests|x more cells than asked for.
  for (size_t i : batch.explicit_idx) {
    batch.union_items.insert(batch.union_items.end(),
                             batch.requests[i].pool_sorted.begin(),
                             batch.requests[i].pool_sorted.end());
    batch.union_users.push_back(requests[i].user);
  }
  std::sort(batch.union_items.begin(), batch.union_items.end());
  batch.union_items.erase(
      std::unique(batch.union_items.begin(), batch.union_items.end()),
      batch.union_items.end());
  constexpr size_t kUnionWasteFactor = 4;
  batch.use_union = batch.union_items.size() * batch.explicit_idx.size() <=
                    kUnionWasteFactor * total_entries;
  if (!batch.use_union) {
    batch.union_items.clear();
    batch.union_users.clear();
    // Consecutive requests with identical (deduplicated) pools score as
    // one group; every chunk item is then in every grouped pool.
    for (size_t g0 = 0; g0 < batch.explicit_idx.size();) {
      const std::vector<Index>& pool =
          batch.requests[batch.explicit_idx[g0]].pool_sorted;
      size_t g1 = g0 + 1;
      while (g1 < batch.explicit_idx.size() &&
             batch.requests[batch.explicit_idx[g1]].pool_sorted == pool) {
        ++g1;
      }
      batch.groups.emplace_back(batch.explicit_idx.begin() + g0,
                                batch.explicit_idx.begin() + g1);
      batch.group_users.emplace_back();
      for (size_t s = g0; s < g1; ++s) {
        batch.group_users.back().push_back(
            requests[batch.explicit_idx[s]].user);
      }
      g0 = g1;
    }
  }
  return batch;
}

void RankRequestsInRange(const Scorer& scorer, ItemBlock range,
                         const std::vector<RecRequest>& requests,
                         const PreparedBatch& batch,
                         const ServingSharedState& state, Index item_block,
                         ThreadPool* pool, ArenaPool* arenas,
                         std::vector<TopKHeap>* heaps) {
  const std::vector<PreparedRequest>& prepared = batch.requests;
  FIRZEN_CHECK_EQ(static_cast<Index>(prepared.size()),
                  static_cast<Index>(requests.size()));
  FIRZEN_CHECK_EQ(static_cast<Index>(heaps->size()),
                  static_cast<Index>(requests.size()));
  FIRZEN_CHECK_EQ(scorer.num_items(), range.size());
  if (requests.empty() || range.size() == 0) return;
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
          // A worker can retain no more items than its tiles hold, so its
          // heaps never reserve past that, however large k is.
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
            // Local view coordinates; global id = range.begin + local id.
            const ItemBlock tile{t * item_block,
                                 std::min((t + 1) * item_block, range.size())};
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
                  panel.row(static_cast<Index>(r)), tile.size(),
                  range.begin + tile.begin,
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
        TopKHeap& heap = (*heaps)[batch.streamed[r]];
        for (const ScoredItem& e : local[r].Sorted()) {
          heap.Push(e.item, e.score);
        }
      }
    }
  }
  if (batch.explicit_idx.empty()) return;

  // Explicit pools: execute the batch plan over this range. Streams the
  // in-range slice of `pool_items` (global ids, sorted) in bounded chunks
  // for the requests named by `idxs`, scoring each chunk once for all of
  // them with exactly the planned user batch — including requests whose
  // pool misses this range entirely, so the batch (and its per-cell
  // rounding) never depends on the range. `filter` = chunk items may be
  // outside a request's own pool and must be membership-checked (union
  // mode only).
  const ArenaPool::Lease arena = arenas->Acquire();
  Matrix chunk_scores;
  std::vector<Index> chunk_local;
  const auto stream_pool = [&](const std::vector<Index>& pool_items,
                               const std::vector<size_t>& idxs,
                               const std::vector<Index>& users, bool filter) {
    const size_t slice_begin = static_cast<size_t>(
        std::lower_bound(pool_items.begin(), pool_items.end(), range.begin) -
        pool_items.begin());
    const size_t slice_end = static_cast<size_t>(
        std::lower_bound(pool_items.begin() + slice_begin, pool_items.end(),
                         range.end) -
        pool_items.begin());
    if (slice_begin == slice_end) return;  // nothing in this range
    for (size_t begin = slice_begin; begin < slice_end;
         begin += static_cast<size_t>(item_block)) {
      const size_t end =
          std::min(begin + static_cast<size_t>(item_block), slice_end);
      chunk_local.clear();
      for (size_t j = begin; j < end; ++j) {
        chunk_local.push_back(pool_items[j] - range.begin);
      }
      chunk_scores.ResizeUninitialized(static_cast<Index>(users.size()),
                                       static_cast<Index>(chunk_local.size()));
      scorer.ScoreCandidates(users, chunk_local, MatrixView(&chunk_scores),
                             arena.get());
      ParallelFor(
          pool, static_cast<Index>(idxs.size()),
          [&](Index row_begin, Index row_end) {
            for (Index r = row_begin; r < row_end; ++r) {
              const size_t idx = idxs[static_cast<size_t>(r)];
              const RecRequest& request = requests[idx];
              const PreparedRequest& p = prepared[idx];
              TopKHeap& heap = (*heaps)[idx];
              const Real* row = chunk_scores.row(r);
              for (size_t j = begin; j < end; ++j) {
                const Index item = pool_items[j];
                const Real score = row[j - begin];
                // Threshold first, as in the streamed pass above.
                if (!heap.MightAccept(item, score)) continue;
                if (filter &&
                    !std::binary_search(p.pool_sorted.begin(),
                                        p.pool_sorted.end(), item)) {
                  continue;
                }
                if (request.cold_only &&
                    !is_cold[static_cast<size_t>(item)]) {
                  continue;
                }
                if (Excluded(p, item)) continue;
                heap.Push(item, score);
              }
            }
          },
          /*min_shard_size=*/8);
    }
  };

  if (batch.use_union) {
    stream_pool(batch.union_items, batch.explicit_idx, batch.union_users,
                /*filter=*/true);
  } else {
    for (size_t g = 0; g < batch.groups.size(); ++g) {
      stream_pool(prepared[batch.groups[g][0]].pool_sorted, batch.groups[g],
                  batch.group_users[g], /*filter=*/false);
    }
  }
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
  const auto make_heaps = [&requests] {
    std::vector<TopKHeap> heaps;
    heaps.reserve(requests.size());
    for (const RecRequest& request : requests) heaps.emplace_back(request.k);
    return heaps;
  };
  const auto respond = [&](size_t i, const std::vector<ScoredItem>& top) {
    responses[i].user = requests[i].user;
    responses[i].items.reserve(top.size());
    for (const ScoredItem& e : top) {
      responses[i].items.push_back({e.item, e.score});
    }
  };

  const Index num_shards = static_cast<Index>(ranges_.size());
  if (num_shards == 1) {
    // Unsharded: the base scorer ranks the whole catalog as one range
    // straight into the response heaps — no view, no merge.
    std::vector<TopKHeap> heaps = make_heaps();
    serving_internal::RankRequestsInRange(
        *scorer_, {0, num_items_}, requests, batch, *state_,
        options_.item_block, options_.pool, &arenas_, &heaps);
    for (size_t i = 0; i < requests.size(); ++i) respond(i, heaps[i].Sorted());
    return responses;
  }

  // Per-(shard, request) bounded heaps: shards share the base scorer and
  // the prepared plan but no mutable scratch, so they can rank their
  // disjoint item slices in parallel.
  std::vector<std::vector<TopKHeap>> shard_heaps(
      static_cast<size_t>(num_shards));
  for (std::vector<TopKHeap>& heaps : shard_heaps) heaps = make_heaps();

  // Where the parallelism goes is a throughput choice only — per-shard
  // heaps are disjoint and per-cell scores partition-invariant, so both
  // placements below produce bit-identical responses. With at least one
  // shard per worker, an outer shard-parallel loop is the parallelism and
  // each shard's fused pass runs inline on its worker; with fewer shards
  // than workers, shards run one after another and each fused pass shards
  // its item tiles across the pool. Either way every worker leases its own
  // arena from arenas_.
  const auto rank_shard = [&](Index s) {
    const ItemBlock range = ranges_[static_cast<size_t>(s)];
    const ItemRangeScorer view(scorer_.get(), range.begin, range.end);
    serving_internal::RankRequestsInRange(
        view, range, requests, batch, *state_, options_.item_block,
        options_.pool, &arenas_, &shard_heaps[static_cast<size_t>(s)]);
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
