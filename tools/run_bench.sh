#!/usr/bin/env bash
# Builds the Release benchmark binaries and writes the perf trajectory to
# BENCH_kernels.json (google-benchmark JSON format): the kernel sweep from
# bench_kernels plus the end-to-end serving cases from bench_serving —
# fused ScoreBlock+TopK vs. materialize-then-rank, BM_ServingConcurrent
# (1/2/4 request threads against ONE shared ServingEngine) charting the
# shared-engine throughput scaling, BM_ServingSharded (1/2/4 catalog
# shards x 1/4 request threads against ONE shared sharded ServingEngine,
# parity-checked against the unsharded engine at startup; rows with more
# shards or threads than hardware threads are labelled overhead_row) charting what the
# sharded merge costs and parallel shard ranking buys,
# BM_ServingDistributed (1/2/4 in-process shard servers behind real
# loopback sockets under ONE coordinator, parity-checked against the
# in-process sharded engine at startup, with a wire_bytes_per_req counter)
# charting the wire + fan-out overhead of moving shards behind sockets, and
# BM_ServingAdmission (8 concurrent single-request threads, admission
# coalescing off/on, parity-gated, with p50/p95/p99 per-request latency
# counters) charting the admission-batching win, and BM_ServingSaturation
# (open-loop Poisson arrivals at 70/150/300% of the measured closed-loop
# capacity against a bounded admission queue) charting overload behavior:
# offered_rps, goodput_rps, shed_rate, and served p50_ms/p99_ms — past
# saturation the shed rate must go nonzero while p99 stays bounded instead
# of the queue collapsing — appended into one file. The quantized rows —
# BM_GemmBTQuant (int8 catalog scoring vs the BM_GemmScoreBT fp32 baseline,
# with a footprint_reduction_x counter) and BM_ServingQuantized (the fused
# engine at --precision int8 vs fp32, bit-identity-gated across a 3-shard
# layout at startup) — ride the same filters.
# The JSON context block records FIRZEN_NUM_THREADS, the git commit, the
# build type, the SIMD tier the quantized kernels dispatched
# (firzen_simd_tier, stamped by the binaries themselves), and any
# FIRZEN_SIMD override, so entries stay attributable when
# BENCH_kernels.json accumulates runs from different hosts and revisions.
#
# Usage:
#   tools/run_bench.sh                    # full sweep, JSON + console
#   tools/run_bench.sh --quick            # one fast pass (CI smoke)
#   FIRZEN_NUM_THREADS=4 tools/run_bench.sh
#
# Extra arguments after the flags are forwarded to bench_kernels, e.g.
#   tools/run_bench.sh --benchmark_filter=BM_Gemm
#
# Compare two runs: keep the old JSON and diff the per-benchmark
# real_time/items_per_second fields (see bench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${FIRZEN_BENCH_BUILD_DIR:-build-release}
OUT=${FIRZEN_BENCH_OUT:-BENCH_kernels.json}

REPS=5
MIN_TIME=0.2
if [[ "${1:-}" == "--quick" ]]; then
  REPS=1
  MIN_TIME=0.05
  shift
fi

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${BUILD_DIR}" -j --target bench_kernels --target bench_serving \
  >/dev/null

"./${BUILD_DIR}/bench_kernels" \
  "--benchmark_filter=BM_(Gemm|SpMM|BatchTopK|ModalContrastive|KnnGraphBuild|KgAttentionRebuild|InferenceGraphExpand)" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_out="${OUT}" \
  --benchmark_report_aggregates_only \
  --benchmark_out_format=json \
  "$@"

# End-to-end serving, including the concurrent shared-engine scaling cases,
# the sharded-catalog cases, the distributed socket fan-out cases, the
# admission cases, and the open-loop saturation sweep (the BM_Serving
# filter matches BM_ServingConcurrent, BM_ServingSharded,
# BM_ServingDistributed, BM_ServingAdmission, and BM_ServingSaturation
# too):
# one repetition is representative (the cases verify fused/materialized,
# sharded/single, distributed/sharded, and admission/alone parity
# internally before timing; the
# saturation cases pin their own iteration count so the offered-rate
# schedule is identical run to run).
SERVING_OUT="${OUT%.json}_serving.tmp.json"
# An interrupted run must not leave merge intermediates next to the real
# JSON (set -e skips the happy-path rm below on any failure).
trap 'rm -f "${SERVING_OUT}" "${OUT}.merged"' EXIT
"./${BUILD_DIR}/bench_serving" \
  --benchmark_filter=BM_Serving \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_out="${SERVING_OUT}" \
  --benchmark_out_format=json

# Provenance for cross-host/cross-revision comparisons: the pool size the
# kernels actually ran with, the code revision, and the build type. The
# DISPATCHED SIMD tier is already in the context — the bench binaries stamp
# firzen_simd_tier themselves via AddCustomContext (they are the only ones
# who know what the runtime dispatch resolved to); here we record whether a
# FIRZEN_SIMD override was forcing it, so a scalar-pinned run can never be
# mistaken for the host's natural tier.
FIRZEN_THREADS_VALUE=${FIRZEN_NUM_THREADS:-auto}
FIRZEN_SIMD_VALUE=${FIRZEN_SIMD:-auto}
GIT_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# Dirty = modified tracked files OR untracked sources (CMake GLOBs compile
# untracked .cc files into the benchmarks, so they count).
if [[ -n "$(git status --porcelain 2>/dev/null)" ]]; then
  GIT_COMMIT="${GIT_COMMIT}-dirty"
fi
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "${BUILD_DIR}/CMakeCache.txt" 2>/dev/null)
BUILD_TYPE=${BUILD_TYPE:-unknown}

# Append the serving benchmarks into the kernel JSON so one file carries the
# whole trajectory, and stamp the provenance fields into the context block.
# Without jq the serving rows are kept in a side file instead of losing the
# whole run (and the context stays unstamped).
if command -v jq >/dev/null; then
  jq -s \
    --arg threads "${FIRZEN_THREADS_VALUE}" \
    --arg commit "${GIT_COMMIT}" \
    --arg build "${BUILD_TYPE}" \
    --arg simd "${FIRZEN_SIMD_VALUE}" \
    '.[0].benchmarks += .[1].benchmarks
     | .[0].context += {firzen_num_threads: $threads,
                        git_commit: $commit,
                        build_type: $build,
                        firzen_simd_override: $simd}
     | .[0]' \
    "${OUT}" "${SERVING_OUT}" > "${OUT}.merged" \
    && mv "${OUT}.merged" "${OUT}"
  rm -f "${SERVING_OUT}"
else
  mv "${SERVING_OUT}" "${OUT%.json}_serving.json"
  echo "jq not found: serving results left in ${OUT%.json}_serving.json," \
    "context not stamped" >&2
fi

echo "wrote ${OUT} (context: threads=${FIRZEN_THREADS_VALUE}" \
  "commit=${GIT_COMMIT} build=${BUILD_TYPE})"
