#!/usr/bin/env bash
# CI-style check runner:
#   0. static analysis (tools/run_static.sh): determinism linter, the
#      clang-tidy baseline when installed, a -DFIRZEN_WERROR=ON
#      warnings-as-errors build (Clang additionally arms -Wthread-safety),
#      and the wire-decoder fuzz smoke. --fast skips clang-tidy but NEVER
#      the determinism linter;
#   1. configure + build the default tree and run the full ctest suite,
#      then build the frozen benchmark binary (perfbench/'s
#      firzen_perfbench) against the tree, so a library change that drops
#      a name the benchmark calls fails here rather than in the bench run;
#   2. rebuild with -DFIRZEN_SANITIZE=address and re-run ctest under ASan;
#      sanitizer builds also fill the Matrix storage ResizeUninitialized
#      grows with NaN (FIRZEN_NAN_FILL_NEW_STORAGE), so a kernel or op that
#      reads an element before writing it fails the tests that run it;
#   3. rebuild with -DFIRZEN_SANITIZE=thread and run the serving suites
#      under TSan — the concurrent-serving stress tests hammering one shared
#      ServingEngine (unsharded, and sharded with its shards ranking in
#      parallel per call) from many threads are the data-race canary for
#      the shared-scorer / caller-owned-arena / per-shard-heap contract, and
#      the admission stress exercises the AdmissionController ticket queue
#      and leader-follower dispatcher hand-off under contention. The
#      -R filter below matches serving_test, serving_admission_test,
#      serving_concurrency_test, sharded_serving_test,
#      distributed_serving_test (the socket fan-out coordinator, shard
#      servers, kill/stall/reconnect matrix — its server accept/handler
#      threads and per-shard exchange threads are the race canary for the
#      distributed tier), scorer_parity_test, kernel_parity_test,
#      util_test (ParallelFor's shard dispatcher: the worker-to-caller
#      exception hand-off, eight callers sharing one pool, calls after
#      idle gaps that wake parked workers, nested calls inline on caller
#      and worker shards, and pools torn down while their workers spin or
#      park), autograd_test and optim_test (the row-sharded Gemm kernels
#      under training's backward pass, and the sharded Adam step),
#      graph_test and eval_test (the kNN build's, the strict-cold
#      expansion's and the evaluator's parallel loops),
#      core_components_test (the knowledge attention and the SAHGL/MSHGL
#      modules over the frozen graphs), and
#      the training smoke: firzen_test and models_test train Firzen and
#      every baseline, whose shared epoch driver validates through the
#      pooled evaluator inside Fit.
#      distributed_e2e_test (real child processes, fork/exec) runs in the
#      default pass only: sanitizer runtimes and fork don't mix;
#   4. rebuild with -DFIRZEN_SANITIZE=undefined and run the same serving +
#      admission + autograd + optim + graph + eval + core_components
#      suites, plus firzen_test (the full model's Fit and inference
#      passes, and the knowledge-attention reuse they pin), under UBSan —
#      the overload-protection paths (deadline arithmetic on steady_clock time points, hysteresis
#      watermark comparisons, fair-share weight indexing) are where signed
#      overflow or bad shifts would hide, and the quant suites (also in the
#      -R filter) cover the int8 kernels' conversion/clamp arithmetic;
#   5. re-run the quant suites in the pass-1 build with FIRZEN_SIMD=scalar,
#      pinning the dispatch to the scalar reference kernel — the passes
#      above ran on the host's best tier, so together the two runs assert
#      every tier produces the same bits (the in-test int32 reference is
#      tier-independent);
#   6. rebuild without -march=native — the SSE2 baseline, no FMA — and run
#      the dense-kernel suites (kernel_parity, matrix, autograd,
#      scorer_parity) plus graph and eval, whose kNN bits come from GemmBT,
#      and core_components, whose knowledge-attention oracle depends on
#      whether w_r . x_h + x_r is fused: the 1-lane tier of the register
#      tile and the no-FMA MulAdd, which an AVX-512 host never compiles
#      otherwise;
#   7. the same suites in a -mavx2 -mfma build: the 4-lane tier.
#
# Usage:
#   tools/run_checks.sh             # all eight passes
#   tools/run_checks.sh --fast      # linter + default-build pass only
#                                   # (skips clang-tidy, the sanitizers, the
#                                   # forced-scalar re-run, and the SSE2 and
#                                   # AVX2 kernel builds)
#   tools/run_checks.sh --simd TIER # export FIRZEN_SIMD=TIER for every pass
#                                   # (scalar|avx2|avx512; caps, never
#                                   # raises, the dispatched tier)
#   FIRZEN_NUM_THREADS=4 tools/run_checks.sh
#
# Extra arguments are forwarded to ctest (e.g. -R serving_test).
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
FORCED_SIMD=""
while [[ "${1:-}" == "--fast" || "${1:-}" == "--simd" ]]; do
  if [[ "${1}" == "--fast" ]]; then
    FAST=1
    shift
  else
    FORCED_SIMD="${2:?--simd needs a tier (scalar|avx2|avx512)}"
    shift 2
  fi
done
if [[ -n "${FORCED_SIMD}" ]]; then
  # The dispatcher validates the value itself (unknown tiers abort with the
  # valid choices), so just export and let pass 1 fail fast on a typo.
  export FIRZEN_SIMD="${FORCED_SIMD}"
fi

run_pass() {
  local build_dir=$1
  shift
  local cmake_args=()
  local ctest_extra=()
  local in_ctest=0
  for arg in "$@"; do
    if [[ "${arg}" == "--" ]]; then
      in_ctest=1
    elif [[ "${in_ctest}" == "1" ]]; then
      ctest_extra+=("${arg}")
    else
      cmake_args+=("${arg}")
    fi
  done
  cmake -B "${build_dir}" -S . ${cmake_args[@]+"${cmake_args[@]}"} >/dev/null
  cmake --build "${build_dir}" -j
  # -j needs an explicit value: a valueless ctest -j greedily consumes the
  # next argument on this toolchain (so `-j -R filter` silently dropped the
  # filter and the TSan pass ran the full suite), and trailing valueless -j
  # only means "default parallelism" on ctest >= 3.29.
  (cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)" \
    ${ctest_extra[@]+"${ctest_extra[@]}"} \
    ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"})
}

CTEST_ARGS=("$@")

echo "== pass 0: static analysis =="
if [[ "${FAST}" == "1" ]]; then
  tools/run_static.sh --fast
else
  tools/run_static.sh
fi

echo "== pass 1: default build + ctest =="
run_pass build
# perfbench/ is edited only by benchmark changes, but it links the library:
# build it here (its own --self-test builds only the helper tests).
cmake -S perfbench -B build-perfbench >/dev/null
cmake --build build-perfbench --target firzen_perfbench -j

if [[ "${FAST}" == "0" ]]; then
  echo "== pass 2: AddressSanitizer build + ctest =="
  # halt_on_error is the default; detect_leaks stays on to catch engine /
  # scorer ownership mistakes.
  ASAN_OPTIONS=${ASAN_OPTIONS:-abort_on_error=1} \
    run_pass build-asan -DFIRZEN_SANITIZE=address

  echo "== pass 3: ThreadSanitizer build + serving suites =="
  # Full-suite TSan is prohibitively slow; the serving + scorer-parity
  # binaries are where threads share one engine/scorer, so they carry the
  # race coverage. kernel_parity and util add the pooled kernels and the
  # ParallelFor dispatcher's stress cases (exception hand-off from a
  # worker shard, many callers on one pool, park-and-wake after idle gaps,
  # nested inline calls, shutdown while workers spin or park); autograd and
  # optim run the row-sharded Gemm kernels under training's backward pass
  # and the sharded Adam step; graph and eval run the kNN build's parallel
  # query blocks and the evaluator's parallel selection and metric loops;
  # core_components the knowledge attention and the modules that propagate
  # over the frozen graphs.
  # firzen_test and models_test are the training smoke: short Fits of every
  # model, each validating through the pooled EvaluateRanking inside the
  # epoch driver, and the pooled kNN builds and kernels under them.
  TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1} \
    run_pass build-tsan -DFIRZEN_SANITIZE=thread -- \
    -R "serving|scorer|kernel_parity|util|autograd|optim|graph|eval|core_components|firzen_test|models_test"

  echo "== pass 4: UndefinedBehaviorSanitizer build + serving suites =="
  # TSan's filter plus the quant suites: the serving/admission binaries
  # exercise the deadline/shedding/fair-share arithmetic added by the
  # overload-protection work, and the quantization binaries exercise the
  # int8 conversion/clamp/saturation arithmetic — exactly where UB (bad
  # float-to-int casts, shifts, misaligned SIMD loads) would hide;
  # halt_on_error turns any UB report into a failing exit code (UBSan's
  # default is report-and-continue). autograd and optim add the training
  # kernels' index arithmetic (strided trans_a reads, ragged tiles), and
  # graph and eval the kNN build's and the evaluator's selection loops,
  # core_components the knowledge attention's per-relation slots, and
  # firzen_test the whole Fit, strict-cold and normal-cold passes.
  UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1} \
    run_pass build-ubsan -DFIRZEN_SANITIZE=undefined -- \
    -R "serving|scorer|quant|autograd|optim|graph|eval|core_components|firzen_test"

  echo "== pass 5: forced-scalar quant suites (FIRZEN_SIMD=scalar) =="
  # The quant tests compare against a tier-independent int32 reference, so
  # re-running them with the dispatch pinned to scalar (the passes above
  # used the host's best tier, unless --simd already forced one) proves
  # scalar and vector tiers produce identical bits.
  (cd build && FIRZEN_SIMD=scalar ctest --output-on-failure -j "$(nproc)" \
    -L quant ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"})

  # The register tile compiles to one Lanes tier per build: 8 lanes on an
  # AVX-512 host, 4 with AVX2 + FMA, 1 (and a non-fused MulAdd) on the SSE2
  # baseline. Passes 1-4 only ever build the host's tier, so these two
  # rebuild the dense-kernel suites for the other two. graph and eval ride
  # along: the kNN graph's bits come from the tier-dispatched GemmBT, and
  # graph_test pins them against a scalar reference. core_components rides
  # too: whether the attention's w_r . x_h + x_r is fused depends on the
  # tier, and its oracle must match on each.
  echo "== pass 6: SSE2 baseline build (no FMA) + kernel suites =="
  run_pass build-sse2 -DFIRZEN_MARCH_NATIVE=OFF -- \
    -R "kernel_parity|matrix|autograd|scorer_parity|graph|eval|core_components"

  echo "== pass 7: AVX2 + FMA build + kernel suites =="
  if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
    run_pass build-avx2 -DFIRZEN_MARCH_NATIVE=OFF \
      "-DCMAKE_CXX_FLAGS=-mavx2 -mfma" -- \
      -R "kernel_parity|matrix|autograd|scorer_parity|graph|eval|core_components"
  else
    echo "skipped: this CPU cannot run AVX2 + FMA binaries"
  fi
fi

echo "all checks passed"
