#!/usr/bin/env bash
# Static-analysis front end — pass 0 of tools/run_checks.sh, also runnable
# standalone. Four stages, in increasing cost order:
#
#   1. determinism linter (tools/firzen_lint.py): ALWAYS runs — stdlib
#      Python, no compiler needed. Hash-order iteration, bare float-score
#      comparators, non-seeded rng, wall-clock reads, naked tensor
#      accumulation, include-layering, upward forward declarations,
#      header functions nothing calls (see docs/static_analysis.md).
#   2. clang-tidy over compile_commands.json with the curated .clang-tidy
#      baseline. SKIPPED WITH A WARNING when clang-tidy is not installed —
#      gcc-only hosts still get stages 1 and 3.
#   3. warnings-as-errors build: -DFIRZEN_WERROR=ON (adds -Werror; under
#      Clang also -Wthread-safety, arming the lock annotations in
#      src/util/thread_annotations.h as compile errors).
#   4. wire-decoder fuzz smoke (-DFIRZEN_FUZZ=ON): with Clang, 30 seconds
#      of libFuzzer over the seed corpus with an ASan-instrumented
#      library; without Clang, the replay binary's --self-test (seed
#      corpus + truncation/bitflip sweeps) so the harness still executes.
#
# Usage:
#   tools/run_static.sh            # all stages
#   tools/run_static.sh --fast     # skip clang-tidy (stage 2) only; the
#                                  # determinism linter is never skipped
#
# Exits non-zero if any stage that RAN failed; missing optional tooling
# (clang-tidy, clang) downgrades its stage to a warning, never a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
  shift
fi

BUILD_DIR=${FIRZEN_STATIC_BUILD_DIR:-build-static}

PYTHON=python3
if ! command -v "${PYTHON}" >/dev/null 2>&1; then
  PYTHON=python
fi

echo "== static 1/4: determinism linter =="
# The build tree (for compile_commands.json) may not exist yet on a fresh
# checkout; the linter falls back to walking src/ in that case.
LINT_ARGS=(--src-root .)
if [[ -f "${BUILD_DIR}/compile_commands.json" ]]; then
  LINT_ARGS+=(--compile-commands "${BUILD_DIR}/compile_commands.json")
fi
"${PYTHON}" tools/firzen_lint.py "${LINT_ARGS[@]}"
"${PYTHON}" tests/firzen_lint_test.py .

echo "== static 2/4: clang-tidy baseline =="
if [[ "${FAST}" == "1" ]]; then
  echo "   (skipped: --fast)"
elif command -v clang-tidy >/dev/null 2>&1; then
  # Configure (or refresh) the static build tree first so the compilation
  # database exists and is current.
  cmake -B "${BUILD_DIR}" -S . -DFIRZEN_WERROR=ON -DFIRZEN_FUZZ=ON >/dev/null
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "${BUILD_DIR}" -quiet "src/.*\.cc$"
  else
    # No parallel driver: invoke clang-tidy directly over the database.
    mapfile -t TIDY_FILES < <("${PYTHON}" - "${BUILD_DIR}" <<'EOF'
import json, sys
for entry in json.load(open(sys.argv[1] + "/compile_commands.json")):
    f = entry["file"]
    if "/src/" in f and f.endswith(".cc"):
        print(f)
EOF
)
    clang-tidy -p "${BUILD_DIR}" --quiet "${TIDY_FILES[@]}"
  fi
else
  echo "   WARNING: clang-tidy not installed; skipping the tidy baseline." >&2
fi

echo "== static 3/4: warnings-as-errors build (-DFIRZEN_WERROR=ON) =="
cmake -B "${BUILD_DIR}" -S . -DFIRZEN_WERROR=ON -DFIRZEN_FUZZ=ON >/dev/null
cmake --build "${BUILD_DIR}" -j

echo "== static 4/4: wire-decoder fuzz smoke =="
if [[ -x "${BUILD_DIR}/fuzz_wire" ]]; then
  # Clang + libFuzzer: 30s coverage-guided over the encoder-derived seeds.
  CORPUS_DIR="${BUILD_DIR}/fuzz_corpus"
  mkdir -p "${CORPUS_DIR}"
  "${BUILD_DIR}/fuzz_wire_replay" --emit-corpus "${CORPUS_DIR}" >/dev/null
  "${BUILD_DIR}/fuzz_wire" -max_total_time=30 -print_final_stats=1 \
    "${CORPUS_DIR}"
else
  echo "   (no Clang: running the replay self-test instead of libFuzzer)"
  "${BUILD_DIR}/fuzz_wire_replay" --self-test
fi

echo "static analysis passed"
