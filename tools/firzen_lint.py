#!/usr/bin/env python3
"""firzen_lint: the determinism and layering linter for the Firzen tree.

The serving stack's headline guarantee is bit-exact reproducibility: the
same request against the same model produces byte-identical bytes on every
platform, thread count, shard layout, and batch composition. Most of that
contract is pinned by tests, but a whole class of regressions is invisible
to tests that all run on one platform with one standard library:

  * iterating a std::unordered_{map,set} and letting the HASH ORDER reach
    scores, rankings, rng draws, or serialized output — identical on one
    libstdc++, silently different on another;
  * sorting float scores with a bare `a > b` comparator — ties resolve to
    whatever the sort implementation does, instead of the repo-wide strict
    total order RanksBefore (score desc, item id asc);
  * rand()/random_device/mt19937 instead of the seeded util/rng.h stream,
    or wall-clock reads (time(), system_clock) instead of injected clocks;
  * float accumulation loops in tensor/ outside the sanctioned kernels in
    matrix.cc and quantized.cc, whose fixed p-ordered fma loops (and the
    int8 kernels' single dequant epilogue) ARE the accumulation contract;
  * CPU feature probes (__builtin_cpu_supports, __get_cpuid, raw cpuid)
    outside the single runtime-dispatch TU src/tensor/quantized.cc — a
    second dispatch site can resolve to a DIFFERENT SIMD tier than the
    pinned one and split the process across numeric behaviors;
  * #include edges that run up the layer stack (util < tensor < data <
    graph < {core, models} < eval < serve), which is how "the eval layer
    depends on the wire protocol" happens one convenience include at a
    time — and `class X;` / `struct X;` forward declarations of a type
    defined in a higher layer, the same dependency with the include
    left out.

This linter turns each of those into a build failure. It is stdlib-only,
regex-based (heuristic by design: it must never need a compiler), strips
comments and string literals before matching, and supports per-site
escapes:

    // firzen-lint: allow(<rule>) -- justification
    <flagged statement>

placed on the flagged line or within ALLOW_WINDOW lines above it. Every
allow is expected to carry a justification comment; unexplained hash-order
or bare-comparator code should be fixed, not suppressed.

Usage:
    tools/firzen_lint.py [--src-root DIR] [--compile-commands FILE]
                         [--list-rules]

Exit status: 0 = clean, 1 = findings, 2 = usage error.
Findings print as `path:line: rule: message`, one per line.
"""

import argparse
import json
import os
import re
import sys

# How far above a flagged line an allow(<rule>) escape may sit.
ALLOW_WINDOW = 4

ALLOW_RE = re.compile(r"firzen-lint:\s*allow\(([a-z-]+)\)")

# Layering: an #include from a strictly higher layer is a violation.
# core and models share a rank (models builds on core's graph machinery).
LAYERS = {
    "util": 0,
    "tensor": 1,
    "data": 2,
    "graph": 3,
    "core": 4,
    "models": 4,
    "eval": 5,
    "serve": 6,
}

RULES = {
    "unordered-iteration":
        "hash-order iteration over a std::unordered_{map,set}; sort the "
        "keys first or use an ordered container",
    "raw-sort":
        "sort over float scores without RanksBefore; ties depend on the "
        "sort implementation",
    "banned-rng":
        "non-seeded randomness; use util/rng.h (seeded xoshiro256**)",
    "banned-time":
        "wall-clock read; inject the clock or use steady_clock",
    "raw-float-accum":
        "float accumulation loop in tensor/ outside the sanctioned "
        "kernels (matrix.cc, quantized.cc)",
    "stray-cpuid":
        "CPU feature probe outside the dispatch TU "
        "(src/tensor/quantized.cc); use DispatchedSimdTier()",
    "include-layering":
        "#include from a higher layer (util < tensor < data < graph < "
        "{core, models} < eval < serve)",
    "upward-forward-decl":
        "forward declaration of a class defined in a higher layer; the "
        "lower layer must not know the type",
}

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:multi)?(?:map|set)\s*<[^;]*?>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*\*?(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\.(?:begin|cbegin)\s*\(\)")

SORT_CALL_RE = re.compile(
    r"\bstd::(?:stable_)?(?:partial_)?sort\s*\(|\bstd::nth_element\s*\(")
FLOATISH_RE = re.compile(
    r"\b(?:Real|float|double|score[sd]?|scored|sim[s]?|similarit\w*|"
    r"dist[s]?|distance[s]?|weight[s]?)\b",
    re.IGNORECASE)

BANNED_RNG_RE = re.compile(
    r"\bs?rand\s*\(|\bstd::random_device\b|\brandom_device\b|"
    r"\bmt19937(?:_64)?\b|\bdefault_random_engine\b|\brand_r\s*\(")

BANNED_TIME_RE = re.compile(
    r"\bstd::time\s*\(|(?<![:\w])time\s*\(\s*(?:nullptr|NULL|0)\s*\)|"
    r"\bsystem_clock::now\s*\(|\bgettimeofday\s*\(|\bclock\s*\(\s*\)")

ACCUM_DECL_RE = re.compile(r"\b(?:Real|float|double)\s+(\w+)\s*=\s*0")
ACCUM_WINDOW = 6

# The fixed-order accumulation contract lives in these tensor/ TUs: the
# fp32 Gemm/panel kernels, and the int8 kernels whose int32 accumulators
# are exact (dequant is a single product, but QuantizeRow's max-abs scan
# keeps the file on the sanctioned list).
ACCUM_SANCTIONED = {"matrix.cc", "quantized.cc"}

STRAY_CPUID_RE = re.compile(
    r"\b__builtin_cpu_supports\s*\(|\b__get_cpuid(?:_count)?\s*\(|"
    r"\b__cpuid(?:ex)?\s*\(|\b_may_i_use_cpu_feature\s*\(")
# The one TU allowed to probe the CPU: runtime SIMD dispatch is resolved
# once there and pinned for the process lifetime.
DISPATCH_TU = "src/tensor/quantized.cc"

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"src/([a-z_]+)/')

# Matched on comment- and string-stripped code. A definition may carry one
# attribute macro (`class FIRZEN_CAPABILITY("mutex") Mutex {`); `enum
# class` is not a class, and `friend class X;` is not a declaration of
# this file's dependencies (the forward-declaration pattern is anchored at
# the line start).
CLASS_DEF_RE = re.compile(
    r"(?<!enum )\b(?:class|struct)\s+(?:[A-Z_][A-Z0-9_]*\s*\([^)]*\)\s*)?"
    r"(\w+)\s*(?:final\s*)?(?:\{|:(?!:))")
FORWARD_DECL_RE = re.compile(
    r"^\s*(?:template\s*<[^;{}]*>\s*)?(?:class|struct)\s+(\w+)\s*;")


def strip_comments_and_strings(text):
    """Blanks out comments, string and char literals, preserving newlines
    and column positions so findings keep their real line numbers."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                mode = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if mode == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                mode = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def statement_text(lines, start, max_lines=8):
    """The flagged line plus continuation lines until the statement's
    parens balance (bounded) — sort calls span multiple lines."""
    depth = 0
    chunk = []
    for k in range(start, min(start + max_lines, len(lines))):
        chunk.append(lines[k])
        depth += lines[k].count("(") - lines[k].count(")")
        if k > start and depth <= 0:
            break
    return "\n".join(chunk)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message


def allowed(raw_lines, line_idx, rule):
    lo = max(0, line_idx - ALLOW_WINDOW)
    for k in range(lo, line_idx + 1):
        for m in ALLOW_RE.finditer(raw_lines[k]):
            if m.group(1) == rule:
                return True
    return False


def layer_of(rel):
    """Layer rank of a path under src/, or None outside the layer stack."""
    parts = rel.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[0] == "src":
        return LAYERS.get(parts[1])
    return None


def class_layers(files):
    """Maps each class/struct name defined under src/ to the lowest layer
    defining it. `files` is a list of (rel, stripped_code) pairs."""
    layers = {}
    for rel, code in files:
        layer = layer_of(rel)
        if layer is None:
            continue
        for name in CLASS_DEF_RE.findall(code):
            layers[name] = min(layer, layers.get(name, layer))
    return layers


def lint_file(path, rel, raw_text, defined_in):
    """Lints one file; `defined_in` is class_layers over the whole tree."""
    raw_lines = raw_text.splitlines()
    code = strip_comments_and_strings(raw_text)
    code_lines = code.splitlines()
    findings = []

    def emit(line_idx, rule):
        if not allowed(raw_lines, line_idx, rule):
            findings.append(Finding(rel, line_idx + 1, rule, RULES[rule]))

    # --- unordered-iteration ---
    unordered_vars = set(UNORDERED_DECL_RE.findall(code))
    if unordered_vars:
        for i, line in enumerate(code_lines):
            m = RANGE_FOR_RE.search(line)
            if m and m.group(1) in unordered_vars:
                emit(i, "unordered-iteration")
                continue
            for b in BEGIN_CALL_RE.finditer(line):
                if b.group(1) in unordered_vars:
                    emit(i, "unordered-iteration")
                    break

    # --- raw-sort ---
    for i, line in enumerate(code_lines):
        if not SORT_CALL_RE.search(line):
            continue
        stmt = statement_text(code_lines, i)
        if "RanksBefore" in stmt:
            continue
        if FLOATISH_RE.search(stmt):
            emit(i, "raw-sort")

    # --- banned-rng (util/rng.{h,cc} hosts the sanctioned generator) ---
    if not rel.replace("\\", "/").startswith("src/util/rng."):
        for i, line in enumerate(code_lines):
            if BANNED_RNG_RE.search(line):
                emit(i, "banned-rng")

    # --- banned-time ---
    for i, line in enumerate(code_lines):
        if BANNED_TIME_RE.search(line):
            emit(i, "banned-time")

    # --- stray-cpuid (everywhere but the single dispatch TU) ---
    if rel.replace("\\", "/") != DISPATCH_TU:
        for i, line in enumerate(code_lines):
            if STRAY_CPUID_RE.search(line):
                emit(i, "stray-cpuid")

    # --- raw-float-accum (tensor/ only, outside the sanctioned kernels) ---
    parts = rel.replace("\\", "/").split("/")
    in_tensor = len(parts) >= 2 and parts[0] == "src" and parts[1] == "tensor"
    if in_tensor and os.path.basename(rel) not in ACCUM_SANCTIONED:
        for i, line in enumerate(code_lines):
            for m in ACCUM_DECL_RE.finditer(line):
                name = m.group(1)
                acc_re = re.compile(r"\b%s\s*\+=" % re.escape(name))
                for k in range(i, min(i + ACCUM_WINDOW, len(code_lines))):
                    if acc_re.search(code_lines[k]):
                        emit(i, "raw-float-accum")
                        break

    # --- include-layering ---
    # Include paths are string literals and get blanked by the stripper, so
    # this rule matches the RAW line — gated on the stripped line still
    # being a preprocessor line (a commented-out include strips to blank).
    my_layer = layer_of(rel)
    if my_layer is not None:
        for i, line in enumerate(raw_lines):
            if i >= len(code_lines) or not code_lines[i].lstrip().startswith(
                    "#"):
                continue
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = LAYERS.get(m.group(1))
            if target is not None and target > my_layer:
                emit(i, "include-layering")

    # --- upward-forward-decl ---
    if my_layer is not None:
        for i, line in enumerate(code_lines):
            m = FORWARD_DECL_RE.match(line)
            if m and defined_in.get(m.group(1), my_layer) > my_layer:
                emit(i, "upward-forward-decl")

    return findings


def enumerate_files(src_root, compile_commands):
    """Files to lint: every .h/.cc under <src_root>/src. When a
    compile_commands.json is given, .cc files are restricted to those the
    build actually compiles (headers are always walked — they never appear
    in the database)."""
    src_dir = os.path.join(src_root, "src")
    if not os.path.isdir(src_dir):
        raise SystemExit("firzen_lint: no src/ under %r" % src_root)

    walked = []
    for dirpath, _, names in os.walk(src_dir):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                walked.append(os.path.join(dirpath, name))

    compiled = None
    if compile_commands:
        with open(compile_commands) as f:
            db = json.load(f)
        compiled = set()
        for entry in db:
            p = entry.get("file", "")
            if not os.path.isabs(p):
                p = os.path.join(entry.get("directory", ""), p)
            compiled.add(os.path.realpath(p))

    out = []
    for path in walked:
        if (compiled is not None and path.endswith(".cc")
                and os.path.realpath(path) not in compiled):
            continue
        out.append(path)
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src-root", default=".",
                        help="directory containing src/ (default: cwd)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json restricting the .cc set "
                             "(default: <src-root>/build/compile_commands."
                             "json when present)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print("%s: %s" % (rule, RULES[rule]))
        return 0

    compile_commands = args.compile_commands
    if compile_commands is None:
        default = os.path.join(args.src_root, "build",
                               "compile_commands.json")
        if os.path.isfile(default):
            compile_commands = default

    sources = []
    for path in enumerate_files(args.src_root, compile_commands):
        rel = os.path.relpath(path, args.src_root)
        with open(path, encoding="utf-8", errors="replace") as f:
            sources.append((path, rel, f.read()))
    defined_in = class_layers(
        [(rel, strip_comments_and_strings(raw)) for _, rel, raw in sources])

    findings = []
    for path, rel, raw in sources:
        findings.extend(lint_file(path, rel, raw, defined_in))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print("%s:%d: %s: %s" % (f.path, f.line, f.rule, f.message))
    if findings:
        print("firzen_lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
