#!/usr/bin/env python3
"""Self-test for tools/firzen_lint.py against tests/lint_fixtures/.

Asserts the EXACT multiset of (file, rule) findings over the fixture tree:
every rule fires on its bad-pattern file, the allow()-escaped file produces
zero findings, and nothing else fires. A linter that silently stops
matching (a regex typo, a stripper bug) fails here, not in review. Also
checks that every unused-api allowlist entry gives its reason.

Usage: firzen_lint_test.py <repo_root>
"""

import importlib.util
import subprocess
import sys


EXPECTED = sorted([
    ("src/core/bad_banned_rng.cc", "banned-rng"),
    ("src/core/bad_banned_rng.cc", "banned-rng"),
    ("src/data/bad_raw_sort.cc", "raw-sort"),
    ("src/eval/bad_unordered_iteration.cc", "unordered-iteration"),
    ("src/eval/bad_upward_forward_decl.h", "upward-forward-decl"),
    ("src/graph/bad_include_layering.cc", "include-layering"),
    ("src/graph/fixture_api.h", "unused-api"),
    ("src/graph/fixture_api.h", "unused-api"),
    ("src/graph/fixture_api.h", "unused-api"),
    ("src/models/bad_stray_cpuid.cc", "stray-cpuid"),
    ("src/models/bad_stray_cpuid.cc", "stray-cpuid"),
    ("src/serve/bad_banned_time.cc", "banned-time"),
    ("src/serve/bad_banned_time.cc", "banned-time"),
    ("src/tensor/bad_raw_float_accum.cc", "raw-float-accum"),
])


def main():
    if len(sys.argv) != 2:
        print("usage: firzen_lint_test.py <repo_root>", file=sys.stderr)
        return 2
    root = sys.argv[1]
    lint = root + "/tools/firzen_lint.py"
    fixtures = root + "/tests/lint_fixtures"

    proc = subprocess.run(
        [sys.executable, lint, "--src-root", fixtures],
        capture_output=True, text=True)

    if proc.returncode != 1:
        print("FAIL: expected exit 1 over the fixtures, got %d\nstdout:\n%s"
              "\nstderr:\n%s" % (proc.returncode, proc.stdout, proc.stderr))
        return 1

    got = []
    for line in proc.stdout.splitlines():
        # path:line: rule: message
        parts = line.split(":", 3)
        if len(parts) < 3:
            print("FAIL: unparseable finding line: %r" % line)
            return 1
        got.append((parts[0], parts[2].strip()))
    got.sort()

    if got != EXPECTED:
        print("FAIL: finding set mismatch")
        for pair in got:
            marker = " " if pair in EXPECTED else "+"
            print("  %s %s: %s" % (marker, pair[0], pair[1]))
        missing = [p for p in EXPECTED if p not in got]
        for pair in missing:
            print("  - %s: %s" % (pair[0], pair[1]))
        return 1

    allowed = [g for g in got if "allowed_escapes" in g[0]]
    if allowed:
        print("FAIL: the allow()-escaped fixture produced findings: %r"
              % allowed)
        return 1

    spec = importlib.util.spec_from_file_location("firzen_lint", lint)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    unexplained = [name for name, reason in
                   module.UNUSED_API_ALLOWLIST.items() if not reason.strip()]
    if unexplained:
        print("FAIL: unused-api allowlist entries without a reason: %r"
              % unexplained)
        return 1

    print("firzen_lint_test: OK (%d findings, exact match)" % len(got))
    return 0


if __name__ == "__main__":
    sys.exit(main())
