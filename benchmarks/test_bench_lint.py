"""Benchmark of the whole-program linter over the real tree.

The cold full-tree lint runs on every push, so it must stay tractable:
one run parses every file, builds the project graph and runs every rule.
"""

from __future__ import annotations

import os

from repro.lint.engine import iter_python_files, lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The same roots the CI lint job checks.
LINT_ROOTS = tuple(
    os.path.join(REPO_ROOT, leaf)
    for leaf in ("src", "tests", "benchmarks", "examples")
)

#: Cold full-tree wall-clock ceiling, with generous CI-runner slack (the
#: local cold run is ~2-3 s).
COLD_BUDGET_S = 30.0


def test_cold_full_tree_lint(benchmark):
    """Cold lint of the whole tree (graph build + every rule pass)."""
    report = benchmark.pedantic(
        lint_paths, args=(list(iter_python_files(LINT_ROOTS)),),
        rounds=1, iterations=1,
    )
    assert report.files_checked > 100
    assert benchmark.stats.stats.max <= COLD_BUDGET_S
