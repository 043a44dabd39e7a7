"""`repro lint` — whole-program static analysis for the reproduction.

The repo's headline guarantees (byte-identical resume, golden-pinned
figure tables, cross-backend equivalence) rest on invariants that are
easy to break silently: a policy calling ``time.time()``, a new
observer seeding from wall clock, kW mixed into a kJ accumulator, a
frozen :class:`~repro.api.scenario.Scenario` mutated after
construction.  This package checks those invariants *statically*, before
any simulation runs.

The engine runs in two passes: pass one parses every file and extracts
per-module facts (imports, function signatures, sink calls, suffixed
assignments — :mod:`repro.lint.graph`); pass two assembles the
project-wide import and call graphs, propagates determinism taint and
detects import cycles; then the per-file rules run with the whole
program visible.

Six rule families (see :mod:`repro.lint.rules`):

* **determinism** (``DET``) — no wall-clock reads, no process-global
  RNG; seeded randomness must flow through :mod:`repro.sim.rng`.
* **units** (``UNT``) — the suffix vocabulary (``_s``/``_ms``/``_w``/
  ``_kw``/``_wh``/``_j``/``_kwh``/``_kg``/``_usd``) must not mix across
  arithmetic, comparisons or assignments without an explicit conversion.
* **concurrency** (``CNC``) — callables submitted to executor pools must
  not use mutable default arguments or capture state via lambdas, and
  result sinks are written only from the consuming side of
  ``as_completed``.
* **immutability** (``IMM``) — no attribute assignment on frozen
  dataclasses outside ``__post_init__``.
* **architecture** (``ARC``) — the declared layering
  (``sim/llm/core/workload/perf`` → ``metrics/policies/cluster`` →
  ``api/experiments`` → ``lint``) admits no upward imports, no import
  cycles, and no cross-package reach into ``_private`` names.
* **flow** (``DET005``, ``UNT004``/``UNT005``) — interprocedural:
  simulation code must not reach a wall-clock/global-RNG sink through
  any chain of wrappers, and unit suffixes must agree across call
  bindings and returned values.

Pre-existing findings are ratcheted via ``lint_baseline.json``
(:mod:`repro.lint.baseline`): CI fails only on *new* findings, and the
baseline may only shrink.

Run it with ``python -m repro lint [paths]`` (or the ``repro-lint``
console script).  Per-line suppressions: ``# repro-lint: disable=RULE``
(comma-separated ids, or ``all``) on the flagged line — note a
suppressed sink still taints its callers (a waiver is not a proof).
"""

from repro.lint.engine import (
    Finding,
    LintReport,
    Rule,
    lint_paths,
    lint_source,
    rule_catalog,
)

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "lint_paths",
    "lint_source",
    "rule_catalog",
]
