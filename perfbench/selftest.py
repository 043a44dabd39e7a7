#!/usr/bin/env python3
"""Self-tests of the benchmark's own math and a tiny smoke run.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

or collect it explicitly with ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

from benchmath import (  # noqa: E402
    best_of_segments,
    paired_saving_pct,
    self_times,
    supported_percentile,
)


def test_percentile_rule_needs_ten_samples_beyond():
    assert supported_percentile(1000, 99.0) == 99.0  # exactly 10 beyond p99
    assert supported_percentile(999, 99.0) == 95.0  # 9.99 beyond p99
    assert supported_percentile(10_000, 99.9) == 99.9
    assert supported_percentile(10_000, 99.0) == 99.0  # never above the ask
    assert supported_percentile(200, 99.0) == 95.0
    assert supported_percentile(199, 99.0) == 90.0
    assert supported_percentile(20, 99.0) == 50.0
    assert supported_percentile(19, 99.0) is None


def test_self_time_subtracts_nested_and_sibling_children():
    #   root [0, 10]
    #   +- a [1, 4]
    #   |  +- a1 [2, 3]
    #   +- b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    selfs = self_times(parents, starts, ends).tolist()
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == 10.0  # self times partition the root span


def test_best_of_segments_takes_the_fastest_per_position():
    executions = [[1.0, 5.0, 2.0], [3.0, 4.0, 2.5], [1.5, 6.0, 1.0]]
    assert best_of_segments(executions) == 1.0 + 4.0 + 1.0
    try:
        best_of_segments([[1.0, 2.0], [1.0]])
    except ValueError:
        pass
    else:
        raise AssertionError("executions of different shape must raise")


def test_paired_saving_on_hand_computed_example():
    rows = [
        ("g1", "SinglePool", 10.0),
        ("g1", "DynamoLLM", 4.0),
        ("g1", "MultiPool", 7.0),  # neither side of the pair: ignored
        ("g2", "SinglePool", 30.0),
        ("g2", "DynamoLLM", 6.0),
        ("g3", "SinglePool", 100.0),  # unpaired: ignored
    ]
    # 1 - (4 + 6) / (10 + 30) = 0.75
    assert math.isclose(paired_saving_pct(rows), 75.0)
    try:
        paired_saving_pct(rows + [("g2", "DynamoLLM", 1.0)])
    except ValueError:
        pass
    else:
        raise AssertionError("a duplicated policy in one group must raise")


def test_tiny_smoke_run_emits_every_named_metric():
    import run
    from repro.api.engine import SimulationEngine

    original_step = vars(SimulationEngine)["step"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            result, details = run.run_workload(
                workload, seed=0, seconds=0.1, trace=bool(trace), size="tiny", probes=1
            )
            assert result["correct"], details["problems"]
            assert result["failed"] == 0 and result["attempted"] > 0
            emitted = {name: e["unit"] for name, e in result["metrics"].items()}
            assert emitted == expected[trace], (workload, trace)
            for name, entry in result["metrics"].items():
                assert math.isfinite(entry["value"]), (workload, name)
            if trace:
                metrics = {name: e["value"] for name, e in result["metrics"].items()}
                event = workload.startswith("event")
                assert (metrics["route.calls"] > 0) == event
                assert (metrics["cluster.instance_steps"] > 0) == event
                assert (metrics["fluid.bins"] > 0) == (not event)
    # Tracing restores every wrapped entry point.
    assert vars(SimulationEngine)["step"] is original_step


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except Exception as error:  # report every failing test, then exit 1
            failures += 1
            print(f"FAIL {test.__name__}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
