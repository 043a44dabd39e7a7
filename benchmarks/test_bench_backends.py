"""Benchmarks of the fluid backend and the streamed result sinks.

Two questions are answered here:

* how much cheaper is the fluid backend — a full week of trace through
  ``Scenario(backend="fluid")`` versus the event engine on a 15-minute
  slice (the event engine cannot touch week-scale traces at all; its
  number is the per-15-minutes cost to extrapolate from);
* what does streaming results to a ``JsonlSink`` cost versus
  accumulating them in memory — guarded to stay a rounding error
  (target <5% of sweep wall-clock; asserted with an absolute slack so
  scheduler noise on sub-second sweeps cannot flake the suite).
"""

from __future__ import annotations

import time

from repro.api import (
    BinnedTrace,
    InMemorySink,
    JsonlSink,
    Scenario,
    ScenarioGrid,
    read_jsonl,
    run_grid,
    run_scenario,
)
from repro.workload.synthetic import make_week_trace

#: Policies for the sink-overhead sweep (one fluid run each, millisecond
#: scale — the write path is exercised relative to tiny simulations,
#: which is the *worst case* for relative sink overhead).
SINK_POLICIES = ("SinglePool", "ScaleInst", "ScaleShard", "ScaleFreq", "DynamoLLM")


def _week_scenario():
    bins = make_week_trace("conversation", seed=7, rate_scale=40.0)
    return Scenario(
        policy="DynamoLLM",
        trace=BinnedTrace(name="conversation-week", bins=bins),
        backend="fluid",
    )


def test_fluid_week(benchmark):
    """A full week (2016 x 5-minute bins) on the fluid backend."""
    summary = benchmark.pedantic(
        run_scenario, args=(_week_scenario(),), rounds=1, iterations=1
    )
    assert summary.duration_s == 7 * 24 * 3600.0
    assert summary.energy_kwh > 0.0
    assert summary.carbon is not None and summary.carbon.total_kg > 0.0


def test_event_quarter_hour(benchmark, bench_scenario):
    """The event engine on 15 minutes of trace — the comparison point.

    The fluid week above simulates ~670x more trace time; comparing the
    two wall-clocks shows the backend gap the README documents.
    """
    summary = benchmark.pedantic(
        run_scenario, args=(bench_scenario,), kwargs={"lean": True},
        rounds=1, iterations=1,
    )
    assert summary.energy_kwh > 0.0


def _day_grid():
    bins = make_week_trace("conversation", seed=7, rate_scale=40.0, bin_seconds=900.0)
    trace = BinnedTrace(name="conversation-day", bins=bins[:96])
    return ScenarioGrid(
        Scenario(policy=policy, trace=trace, backend="fluid")
        for policy in SINK_POLICIES
    )


def _sweep_seconds(grid, sink_factory):
    best = float("inf")
    for repeat in range(3):
        # One file per repeat: file sinks append to (never truncate) an
        # existing results file, so reusing a path would accumulate.
        sink = sink_factory(repeat)
        started = time.perf_counter()
        run_grid(grid, sink=sink)
        best = min(best, time.perf_counter() - started)
        assert len(sink.results if hasattr(sink, "results") else read_jsonl(sink.path)) == len(grid)
    return best


def test_jsonl_sink_overhead_guard(tmp_path):
    """Streaming to JSONL must cost ~nothing next to the simulations.

    Best-of-3 sweeps, in-memory vs JSONL.  The guard allows 5% relative
    overhead plus 0.25s absolute slack: on a sweep this small the slack
    dominates, so only a genuinely broken write path (per-write reopen,
    accidental fsync, serialising timelines) can trip it.
    """
    grid = _day_grid()
    in_memory = _sweep_seconds(grid, lambda repeat: InMemorySink())
    jsonl = _sweep_seconds(
        grid, lambda repeat: JsonlSink(str(tmp_path / f"bench{repeat}.jsonl"))
    )
    assert jsonl <= in_memory * 1.05 + 0.25, (jsonl, in_memory)


def test_resume_scan_overhead_guard(tmp_path):
    """Resuming a finished sweep must cost file-scan time, not sim time.

    A full sweep runs once; rerunning it with ``resume=True`` skips
    every scenario before traces are materialised, so the rerun must be
    far cheaper than the sweep itself (bounded here at half the original
    wall-clock plus scheduler slack — in practice it is milliseconds).
    """
    grid = _day_grid()
    path = str(tmp_path / "resume.jsonl")
    started = time.perf_counter()
    run_grid(grid, sink=JsonlSink(path))
    full = time.perf_counter() - started

    started = time.perf_counter()
    sink = run_grid(grid, sink=JsonlSink(path), resume=True)
    rerun = time.perf_counter() - started
    assert sink.report.skipped == len(grid) and sink.report.ran == 0
    assert len(read_jsonl(path)) == len(grid)
    assert rerun <= full * 0.5 + 0.1, (rerun, full)


def test_streamed_sweep_matches_accumulated(tmp_path):
    """The streamed records carry the same numbers as an in-memory run."""
    grid = _day_grid()
    path = tmp_path / "stream.jsonl"
    run_grid(grid, sink=JsonlSink(str(path)))
    summaries = run_grid(grid)
    by_key = {record["scenario"]: record for record in read_jsonl(str(path))}
    assert set(by_key) == set(summaries)
    for key, summary in summaries.items():
        assert by_key[key]["energy_kwh"] == summary.energy_kwh
        assert by_key[key]["gpu_hours"] == summary.gpu_hours
