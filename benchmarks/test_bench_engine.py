"""Benchmarks of the unified scenario/engine API.

Measures the stepped :class:`~repro.api.engine.SimulationEngine` with the
full observer set against ``lean=True`` (summary observers only), and a
12-scenario sweep serial vs on a process pool.  Lean runs and worker
processes exist purely for sweep speed — their summary metrics are
asserted equal to the full/serial runs.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.api.executor import run_grid, run_scenario, runs


def _engine_run(scenario, lean):
    return run_scenario(scenario, lean=lean)


def test_engine_full_observers(benchmark, bench_scenario):
    """One DynamoLLM run with the full observer set (timelines included)."""
    summary = benchmark.pedantic(
        _engine_run, args=(bench_scenario, False), rounds=1, iterations=1
    )
    assert summary.energy_kwh > 0.0
    assert summary.frequency_timeline  # timelines recorded


def test_engine_lean_observers(benchmark, bench_scenario):
    """Same run with lean observers — same summary metrics, no timelines."""
    summary = benchmark.pedantic(
        _engine_run, args=(bench_scenario, True), rounds=1, iterations=1
    )
    assert summary.energy_kwh > 0.0
    assert not summary.frequency_timeline  # timelines skipped

    reference = run_scenario(bench_scenario, lean=False)
    assert summary.energy_kwh == reference.energy_kwh
    assert summary.latency.count == reference.latency.count


def test_sweep_serial(benchmark, bench_grid):
    """12-scenario sweep executed serially."""
    results = benchmark.pedantic(
        run_grid, args=(bench_grid,), kwargs={"lean": True}, rounds=1, iterations=1
    )
    assert len(results) == len(bench_grid)


def test_lean_transfer_payload_regression(bench_scenario):
    """Lean sweep results must stay cheap to pickle (process-pool transfer).

    ``run_grid(workers=n)`` sends every RunSummary back through a
    pipe from its worker process; before compaction the per-request outcome objects dominated
    short scenarios.  Guard both the relative win over a full summary
    and an absolute per-request byte budget, and check the compact
    summary still answers every headline query identically.
    """
    full = run_scenario(bench_scenario, lean=False)
    (lean,) = runs([bench_scenario], lean=True)

    full_bytes = len(pickle.dumps(full))
    lean_bytes = len(pickle.dumps(lean))
    requests = full.latency.count
    assert lean_bytes < full_bytes / 4, (lean_bytes, full_bytes)
    assert lean_bytes / max(1, requests) < 64.0, (lean_bytes, requests)

    assert lean.energy_kwh == full.energy_kwh
    assert lean.latency.count == full.latency.count
    assert lean.latency.ttft_percentile(99) == full.latency.ttft_percentile(99)
    assert lean.latency.tbt_percentile(50) == full.latency.tbt_percentile(50)
    assert lean.slo_attainment() == full.slo_attainment()
    assert lean.power.mean_cluster_power() == full.power.mean_cluster_power()
    assert lean.carbon.total_kg == full.carbon.total_kg
    assert lean.cost.total_usd == full.cost.total_usd


def test_sweep_parallel(benchmark, bench_grid):
    """Same sweep on four worker processes — results must match serial."""
    results = benchmark.pedantic(
        run_grid,
        args=(bench_grid,),
        kwargs={"workers": 4, "lean": True},
        rounds=1,
        iterations=1,
    )
    assert len(results) == len(bench_grid)
    serial = run_grid(bench_grid, lean=True)
    assert {k: s.energy_kwh for k, s in results.items()} == {
        k: s.energy_kwh for k, s in serial.items()
    }


# ----------------------------------------------------------------------
# Performance trajectory: the event-engine campaign wall-clock is pinned
# in BENCH_event_engine.json at the repository root.
# ----------------------------------------------------------------------
BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_event_engine.json"


def _host_fingerprint():
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
    }


def _same_host_class(recorded, current):
    return (recorded.get("machine"), recorded.get("cpu_count")) == (
        current.get("machine"),
        current.get("cpu_count"),
    )


def test_event_engine_campaign_trajectory(tmp_path):
    """Run the bundled event-backend sensitivity campaign and pin its speed.

    The 72-scenario ``accuracy_slo_wide`` campaign is the workload the
    vectorized engine hot path was built for.  Every run measures the
    serial wall-clock; with ``REPRO_BENCH_RECORD=1`` (the CI bench leg
    sets it) the measurement is appended to ``BENCH_event_engine.json``
    so the performance trajectory accumulates alongside the code.  A run
    slower than ``regression_threshold`` x the best recorded run on a
    matching host class (machine + cpu_count) fails; hosts with no
    recorded baseline only record.
    """
    from repro.api import read_jsonl
    from repro.experiments.manifests import run_bundled_campaign

    out = tmp_path / "campaign.jsonl"
    start = time.perf_counter()
    run_bundled_campaign("accuracy_slo_wide", out=str(out), workers=1)
    elapsed = time.perf_counter() - start

    # The manifest may shard its results file; collect every shard.
    records = [
        record
        for path in sorted(tmp_path.glob("campaign*.jsonl"))
        for record in read_jsonl(str(path))
    ]
    assert len(records) == 72, len(records)
    assert all(r["error"] is None for r in records)
    requests = sum(int(r["requests"]) for r in records)
    assert requests > 0

    data = json.loads(BENCH_FILE.read_text())
    host = _host_fingerprint()
    baseline = [r for r in data["runs"] if _same_host_class(r["host"], host)]
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "elapsed_s": round(elapsed, 3),
        "scenarios": len(records),
        "requests": requests,
        "requests_per_s": round(requests / elapsed, 1),
        "workers": 1,
        "host": host,
    }
    if os.environ.get("REPRO_BENCH_RECORD") == "1":
        data["runs"].append(entry)
        BENCH_FILE.write_text(json.dumps(data, indent=2) + "\n")

    if not baseline:
        pytest.skip(
            f"no recorded baseline for host class {host['machine']}/"
            f"{host['cpu_count']}cpu; measured {elapsed:.2f}s"
        )
    best = min(r["elapsed_s"] for r in baseline)
    threshold = data.get("regression_threshold", 1.2)
    assert elapsed <= best * threshold, (
        f"event-engine campaign regressed: {elapsed:.2f}s vs best recorded "
        f"{best:.2f}s on this host class ({threshold}x threshold)"
    )
