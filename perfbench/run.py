#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the DynamoLLM simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload event-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run builds a workload's scenario batch from ``--seed``, measures
``setup_s`` in fresh interpreters, then runs the batch back to back
(one client, closed loop, ``workers=1``) for ``--seconds`` and checks
every scenario's record.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer ledger instead.  The times behind
``sim_hours_per_s`` and ``setup_s`` are normalised to a reference host
speed with a calibration kernel (see timing.py); the raw figure is
printed too.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full details (seed, host, commit,
per-scenario and kernel times, any failed checks) and the spans of the
first traced iteration go to ``.perfbench/``.

The simulator is imported from ``src/`` of the checkout this script
sits in; without it the script exits with status 2 and prints no
result.  ``--workload all`` runs the three workloads one after another,
each in its own child process so ``peak_rss_mb`` stays per workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("event-sweep", "event-single", "fluid-week")
SETUP_PROBES = 5

#: Probe run in a fresh interpreter: import the API, build the profile,
#: and time the calibration kernel (timing.py) before and after, in the
#: same process, so the scale describes the CPU the probe ran on.
_SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from timing import time_kernel
k0 = time_kernel()
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import repro.api
t1 = time.perf_counter()
from repro.experiments.runner import ExperimentConfig
ExperimentConfig().resolved_profile()
t2 = time.perf_counter()
k1 = time_kernel()
print(json.dumps({"import_s": t1 - t0, "profile_s": t2 - t1, "kernel_s": [k0, k1],
                  "file": repro.__file__}))
"""


def declared_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, object]:
    return {
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def commit_id() -> Optional[str]:
    """The checkout's git commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over every file of ``src/repro`` (identifies the code without git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# setup_s: fresh interpreters
# ----------------------------------------------------------------------
def measure_setup(probes: int = SETUP_PROBES) -> Dict[str, List[float]]:
    """Set-up times of ``probes`` fresh interpreters, normalised to host speed.

    Each probe times the calibration kernel just before and after its
    set-up, and its times are scaled like a scenario's (see timing.py).
    """
    from timing import HOST_SENSITIVITY, REFERENCE_KERNEL_S

    samples: Dict[str, List[float]] = {"import_s": [], "profile_s": [], "setup_s": []}
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", _SETUP_PROBE, str(SRC), str(HERE)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(ROOT),
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(probe["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup probe imported repro from {probe['file']}")
        scale = (REFERENCE_KERNEL_S / (sum(probe["kernel_s"]) / 2.0)) ** HOST_SENSITIVITY
        samples["import_s"].append(probe["import_s"] * scale)
        samples["profile_s"].append(probe["profile_s"] * scale)
        samples["setup_s"].append((probe["import_s"] + probe["profile_s"]) * scale)
    return samples


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def load_reference(workload: str, seed: int) -> Optional[Dict[str, list]]:
    try:
        recorded = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return None
    return recorded.get(workload, {}).get(str(seed))


def reference_of(batch, records: List[dict]) -> Dict[str, list]:
    return {
        record["scenario"]: [record[name] for name in batch.fields]
        for record in records
        if record.get("error") is None
    }


def same_values(values: list, reference: Optional[list]) -> bool:
    """Equal, allowing floats to differ in the last few digits.

    The fluid backend sums per-pool power over a ``set`` of pool names,
    whose order follows the process's string hash seed, so its floats can
    differ in the last digit from one process to the next.
    """
    if reference is None or len(values) != len(reference):
        return False
    return all(
        value == expected
        or (
            isinstance(value, float)
            and isinstance(expected, float)
            and math.isclose(value, expected, rel_tol=1e-9, abs_tol=0.0)
        )
        for value, expected in zip(values, reference)
    )


def check_records(batch, records: List[dict], reference: Dict[str, list]) -> List[str]:
    """Problems with one execution's records; one entry per failed scenario."""
    by_key = {record["scenario"]: record for record in records}
    problems = []
    for scenario in batch.scenarios:
        key = scenario.key
        record = by_key.get(key)
        if record is None:
            problems.append(f"{key}: no record")
            continue
        if record.get("error") is not None:
            problems.append(f"{key}: {record['error']}")
            continue
        expected = batch.expected_requests[key]
        if expected is not None and record["requests"] != expected:
            problems.append(
                f"{key}: {record['requests']} requests reported, trace has {expected}"
            )
            continue
        values = [record[name] for name in batch.fields]
        if not same_values(values, reference.get(key)):
            problems.append(
                f"{key}: {dict(zip(batch.fields, values))} != reference "
                f"{dict(zip(batch.fields, reference.get(key) or []))}"
            )
    return problems


def outcome_metrics(batch, records: List[dict]) -> Dict[str, float]:
    """The deterministic end-to-end metrics of one execution's records."""
    from benchmath import paired_saving_pct

    ok = [record for record in records if record.get("error") is None]
    metrics = {}
    for metric, field in (
        ("energy_saving_pct", "energy_kwh"),
        ("carbon_saving_pct", "carbon_kg"),
        ("cost_saving_pct", "cost_usd"),
    ):
        metrics[metric] = paired_saving_pct(
            (batch.groups[r["scenario"]], r["policy"], r[field]) for r in ok
        )
    # On the fluid backend this reads the backend's fixed 1.0: it measures
    # no latency, but every workload must report every end-to-end metric.
    attainment = [r["slo_attainment"] for r in ok if r["policy"] == "DynamoLLM"]
    metrics["slo_attainment_pct"] = 100.0 * sum(attainment) / len(attainment)
    return metrics


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    probes: int = SETUP_PROBES,
) -> Tuple[dict, dict]:
    """Measure one workload; returns (the printed result, the details file)."""
    from benchmath import best_of_segments, median, medians_of, per_position_median
    from ledger import Tracer, layer_metrics
    from timing import SegmentTimer
    from repro.experiments.runner import ExperimentConfig
    from workloads import build_batch

    OUT.mkdir(exist_ok=True)
    setup = measure_setup(probes)
    batch = build_batch(workload, seed, size)
    ExperimentConfig().resolved_profile()  # setup_s pays this, not the loop

    recorded = load_reference(workload, seed) if size == "full" else None
    reference = recorded
    tracer = Tracer() if trace else None
    #: Per-scenario wall times of every execution, untraced and traced,
    #: and (untraced, trace 0 only) the same normalised to host speed.
    segments: Dict[bool, List[List[float]]] = {False: [], True: []}
    normalised: List[List[float]] = []
    kernels: List[List[float]] = []
    layer_runs: List[Dict[str, float]] = []
    problems: List[str] = []
    attempted = 0
    outcome: Optional[Dict[str, float]] = None
    started = time.perf_counter()
    iteration = 0
    while True:
        # Traced runs alternate untraced and traced executions.
        traced = trace and iteration % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        # Every execution starts from the same collected heap, so the
        # previous execution's garbage is not collected on this one's time.
        gc.collect()
        timer = SegmentTimer(calibrate=not trace)
        try:
            if traced:
                with tracer.root():
                    handle = batch.execute(str(OUT), timer)
            else:
                handle = batch.execute(str(OUT), timer)
        finally:
            if traced:
                tracer.uninstall()
        segments[traced].append(timer.segments)
        if timer.calibrate:
            normalised.append(timer.normalised())
            kernels.append(timer.kernels)

        records = batch.records(handle)
        if reference is None:
            reference = reference_of(batch, records)
        found = check_records(batch, records, reference)
        problems.extend(f"iteration {iteration}: {problem}" for problem in found)
        attempted += len(batch.scenarios)
        if outcome is None and not found:
            outcome = outcome_metrics(batch, records)
        if traced:
            sink_bytes = os.path.getsize(handle) if isinstance(handle, str) else 0
            layer_runs.append(layer_metrics(tracer, sink_bytes))
            if len(layer_runs) == 1:
                tracer.save(str(OUT / f"{workload}-seed{seed}.spans.npz"))
            tracer.reset()
        # Drop this execution's results before the next one starts, so
        # peak memory does not grow with the number of executions.
        del handle, records
        iteration += 1
        # Stop before an execution that would overrun --seconds, once
        # every kind of execution the run needs has happened.
        upcoming = segments[not traced] if trace else segments[False]
        typical = median(sum(s) for s in (upcoming or segments[traced]))
        if segments[bool(trace)] and time.perf_counter() - started + typical > seconds:
            break

    failed = len(problems)
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_fingerprint(),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "reference": "recorded" if recorded is not None else "first-iteration",
        "scenarios": len(batch.scenarios),
        "sim_hours_per_execution": batch.sim_hours,
        "scenario_wall_s": {"untraced": segments[False], "traced": segments[True]},
        "scenario_normalised_s": normalised,
        "kernel_s": kernels,
        "setup_samples": setup,
        "problems": problems,
    }
    if trace:
        metrics = medians_of(layer_runs)
        base = best_of_segments(segments[False])
        metrics["trace.overhead_pct"] = (
            100.0 * (best_of_segments(segments[True]) - base) / base
        )
        metrics["setup.import_s"] = median(setup["import_s"])
        metrics["setup.profile_s"] = median(setup["profile_s"])
        units = declared_units("per_layer")
    else:
        units = declared_units("end_to_end")
        if outcome is None:
            outcome = {name: 0.0 for name in units if name.endswith("_pct")}
        metrics = {
            "setup_s": median(setup["setup_s"]),
            "sim_hours_per_s": batch.sim_hours / sum(per_position_median(normalised)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **outcome,
        }
        details["raw_sim_hours_per_s"] = batch.sim_hours / median(
            sum(execution) for execution in segments[False]
        )
    details["metrics"] = metrics
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)
        },
    }
    return result, details


def print_table(result: dict, details: dict) -> None:
    print(
        f"# {details['workload']} seed={details['seed']} trace={details['trace']} "
        f"commit={details['commit'] or 'unknown'} "
        f"source={details['source_sha256'][:12]} host={json.dumps(details['host'])}"
    )
    walls = details["scenario_wall_s"]
    print(
        f"# {details['scenarios']} scenarios per execution, "
        f"{len(walls['untraced'])} untraced + {len(walls['traced'])} traced executions, "
        f"reference={details['reference']}"
    )
    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}")
    if "raw_sim_hours_per_s" in details:
        # The reported figure is normalised to the reference host speed.
        raw = details["raw_sim_hours_per_s"]
        print(f"{'(sim_hours_per_s, raw median)':32s} {raw:>16.6g} sim_h/s")
    ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':32s} {ratio:>16.6g} failed/attempted")
    for problem in details["problems"][:10]:
        print(f"! {problem}")


def run_all(args) -> int:
    """Each workload in its own child process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            cwd=str(ROOT),
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC}/repro", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**details, "result": result}, indent=1))
    print_table(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
