"""The benchmark's three workloads, built from a seed through public API only.

A workload turns the benchmark seed into a :class:`Batch`: a fixed list
of scenarios that one client runs back to back (a closed loop, one
scenario at a time, ``workers=1``).  ``Batch.execute`` is the timed
part and tells a :class:`~timing.SegmentTimer` as each scenario
finishes; ``Batch.records`` reads the results back afterwards.

* ``event-sweep`` -- the campaign shape: one shared conversation trace,
  every policy x a few SLO scales, ``run_grid(lean=True)`` into a
  ``JsonlSink``.  Trace synthesis and capacity planning run once per
  grid, so the per-step layers (routing, controller, cluster) dominate.
* ``event-single`` -- ``repro run`` shape on the coding service: each
  SinglePool/DynamoLLM pair has its own trace seed and every scenario
  goes through ``run_scenario(lean=False)``, so trace synthesis,
  capacity planning, full observers and retained outcomes are paid per
  scenario.
* ``fluid-week`` -- the Figs. 14-16 path: week-long binned traces of
  both services x every policy on ``backend="fluid"`` through
  ``run_grid`` into a ``JsonlSink``.  No event engine, routing or
  cluster step runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import (
    JsonlSink,
    Scenario,
    TraceSpec,
    error_record,
    read_jsonl,
    run_grid,
    run_scenario,
    summary_record,
    sweep,
)
from repro.policies import ALL_POLICIES
from timing import SegmentTimer

#: Record fields that are deterministic per seed and checked against the
#: recorded reference.  ``slo_attainment`` only on the event backend: the
#: fluid backend measures no latency.
EVENT_FIELDS = ("energy_kwh", "gpu_hours", "carbon_kg", "cost_usd", "requests", "squashed", "slo_attainment")
FLUID_FIELDS = EVENT_FIELDS[:-1]

POLICIES = tuple(spec.name for spec in ALL_POLICIES)
BASELINE, CANDIDATE = "SinglePool", "DynamoLLM"

WEEK_HOURS = 7 * 24.0


@dataclass(frozen=True)
class Size:
    """How much work one batch holds (``full`` is what the benchmark runs)."""

    event_duration_s: float
    slo_scales: Tuple[float, ...]
    sweep_policies: Tuple[str, ...]
    single_pairs: int
    week_duration_s: Optional[float]  # None keeps the whole week
    fluid_policies: Tuple[str, ...]


SIZES: Dict[str, Size] = {
    "full": Size(
        event_duration_s=600.0,
        slo_scales=(0.75, 1.5),
        sweep_policies=POLICIES,
        single_pairs=3,
        week_duration_s=None,
        fluid_policies=POLICIES,
    ),
    # Seconds-long smoke size for the self-tests: same code paths.
    "tiny": Size(
        event_duration_s=60.0,
        slo_scales=(1.0,),
        sweep_policies=(BASELINE, CANDIDATE),
        single_pairs=1,
        week_duration_s=6 * 3600.0,
        fluid_policies=(BASELINE, CANDIDATE),
    ),
}


def derive_seeds(seed: int, stream: int, count: int) -> List[int]:
    """``count`` trace seeds for one workload, a pure function of ``seed``."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(value) for value in state]


@dataclass
class Batch:
    """One workload's fixed scenario list plus what its outputs must satisfy."""

    workload: str
    backend: str
    scenarios: List[Scenario]
    #: Pairing group of every scenario key (shared trace and SLO scale).
    groups: Dict[str, object]
    #: Request count of the trace each event scenario serves (None on fluid).
    expected_requests: Dict[str, Optional[int]]
    sim_hours: float
    runner: Callable[["Batch", str, SegmentTimer], object]
    reader: Callable[["Batch", object], List[dict]]

    @property
    def fields(self) -> Tuple[str, ...]:
        return EVENT_FIELDS if self.backend == "event" else FLUID_FIELDS

    def execute(self, out_dir: str, timer: SegmentTimer) -> object:
        """Run every scenario once (the timed part); returns what :meth:`records` reads."""
        timer.start()
        handle = self.runner(self, out_dir, timer)
        timer.stop()
        return handle

    def records(self, handle: object) -> List[dict]:
        """The records of one :meth:`execute` call, keyed by ``scenario``."""
        return self.reader(self, handle)


# ----------------------------------------------------------------------
# Execution shapes
# ----------------------------------------------------------------------
def _sink_path(out_dir: str, batch: Batch) -> str:
    path = os.path.join(out_dir, f"{batch.workload}.results.jsonl")
    if os.path.exists(path):
        os.remove(path)  # JsonlSink appends; each execution starts fresh
    return path


class _TimedSink(JsonlSink):
    """A JsonlSink that tells the timer as each scenario's record lands."""

    def __init__(self, path: str, timer: SegmentTimer) -> None:
        super().__init__(path)
        self.timer = timer

    def write(self, key, summary) -> None:
        super().write(key, summary)
        self.timer.scenario_done()

    def write_error(self, key, error) -> None:
        super().write_error(key, error)
        self.timer.scenario_done()


def _run_grid_into_sink(batch: Batch, out_dir: str, timer: SegmentTimer) -> str:
    path = _sink_path(out_dir, batch)
    run_grid(batch.scenarios, workers=1, lean=True, sink=_TimedSink(path, timer))
    return path


def _read_sink(batch: Batch, path: str) -> List[dict]:
    return read_jsonl(path)


def _run_scenarios(
    batch: Batch, out_dir: str, timer: SegmentTimer
) -> List[Tuple[str, object]]:
    results: List[Tuple[str, object]] = []
    for scenario in batch.scenarios:
        try:
            results.append((scenario.key, run_scenario(scenario, lean=False)))
        except Exception as error:  # a failed scenario is counted, not fatal
            results.append((scenario.key, error))
        timer.scenario_done()
    return results


def _records_of(batch: Batch, results: List[Tuple[str, object]]) -> List[dict]:
    return [
        error_record(key, outcome)
        if isinstance(outcome, BaseException)
        else summary_record(key, outcome)
        for key, outcome in results
    ]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _event_sweep(seed: int, size: Size) -> Batch:
    (trace_seed,) = derive_seeds(seed, 1, 1)
    # x8 rather than the campaign's x6: at x6 DynamoLLM's GPU-hours jump
    # between two levels (about 4.3 and 5.7) from seed to seed, so the
    # savings are bimodal across seeds; at x8 they stay on one level.
    spec = TraceSpec(
        kind="one_hour",
        service="conversation",
        rate_scale=8.0,
        duration_s=size.event_duration_s,
        seed=trace_seed,
    )
    grid = sweep(policies=size.sweep_policies, traces=(spec,), slo_scales=size.slo_scales)
    requests = len(spec.build().requests)
    scenarios = list(grid)
    return Batch(
        workload="event-sweep",
        backend="event",
        scenarios=scenarios,
        groups={s.key: (s.trace_key, s.slo_scale) for s in scenarios},
        expected_requests={s.key: requests for s in scenarios},
        sim_hours=len(scenarios) * size.event_duration_s / 3600.0,
        runner=_run_grid_into_sink,
        reader=_read_sink,
    )


def _event_single(seed: int, size: Size) -> Batch:
    scenarios: List[Scenario] = []
    expected: Dict[str, Optional[int]] = {}
    for pair_seed in derive_seeds(seed, 2, size.single_pairs):
        spec = TraceSpec(
            kind="one_hour",
            service="coding",
            rate_scale=6.0,
            duration_s=size.event_duration_s,
            seed=pair_seed,
        )
        requests = len(spec.build().requests)
        for policy in (BASELINE, CANDIDATE):
            scenario = Scenario(policy=policy, trace=spec)
            scenarios.append(scenario)
            expected[scenario.key] = requests
    return Batch(
        workload="event-single",
        backend="event",
        scenarios=scenarios,
        groups={s.key: s.trace_key for s in scenarios},
        expected_requests=expected,
        sim_hours=len(scenarios) * size.event_duration_s / 3600.0,
        runner=_run_scenarios,
        reader=_records_of,
    )


def _fluid_week(seed: int, size: Size) -> Batch:
    traces = tuple(
        TraceSpec(
            kind="week",
            service=service,
            rate_scale=40.0,
            duration_s=size.week_duration_s,
            seed=trace_seed,
        )
        for service, trace_seed in zip(
            ("conversation", "coding"), derive_seeds(seed, 3, 2)
        )
    )
    grid = sweep(policies=size.fluid_policies, traces=traces, backends=("fluid",))
    scenarios = list(grid)
    hours = (size.week_duration_s / 3600.0) if size.week_duration_s else WEEK_HOURS
    return Batch(
        workload="fluid-week",
        backend="fluid",
        scenarios=scenarios,
        groups={s.key: s.trace_key for s in scenarios},
        expected_requests={s.key: None for s in scenarios},
        sim_hours=len(scenarios) * hours,
        runner=_run_grid_into_sink,
        reader=_read_sink,
    )


WORKLOADS: Dict[str, Callable[[int, Size], Batch]] = {
    "event-sweep": _event_sweep,
    "event-single": _event_single,
    "fluid-week": _fluid_week,
}


def build_batch(workload: str, seed: int, size: str = "full") -> Batch:
    return WORKLOADS[workload](seed, SIZES[size])
