"""Unified experiment-facing API: scenarios, engine, observers, executors.

The experiment-facing layer is built from composable pieces:

* :mod:`repro.api.scenario` — immutable :class:`Scenario` descriptions
  (including the simulation ``backend``), :class:`TraceSpec` recipes and
  the :func:`sweep` grid combinator;
* :mod:`repro.api.engine` — the stepped per-request
  :class:`SimulationEngine` emitting typed events to pluggable
  :class:`Observer` collectors;
* :mod:`repro.api.fluid_engine` — the :class:`FluidEngine` adapter that
  runs the binned fluid simulator behind the same stepped/observed
  interface (``Scenario(backend="fluid")``);
* :mod:`repro.api.executor` — :func:`runs` / :func:`run_grid` /
  :func:`run_policies`, serial or on a process pool (``workers > 1``);
* :mod:`repro.api.sinks` — streamed :class:`ResultSink` outputs
  (:class:`JsonlSink` / :class:`InMemorySink`) so 1000+-scenario sweeps
  flush results incrementally.  Results files are JSON Lines,
  append-only and restart-safe: ``resume=True`` on the executor skips
  scenarios already recorded, scenarios that raise become structured
  error records instead of aborting the sweep, and
  ``completed_keys(path)`` lists what a results file already holds;
* :mod:`repro.api.campaign` — manifest-driven campaigns on top of all
  of it: a JSON/TOML manifest describes the grid, sharding and a report
  recipe, and :class:`CampaignRunner` expands, validates, shards, runs
  (resumably) and pivots the results into the paper's sensitivity
  tables (``python -m repro campaign run|status|report``).

Quickstart::

    from repro.api import TraceSpec, run_grid, sweep

    grid = sweep(
        policies=("SinglePool", "DynamoLLM"),
        traces=(TraceSpec(service="conversation", rate_scale=10.0, duration_s=600.0),),
        accuracies=(None, 0.8),
    )
    summaries = run_grid(grid, workers=4, lean=True)
    for key, summary in summaries.items():
        print(key, summary.energy_kwh)

Streaming a week-long fluid sweep to disk::

    from repro.api import JsonlSink, TraceSpec, run_grid, sweep

    grid = sweep(
        policies=("SinglePool", "DynamoLLM"),
        traces=(TraceSpec(kind="week", service="conversation", rate_scale=40.0),),
        backends=("fluid",),
    )
    run_grid(grid, sink=JsonlSink("results.jsonl"))
"""

from repro.api.campaign import (
    CampaignManifest,
    CampaignRunner,
    CampaignStatus,
    ManifestError,
    ReportSpec,
    ReportTable,
    build_report,
    expand_manifest,
    load_manifest,
    manifest_from_dict,
    shard_path,
    shard_scenarios,
)
from repro.api.engine import SimulationEngine
from repro.api.executor import SweepReport, run_grid, run_policies, run_scenario, runs
from repro.api.fluid_engine import FluidEngine
from repro.api.sinks import (
    InMemorySink,
    JsonlSink,
    ResultsMismatchError,
    ResultSink,
    completed_keys,
    error_record,
    read_jsonl,
    read_records,
    recorded_keys,
    sink_for_path,
    summary_record,
)
from repro.api.observers import (
    CarbonObserver,
    CostObserver,
    EnergyObserver,
    EpochReconfigured,
    LatencyObserver,
    Observer,
    PowerObserver,
    ReconfigurationObserver,
    RequestRouted,
    RunFinished,
    RunStarted,
    ServerCountObserver,
    SLOAttainmentObserver,
    StepCompleted,
    TimelineObserver,
    default_observers,
)
from repro.api.scenario import BACKENDS, Scenario, ScenarioGrid, TraceSpec, sweep
from repro.workload.traces import BinnedTrace

__all__ = [
    "SimulationEngine",
    "FluidEngine",
    "Scenario",
    "ScenarioGrid",
    "TraceSpec",
    "BinnedTrace",
    "BACKENDS",
    "sweep",
    "run_scenario",
    "runs",
    "run_grid",
    "run_policies",
    "ResultSink",
    "JsonlSink",
    "InMemorySink",
    "SweepReport",
    "sink_for_path",
    "summary_record",
    "error_record",
    "completed_keys",
    "recorded_keys",
    "read_jsonl",
    "read_records",
    "ResultsMismatchError",
    "CampaignManifest",
    "CampaignRunner",
    "CampaignStatus",
    "ManifestError",
    "ReportSpec",
    "ReportTable",
    "build_report",
    "expand_manifest",
    "load_manifest",
    "manifest_from_dict",
    "shard_scenarios",
    "shard_path",
    "Observer",
    "default_observers",
    "CarbonObserver",
    "CostObserver",
    "SLOAttainmentObserver",
    "EnergyObserver",
    "LatencyObserver",
    "PowerObserver",
    "ServerCountObserver",
    "TimelineObserver",
    "ReconfigurationObserver",
    "RunStarted",
    "RequestRouted",
    "EpochReconfigured",
    "StepCompleted",
    "RunFinished",
]
