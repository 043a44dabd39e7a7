"""DynamoLLM reproduction: energy-management for LLM inference clusters.

This package reproduces *DynamoLLM: Designing LLM Inference Clusters for
Performance and Energy Efficiency* (HPCA 2025) as a trace-driven
simulation library:

* :mod:`repro.llm` — model and GPU catalog;
* :mod:`repro.perf` — analytical energy/latency models and profiles;
* :mod:`repro.workload` — request classification, SLOs, traces, predictors;
* :mod:`repro.cluster` — the discrete-time cluster simulator;
* :mod:`repro.core` — the DynamoLLM controllers (the paper's contribution);
* :mod:`repro.policies` — the six evaluated systems;
* :mod:`repro.metrics` — energy, latency, power, carbon and cost accounting;
* :mod:`repro.api` — the unified experiment API: immutable
  :class:`~repro.api.scenario.Scenario` descriptions, the stepped
  :class:`~repro.api.engine.SimulationEngine` with pluggable observers,
  and parallel :func:`~repro.api.executor.run_grid` sweep execution;
* :mod:`repro.experiments` — drivers regenerating every table and figure,
  built on :mod:`repro.api`.

Quickstart (library)::

    from repro import quick_comparison
    results = quick_comparison(duration_s=600)
    print(results["normalized_energy"])

Quickstart (scenario API)::

    from repro.api import TraceSpec, run_grid, sweep
    grid = sweep(
        policies=("SinglePool", "DynamoLLM"),
        traces=(TraceSpec(rate_scale=10.0, duration_s=600.0),),
        accuracies=(None, 0.8),
    )
    summaries = run_grid(grid, workers=4, lean=True)

Quickstart (CLI)::

    python -m repro run --policy DynamoLLM --trace one_hour --duration 600
    python -m repro list-experiments
"""

import importlib
from typing import Any

#: Lazy re-export table (PEP 562).  The root package must not eagerly
#: import its subpackages: ``import repro.core`` has to succeed without
#: pulling ``repro.cluster`` into ``sys.modules`` (the controllers
#: depend only on the protocols in :mod:`repro.core.interfaces`; the
#: concrete cluster objects are injected at the composition roots).
#: Each convenience name resolves — and is cached on the module — on
#: first attribute access.
_EXPORTS = {
    "MODEL_CATALOG": "repro.llm",
    "get_model": "repro.llm",
    "LLAMA2_70B": "repro.llm",
    "H100": "repro.llm",
    "DGX_H100": "repro.llm",
    "EnergyModel": "repro.perf",
    "InstanceConfig": "repro.perf",
    "Profiler": "repro.perf",
    "EnergyPerformanceProfile": "repro.perf",
    "get_default_profile": "repro.perf.profiler",
    "Request": "repro.workload",
    "classify_request": "repro.workload",
    "DEFAULT_SLO_POLICY": "repro.workload",
    "make_one_hour_trace": "repro.workload",
    "make_day_trace": "repro.workload",
    "make_week_trace": "repro.workload",
    "GPUCluster": "repro.cluster",
    "InferenceInstance": "repro.cluster",
    "DynamoLLM": "repro.core",
    "ControllerKnobs": "repro.core",
    "ControllerEpochs": "repro.core",
    "ALL_POLICIES": "repro.policies",
    "DYNAMO_LLM": "repro.policies",
    "SINGLE_POOL": "repro.policies",
    "build_policy": "repro.policies",
    "get_policy_spec": "repro.policies",
    "RunSummary": "repro.metrics",
    "CarbonIntensityTrace": "repro.metrics",
    "CostModel": "repro.metrics",
    "ExperimentConfig": "repro.experiments",
    "FluidRunner": "repro.experiments",
    "Observer": "repro.api",
    "Scenario": "repro.api",
    "ScenarioGrid": "repro.api",
    "SimulationEngine": "repro.api",
    "TraceSpec": "repro.api",
    "run_grid": "repro.api",
    "run_policies": "repro.api",
    "run_scenario": "repro.api",
    "runs": "repro.api",
    "sweep": "repro.api",
}

#: Subpackages reachable as ``repro.<name>`` after a bare ``import repro``.
_SUBPACKAGES = frozenset(
    {
        "llm",
        "perf",
        "workload",
        "sim",
        "cluster",
        "core",
        "policies",
        "metrics",
        "experiments",
        "api",
        "lint",
    }
)


def __getattr__(name: str) -> Any:
    source = _EXPORTS.get(name)
    if source is not None:
        value = getattr(importlib.import_module(source), name)
        globals()[name] = value
        return value
    if name in _SUBPACKAGES:
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(__all__) | _SUBPACKAGES)


__version__ = "0.2.0"

__all__ = [
    "MODEL_CATALOG",
    "get_model",
    "LLAMA2_70B",
    "H100",
    "DGX_H100",
    "EnergyModel",
    "InstanceConfig",
    "Profiler",
    "EnergyPerformanceProfile",
    "get_default_profile",
    "Request",
    "classify_request",
    "DEFAULT_SLO_POLICY",
    "make_one_hour_trace",
    "make_day_trace",
    "make_week_trace",
    "GPUCluster",
    "InferenceInstance",
    "DynamoLLM",
    "ControllerKnobs",
    "ControllerEpochs",
    "ALL_POLICIES",
    "DYNAMO_LLM",
    "SINGLE_POOL",
    "build_policy",
    "get_policy_spec",
    "RunSummary",
    "CarbonIntensityTrace",
    "CostModel",
    "ExperimentConfig",
    "FluidRunner",
    "quick_comparison",
    # Unified scenario/engine API
    "Scenario",
    "ScenarioGrid",
    "TraceSpec",
    "SimulationEngine",
    "Observer",
    "sweep",
    "runs",
    "run_grid",
    "run_scenario",
    "run_policies",
]


def quick_comparison(
    duration_s: float = 600.0,
    rate_scale: float = 10.0,
    service: str = "conversation",
    policies=None,
    workers=None,
):
    """Run a short head-to-head comparison of the evaluated systems.

    A convenience entry point for the README quickstart: generates a
    short slice of the synthetic 1-hour trace, runs the selected
    policies (in parallel when ``workers`` > 1), and returns their
    summaries plus SinglePool-normalised energy.
    """
    from repro.api import run_policies
    from repro.experiments import ExperimentConfig
    from repro.metrics.summary import compare_energy
    from repro.policies import ALL_POLICIES
    from repro.workload import make_one_hour_trace

    trace = make_one_hour_trace(service, rate_scale=rate_scale, duration_s=duration_s)
    summaries = run_policies(
        trace, policies or ALL_POLICIES, ExperimentConfig(), workers=workers
    )
    return {
        "summaries": summaries,
        "normalized_energy": compare_energy(summaries, baseline="SinglePool"),
    }
