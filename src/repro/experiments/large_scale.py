"""Large-scale experiments: Figures 14-16 and the cost analysis (Section V-D/E/F).

These use the fluid (binned) simulator — the reproduction's counterpart
of the paper's discrete-time simulator — over synthetic day- and
week-long traces for the Conversation and Coding services.

Every driver runs its policies over one binned trace through the
Scenario API's fluid backend (:func:`~repro.api.executor.run_policies`
with ``backend="fluid"``) and builds its payload from the in-memory
:class:`~repro.metrics.summary.RunSummary` objects, so observer-based
carbon/cost accounting and ``workers=`` parallelism come for free.

Streamed, resumable runs of the same comparisons are campaigns whose
records are keyed by :attr:`~repro.api.scenario.Scenario.key`:
``repro sweep --backend fluid --trace week --rate-scale 40
--out week.jsonl --resume`` replays the week, and the bundled
``fig15_daily`` / ``fig16_carbon`` manifests (``repro campaign run``,
registry ids ``campaign-fig15`` / ``campaign-fig16``) run Figures 15
and 16 with a pivoted savings report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.llm.catalog import ModelSpec, LLAMA2_70B
from repro.metrics.carbon import CarbonIntensityTrace, carbon_timeline_kg_per_h
from repro.metrics.cost import CostModel
from repro.metrics.summary import RunSummary
from repro.policies import ALL_POLICIES, DYNAMO_LLM, SINGLE_POOL
from repro.workload.synthetic import SECONDS_PER_DAY, make_week_trace
from repro.workload.traces import BinnedTrace, TraceBin

#: Rate scale applied to the week traces so the cluster spans tens of servers.
DEFAULT_WEEK_RATE_SCALE = 40.0


def week_bins(
    service: str,
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    bin_seconds: float = 300.0,
    seed: int = 7,
) -> List[TraceBin]:
    """A week-long binned trace for one service."""
    return make_week_trace(service, seed=seed, rate_scale=rate_scale, bin_seconds=bin_seconds)


def _fluid_summaries(
    name: str,
    bins: List[TraceBin],
    policies,
    model: ModelSpec = LLAMA2_70B,
    workers: Optional[int] = None,
) -> Dict[str, RunSummary]:
    """Run ``policies`` over one binned trace on the fluid backend.

    The shared plumbing of every driver here: one in-memory
    :func:`~repro.api.executor.run_policies` call, summaries keyed by
    policy name in ``policies`` order.
    """
    from repro.api.executor import run_policies
    from repro.experiments.runner import ExperimentConfig

    return run_policies(
        BinnedTrace(name=name, bins=bins),
        policies,
        config=ExperimentConfig(model=model),
        workers=workers,
        backend="fluid",
    )


def _week_trace_name(
    stem: str, rate_scale: float, bin_seconds: float = 300.0, model: Optional[ModelSpec] = None
) -> str:
    """Trace name encoding the sweep parameters it was built with.

    Summaries carry it in their ``trace`` field, so summaries of
    different rate scales, bin widths or models stay distinguishable.
    """
    name = f"{stem}-x{rate_scale:g}"
    if bin_seconds != 300.0:
        name += f"-b{bin_seconds:g}"
    if model is not None and model.name != LLAMA2_70B.name:
        name += f"-{model.name}"
    return name


def figure14_weekly_energy(
    services: Tuple[str, ...] = ("conversation", "coding"),
    model: ModelSpec = LLAMA2_70B,
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    policies=ALL_POLICIES,
) -> Dict[str, Dict[str, float]]:
    """Figure 14: normalised weekly energy of the six systems per service."""

    def evaluate(service: str) -> Dict[str, float]:
        runs = _fluid_summaries(
            _week_trace_name(f"{service}-week", rate_scale, model=model),
            week_bins(service, rate_scale=rate_scale),
            policies,
            model,
        )
        baseline = runs["SinglePool"].energy.total_wh or 1.0
        return {name: run.energy.total_wh / baseline for name, run in runs.items()}

    return {service: evaluate(service) for service in services}


def weekly_policy_summaries(
    service: str = "conversation",
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    policies=ALL_POLICIES,
    workers: Optional[int] = None,
    bin_seconds: float = 300.0,
) -> Dict[str, RunSummary]:
    """Figure 14's week as full run summaries, keyed by policy name.

    Each :class:`~repro.metrics.summary.RunSummary` carries the
    streaming carbon / cost / GPU-hour accounting on top of the energy
    :func:`figure14_weekly_energy` normalises.
    """
    return _fluid_summaries(
        _week_trace_name(f"{service}-week", rate_scale, bin_seconds),
        week_bins(service, rate_scale=rate_scale, bin_seconds=bin_seconds),
        policies,
        workers=workers,
    )


def figure15_daily_energy(
    service: str = "conversation",
    model: ModelSpec = LLAMA2_70B,
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    bin_seconds: float = 300.0,
    workers: Optional[int] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Figure 15: energy per 5-minute interval over one day, both systems.

    The payload is each summary's per-bin energy timeline, in kWh.
    """
    bins = week_bins(service, rate_scale=rate_scale, bin_seconds=bin_seconds)
    day_bins = [
        b for b in bins if SECONDS_PER_DAY <= b.start_time < 2 * SECONDS_PER_DAY
    ]
    summaries = _fluid_summaries(
        _week_trace_name(f"{service}-day2", rate_scale, bin_seconds, model),
        day_bins,
        (SINGLE_POOL, DYNAMO_LLM),
        model,
        workers,
    )
    return {
        name: [(t, wh / 1000.0) for t, wh in summary.energy.timeline]
        for name, summary in summaries.items()
    }


def figure16_carbon(
    service: str = "conversation",
    model: ModelSpec = LLAMA2_70B,
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    intensity: Optional[CarbonIntensityTrace] = None,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Figure 16: CO2 emission rate over the week, plus weekly totals (tonnes).

    The carbon figure is derived from the summaries' per-bin energy
    timelines under ``intensity`` (default: the standard grid trace).
    """
    intensity = intensity or CarbonIntensityTrace()
    summaries = _fluid_summaries(
        _week_trace_name(f"{service}-week-fig16", rate_scale, model=model),
        week_bins(service, rate_scale=rate_scale),
        (SINGLE_POOL, DYNAMO_LLM),
        model,
        workers,
    )
    baseline, dynamo = summaries["SinglePool"], summaries["DynamoLLM"]
    baseline_kg = baseline.carbon_kg(intensity)
    dynamo_kg = dynamo.carbon_kg(intensity)
    return {
        "timeline_kg_per_h": {
            "SinglePool": carbon_timeline_kg_per_h(baseline.energy.timeline, intensity),
            "DynamoLLM": carbon_timeline_kg_per_h(dynamo.energy.timeline, intensity),
        },
        "weekly_tonnes": {
            "SinglePool": baseline_kg / 1000.0,
            "DynamoLLM": dynamo_kg / 1000.0,
        },
        "saving_fraction": 1.0
        - (dynamo_kg / baseline_kg if baseline_kg > 0 else 1.0),
    }


def cost_summary(
    service: str = "conversation",
    model: ModelSpec = LLAMA2_70B,
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    cost_model: Optional[CostModel] = None,
) -> Dict[str, float]:
    """Section V-F: GPU-hour and energy cost savings over a week."""
    cost_model = cost_model or CostModel()
    summaries = _fluid_summaries(
        _week_trace_name(f"{service}-week", rate_scale, model=model),
        week_bins(service, rate_scale=rate_scale),
        (SINGLE_POOL, DYNAMO_LLM),
        model,
    )
    baseline, dynamo = summaries["SinglePool"], summaries["DynamoLLM"]
    savings = cost_model.savings(
        baseline_gpu_hours=baseline.gpu_hours,
        baseline_energy_kwh=baseline.energy_kwh,
        optimized_gpu_hours=dynamo.gpu_hours,
        optimized_energy_kwh=dynamo.energy_kwh,
    )
    hours = baseline.duration_s / 3600.0 or 1.0
    savings.update(
        {
            "baseline_avg_servers": baseline.average_servers,
            "dynamo_avg_servers": dynamo.average_servers,
            "gpu_saving_usd_per_hour": savings["gpu_saving_usd"] / hours,
            "energy_saving_usd_per_hour": savings["energy_saving_usd"] / hours,
            "energy_saving_fraction": 1.0
            - (dynamo.energy_kwh / baseline.energy_kwh if baseline.energy_kwh > 0 else 1.0),
        }
    )
    return savings


def headline_claims(
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
) -> Dict[str, float]:
    """The abstract's service-level claims: energy, carbon and cost savings."""
    weekly = figure14_weekly_energy(rate_scale=rate_scale, policies=(SINGLE_POOL, DYNAMO_LLM))
    carbon = figure16_carbon(rate_scale=rate_scale)
    cost = cost_summary(rate_scale=rate_scale)
    energy_saving = 1.0 - sum(weekly[s]["DynamoLLM"] for s in weekly) / len(weekly)
    return {
        "energy_saving_fraction": energy_saving,
        "carbon_saving_fraction": carbon["saving_fraction"],
        "cost_saving_fraction": cost["saving_fraction"],
    }
