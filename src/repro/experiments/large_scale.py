"""Large-scale experiments: Figures 14-16 and the cost analysis (Section V-D/E/F).

These use the fluid (binned) simulator — the reproduction's counterpart
of the paper's discrete-time simulator — over synthetic day- and
week-long traces for the Conversation and Coding services.

:func:`weekly_policy_summaries`, :func:`figure15_daily_energy` and
:func:`figure16_carbon` run through the unified :mod:`repro.api` layer
(``Scenario(backend="fluid")`` via
:func:`~repro.api.executor.run_policies`), which adds observer-based
carbon/cost accounting, parallelism (``workers=``) and streamed
:class:`~repro.api.sinks.ResultSink` output on top of accounting that
is byte-identical to a direct :class:`~repro.experiments.fluid.FluidRunner`
run (pinned by ``tests/test_backends.py``).  Passing ``sink=`` streams
one record per policy as it completes and returns the sink —
``resume=True`` then skips policies the sink already records, so an
interrupted week-scale replay reruns only the missing systems.

``figure14_weekly_energy`` keeps the classic direct-runner path: one
:class:`~repro.experiments.fluid.FluidRunner` per service, evaluated one
after another; ``cost_summary`` likewise — their registry twins are the
API-backed drivers above.

:func:`figure15_campaign` / :func:`figure16_campaign` are the
manifest-driven counterparts: the bundled ``fig15_daily`` /
``fig16_carbon`` campaigns run the same comparisons through
``python -m repro campaign`` (declarative grid, sharding, resume,
pivoted savings report).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.fluid import FluidResult, FluidRunner
from repro.llm.catalog import ModelSpec, LLAMA2_70B
from repro.metrics.carbon import CarbonIntensityTrace, carbon_timeline_kg_per_h
from repro.metrics.cost import CostModel
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


def figure14_weekly_energy(
    services: Tuple[str, ...] = ("conversation", "coding"),
    model: ModelSpec = LLAMA2_70B,
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    policies=ALL_POLICIES,
) -> Dict[str, Dict[str, float]]:
    """Figure 14: normalised weekly energy of the six systems per service."""

    def evaluate(service: str) -> Dict[str, float]:
        runner = FluidRunner(model=model)
        bins = week_bins(service, rate_scale=rate_scale)
        runs = runner.run_all(policies, bins)
        baseline = runs["SinglePool"].energy_wh or 1.0
        return {name: run.energy_wh / baseline for name, run in runs.items()}

    return {service: evaluate(service) for service in services}


def weekly_policy_summaries(
    service: str = "conversation",
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    policies=ALL_POLICIES,
    workers: Optional[int] = None,
    sink=None,
    resume: bool = False,
    bin_seconds: float = 300.0,
):
    """Figure 14's week, run through the Scenario API's fluid backend.

    Returns full :class:`~repro.metrics.summary.RunSummary` objects per
    policy (streaming carbon / cost / GPU-hours included) whose energy
    accounting is byte-for-byte the classic ``FluidRunner`` result.
    With ``sink`` set, summaries stream into it as they complete and the
    sink is returned instead — the memory-bounded path for wide grids;
    ``resume=True`` additionally skips policies the sink already
    records, making interrupted week-scale sweeps restartable.
    """
    from repro.api.executor import run_policies

    trace = BinnedTrace(
        name=_week_trace_name(f"{service}-week", rate_scale, bin_seconds),
        bins=week_bins(service, rate_scale=rate_scale, bin_seconds=bin_seconds),
    )
    return run_policies(
        trace, policies, workers=workers, backend="fluid", sink=sink, resume=resume
    )


def _week_trace_name(
    stem: str, rate_scale: float, bin_seconds: float = 300.0, model: Optional[ModelSpec] = None
) -> str:
    """Trace name encoding the sweep parameters it was built with.

    The name is the resume identity for records keyed by bare policy
    name (``run_policies``), so every parameter that changes the
    numbers must appear in it — otherwise rerunning a driver with,
    say, a different ``rate_scale`` against the same sink file would
    silently skip and present the stale records as this sweep's.
    """
    name = f"{stem}-x{rate_scale:g}"
    if bin_seconds != 300.0:
        name += f"-b{bin_seconds:g}"
    if model is not None and model.name != LLAMA2_70B.name:
        name += f"-{model.name}"
    return name


def _api_policy_summaries(
    trace: BinnedTrace,
    model: ModelSpec,
    policies,
    workers: Optional[int],
    sink,
    resume: bool,
):
    """Run ``policies`` over one binned trace via the Scenario API.

    The shared plumbing of the figure-15/16 drivers: one
    :func:`~repro.api.executor.run_policies` call on the fluid backend,
    whose per-bin energy accounting is byte-identical to a direct
    ``FluidRunner.run`` (the equivalence suite pins it).  With ``sink``
    set the sink is returned (records stream as policies complete, and
    ``resume`` skips the ones already recorded).
    """
    from repro.api.executor import run_policies
    from repro.experiments.runner import ExperimentConfig

    return run_policies(
        trace,
        policies,
        config=ExperimentConfig(model=model),
        workers=workers,
        backend="fluid",
        sink=sink,
        resume=resume,
    )


def figure15_daily_energy(
    service: str = "conversation",
    model: ModelSpec = LLAMA2_70B,
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    bin_seconds: float = 300.0,
    workers: Optional[int] = None,
    sink=None,
    resume: bool = False,
) -> Dict[str, List[Tuple[float, float]]]:
    """Figure 15: energy per 5-minute interval over one day, both systems.

    Runs through the sink-backed fluid Scenario API: with ``sink`` set
    the per-policy records stream to it and the sink is returned
    (``resume=True`` skips recorded policies — the restartable path for
    week-scale replays); without one, the figure payload is built from
    the in-memory summaries' per-bin energy timelines, numerically
    identical to the classic direct ``FluidRunner`` driver.
    """
    bins = week_bins(service, rate_scale=rate_scale, bin_seconds=bin_seconds)
    day_bins = [
        b for b in bins if SECONDS_PER_DAY <= b.start_time < 2 * SECONDS_PER_DAY
    ]
    trace = BinnedTrace(
        name=_week_trace_name(f"{service}-day2", rate_scale, bin_seconds, model),
        bins=day_bins,
    )
    result = _api_policy_summaries(
        trace, model, (SINGLE_POOL, DYNAMO_LLM), workers, sink, resume
    )
    if sink is not None:
        return result
    return {
        name: [(t, wh / 1000.0) for t, wh in summary.energy.timeline]
        for name, summary in result.items()
    }


def figure16_carbon(
    service: str = "conversation",
    model: ModelSpec = LLAMA2_70B,
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    intensity: Optional[CarbonIntensityTrace] = None,
    workers: Optional[int] = None,
    sink=None,
    resume: bool = False,
) -> Dict[str, object]:
    """Figure 16: CO2 emission rate over the week, plus weekly totals (tonnes).

    Like :func:`figure15_daily_energy`, runs both systems through the
    sink-backed fluid Scenario API; with ``sink`` set the sink is
    returned (resumable streamed records), otherwise the carbon figure
    is derived from the summaries' energy timelines — the same
    computation (and numbers) as the classic ``FluidRunner`` driver.
    A custom ``intensity`` only applies to the in-memory path: streamed
    records carry the default-grid carbon accounting of the standard
    observers, so combining it with ``sink`` is rejected rather than
    silently writing wrong numbers.
    """
    if sink is not None and intensity is not None:
        raise ValueError(
            "a custom carbon intensity cannot be applied to streamed "
            "records (sink rows carry the default-grid accounting); drop "
            "sink= and build the figure from the in-memory summaries"
        )
    intensity = intensity or CarbonIntensityTrace()
    trace = BinnedTrace(
        # "fig16" keeps this distinct from weekly_policy_summaries'
        # week, whose records would otherwise satisfy this driver's
        # resume despite the different model/config.
        name=_week_trace_name(f"{service}-week-fig16", rate_scale, model=model),
        bins=week_bins(service, rate_scale=rate_scale),
    )
    result = _api_policy_summaries(
        trace, model, (SINGLE_POOL, DYNAMO_LLM), workers, sink, resume
    )
    if sink is not None:
        return result
    baseline, dynamo = result["SinglePool"], result["DynamoLLM"]
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


def figure15_campaign(
    out: Optional[str] = None, workers: Optional[int] = None, resume: bool = True
):
    """Figure 15 as a bundled campaign: run ``fig15_daily``, return its report.

    The declarative twin of :func:`figure15_daily_energy` — one day of
    the Conversation trace, SinglePool vs DynamoLLM on the fluid
    backend, pivoted into an energy-savings
    :class:`~repro.api.campaign.ReportTable`.  ``out`` keeps resumable
    results files (default: a discarded temporary directory).
    """
    from repro.experiments.manifests import run_bundled_campaign

    return run_bundled_campaign("fig15_daily", out=out, workers=workers, resume=resume)


def figure16_campaign(
    out: Optional[str] = None, workers: Optional[int] = None, resume: bool = True
):
    """Figure 16 as a bundled campaign: run ``fig16_carbon``, return its report.

    The declarative twin of :func:`figure16_carbon`, pivoting weekly
    ``carbon_kg`` savings vs SinglePool from the streamed records.
    """
    from repro.experiments.manifests import run_bundled_campaign

    return run_bundled_campaign("fig16_carbon", out=out, workers=workers, resume=resume)


def cost_summary(
    service: str = "conversation",
    model: ModelSpec = LLAMA2_70B,
    rate_scale: float = DEFAULT_WEEK_RATE_SCALE,
    cost_model: Optional[CostModel] = None,
) -> Dict[str, float]:
    """Section V-F: GPU-hour and energy cost savings over a week."""
    cost_model = cost_model or CostModel()
    runner = FluidRunner(model=model)
    bins = week_bins(service, rate_scale=rate_scale)
    baseline: FluidResult = runner.run(SINGLE_POOL, bins)
    dynamo: FluidResult = runner.run(DYNAMO_LLM, bins)
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
