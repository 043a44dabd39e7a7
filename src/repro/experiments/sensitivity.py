"""Sensitivity studies: Figures 11, 12 and 13 (Section V-C).

All three figures are scenario sweeps on the unified :mod:`repro.api`
layer: one dimension varies (predictor accuracy, Poisson load level,
pool count), everything else is inherited from a shared base config.
Each driver accepts ``workers`` to run its sweep in parallel; results
are identical to a serial run.

The single-dimension figures (11 and 13) run through the campaign layer
(:meth:`repro.api.campaign.CampaignRunner.from_grid`), so they share
its validation and execution path with the manifest-driven grids; the
declarative counterparts — the bundled ``fig11_accuracy``, the
wider-than-paper accuracy x SLO-scale ``accuracy_slo_wide`` and the
1008-scenario ``sensitivity_grid`` (:mod:`~repro.experiments.manifests`,
registry ids ``campaign-fig11`` / ``campaign-wide`` /
``campaign-sensitivity``) — shard, resume and pivot through
``python -m repro campaign``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

from repro.api.campaign import CampaignRunner, ReportSpec
from repro.api.executor import run_policies, runs
from repro.api.scenario import Scenario, TraceSpec
from repro.experiments.runner import ExperimentConfig
from repro.llm.catalog import get_model
from repro.metrics.summary import RunSummary
from repro.policies import ALL_POLICIES, DYNAMO_LLM, SINGLE_POOL
from repro.workload.synthetic import make_one_hour_trace
from repro.workload.traces import Trace


def _default_trace(rate_scale: float = 15.0, duration_s: Optional[float] = 1800.0) -> Trace:
    return make_one_hour_trace("conversation", rate_scale=rate_scale, duration_s=duration_s)


def _summary_of(sink, scenario: Scenario) -> RunSummary:
    """A scenario's summary from an in-memory campaign sink.

    The streamed executors convert a raising scenario into an error
    entry and keep going; a figure driver wants the *original* failure,
    not a bare ``KeyError`` on the missing summary — re-raise it.
    """
    try:
        return sink.results[scenario.key]
    except KeyError:
        error = sink.errors.get(scenario.key)
        if error is not None:
            raise error
        raise


def _headline_metrics(summary: RunSummary) -> Dict[str, float]:
    return {
        "energy_kwh": summary.energy_kwh,
        "p99_ttft_s": summary.latency.ttft_percentile(99),
        "mean_ttft_s": summary.latency.mean_ttft(),
        "slo_attainment": summary.slo_attainment(),
    }


def figure11_predictor_accuracy(
    accuracies: Sequence[float] = (1.0, 0.9, 0.8, 0.6, 0.5),
    trace: Optional[Trace] = None,
    config: Optional[ExperimentConfig] = None,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 11: energy and TTFT vs output-length predictor accuracy.

    Includes the SinglePool baseline as the reference bar, as in the
    paper's figure.  Runs through the campaign layer (in-memory sink),
    so the grid is validated like a manifest campaign and the summaries
    are identical to a plain :func:`~repro.api.executor.runs` sweep.
    """
    trace = trace if trace is not None else _default_trace()
    base_config = config or ExperimentConfig()
    scenarios = [Scenario(policy=SINGLE_POOL, trace=trace, base_config=base_config)]
    scenarios += [
        Scenario(
            policy=DYNAMO_LLM,
            trace=trace,
            predictor_accuracy=accuracy,
            base_config=base_config,
        )
        for accuracy in accuracies
    ]
    runner = CampaignRunner.from_grid(
        "figure11-accuracy",
        scenarios,
        report=ReportSpec(
            value="energy_kwh",
            rows=("policy",),
            cols=("predictor_accuracy",),
            baseline="SinglePool",
            compare="saving",
        ),
    )
    sink = runner.run_in_memory(workers=workers)
    summaries = [_summary_of(sink, scenario) for scenario in scenarios]
    results: Dict[str, Dict[str, float]] = {"SinglePool": _headline_metrics(summaries[0])}
    for accuracy, summary in zip(accuracies, summaries[1:]):
        results[f"Dyn-{int(accuracy * 100)}%"] = _headline_metrics(summary)
    return results


def figure12_load_levels(
    levels: Sequence[str] = ("low", "medium", "high"),
    duration_s: float = 1800.0,
    config: Optional[ExperimentConfig] = None,
    policies=ALL_POLICIES,
    load_multiplier: float = 6.0,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 12: energy of the six systems under Poisson load levels.

    ``load_multiplier`` scales the paper's single-server load levels up
    to cluster scale so that several servers are exercised.
    """
    results: Dict[str, Dict[str, float]] = {}
    for level_name in levels:
        spec = TraceSpec(
            kind="poisson",
            level=level_name,
            load_multiplier=load_multiplier,
            duration_s=duration_s,
            seed=11,
        )
        summaries = run_policies(
            spec.build(), policies, config or ExperimentConfig(), workers=workers, lean=True
        )
        results[level_name] = {name: s.energy_kwh for name, s in summaries.items()}
    return results


def figure13_pool_count(
    pool_counts: Sequence[int] = (2, 4, 6, 9),
    trace: Optional[Trace] = None,
    config: Optional[ExperimentConfig] = None,
    workers: Optional[int] = None,
) -> Dict[int, Dict[str, float]]:
    """Figure 13: energy and TTFT of DynamoLLM vs the number of pools.

    Runs through the campaign layer like :func:`figure11_predictor_accuracy`.
    """
    trace = trace if trace is not None else _default_trace()
    base_config = config or ExperimentConfig()
    scenarios = [
        Scenario(
            policy=DYNAMO_LLM, trace=trace, pool_count=count, base_config=base_config
        )
        for count in pool_counts
    ]
    runner = CampaignRunner.from_grid(
        "figure13-pools",
        scenarios,
        report=ReportSpec(value="energy_kwh", rows=("pool_count",)),
    )
    sink = runner.run_in_memory(workers=workers)
    return {
        count: _headline_metrics(_summary_of(sink, scenario))
        for count, scenario in zip(pool_counts, scenarios)
    }


#: Default model subset for the request-level catalog sweep (Table III's
#: dense/MoE spread without the 100B+ giants, which need larger clusters).
CATALOG_MODELS = ("Llama2-13B", "Mixtral-8x7B", "Llama2-70B")


def default_catalog_trace(model: str, duration_s: float = 900.0) -> TraceSpec:
    """The per-model trace recipe for the catalog sweep.

    Smaller models serve proportionally more traffic per server, so each
    model's trace is rate-scaled inversely with its active parameter
    count (anchored at 15x for Llama2-70B, the paper's primary model).
    This keeps every catalog member exercising a comparable multi-server
    cluster instead of running the small models at a trivial load.
    """
    spec = get_model(model)
    rate_scale = max(4.0, min(40.0, 15.0 * 70.0 / spec.active_params_b))
    return TraceSpec(rate_scale=rate_scale, duration_s=duration_s)


def model_catalog_energy(
    models: Sequence[str] = CATALOG_MODELS,
    policies=(SINGLE_POOL, DYNAMO_LLM),
    traces: Optional[Mapping[str, Union[TraceSpec, Trace]]] = None,
    duration_s: float = 900.0,
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Request-level energy/SLO of the model catalog (Table III revisited).

    The grid crosses the ``models`` dimension with a *per-model*
    :class:`TraceSpec` (``traces`` overrides the default recipe), runs
    every (model, policy) pair on the engine and reports headline
    metrics keyed ``{model: {policy: metrics}}``.
    """
    traces = dict(traces or {})
    scenarios = [
        Scenario(
            policy=policy,
            trace=traces.get(model, default_catalog_trace(model, duration_s)),
            model=model,
        )
        for model in models
        for policy in policies
    ]
    summaries = runs(scenarios, workers=workers, lean=True)
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for scenario, summary in zip(scenarios, summaries):
        results.setdefault(scenario.model, {})[scenario.policy_name] = _headline_metrics(summary)
    return results


def compare_levels(results: Dict[str, Dict[str, float]], baseline: str = "SinglePool") -> Dict[str, Dict[str, float]]:
    """Savings of every system vs the baseline for each load level."""
    savings: Dict[str, Dict[str, float]] = {}
    for level, energies in results.items():
        base = energies.get(baseline, 0.0)
        savings[level] = {
            name: (1.0 - value / base if base > 0 else 0.0) for name, value in energies.items()
        }
    return savings
