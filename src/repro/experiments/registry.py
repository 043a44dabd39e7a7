"""Experiment registry: map paper table/figure ids to their drivers.

Used by the benchmark harness, the ``python -m repro`` CLI
(``list-experiments`` / ``bench``) and the example scripts so that every
artefact of the paper's evaluation section can be regenerated by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments import characterization, cluster_eval, large_scale, overheads, sensitivity, traces


@dataclass(frozen=True)
class Experiment:
    """One reproducible artefact of the paper."""

    identifier: str
    description: str
    driver: Callable[[], object]
    heavy: bool = False


def _cluster_eval_driver(workers=None) -> object:
    summaries = cluster_eval.run_cluster_evaluation(workers=workers)
    return {
        "figure6": cluster_eval.figure6_energy_by_system(summaries),
        "figure7": cluster_eval.figure7_latency_percentiles(summaries),
        "figure8": cluster_eval.figure8_power_percentiles(summaries),
        "normalized_energy": cluster_eval.normalized_energy(summaries),
    }


EXPERIMENTS: Dict[str, Experiment] = {
    exp.identifier: exp
    for exp in (
        Experiment(
            "table1",
            "Energy heat map per request type x TP x frequency (Llama2-70B, 2K TPS)",
            characterization.table1_energy_heatmap,
        ),
        Experiment(
            "table2",
            "Energy for MM requests across low/medium/high load",
            characterization.table2_load_sweep,
        ),
        Experiment(
            "table3",
            "Energy for MM requests across the model catalog",
            characterization.table3_model_sweep,
        ),
        Experiment(
            "table4",
            "Request-length thresholds and TTFT/TBT SLOs",
            characterization.table4_slo_table,
        ),
        Experiment(
            "table5",
            "Overheads of creating a new 8xH100 inference server",
            overheads.table5_instance_creation,
        ),
        Experiment(
            "table6",
            "Re-sharding weight-transfer overhead matrix",
            overheads.table6_resharding_matrix,
        ),
        Experiment(
            "figure1",
            "Request-type distribution over a week (Coding / Conversation)",
            traces.figure1_request_mix,
        ),
        Experiment(
            "figure2",
            "Normalised load over a week (Coding / Conversation)",
            traces.figure2_weekly_load,
        ),
        Experiment(
            "figure3",
            "Throughput with constant vs per-iteration frequency setting",
            overheads.figure3_frequency_switch_throughput,
        ),
        Experiment(
            "figure6-8",
            "Cluster-level evaluation of the six systems on the 1-hour trace",
            _cluster_eval_driver,
            heavy=True,
        ),
        Experiment(
            "figure11",
            "Sensitivity to output-length predictor accuracy",
            sensitivity.figure11_predictor_accuracy,
            heavy=True,
        ),
        Experiment(
            "figure12",
            "Sensitivity to load level (Poisson low/medium/high)",
            sensitivity.figure12_load_levels,
            heavy=True,
        ),
        Experiment(
            "figure13",
            "Sensitivity to the number of request pools",
            sensitivity.figure13_pool_count,
            heavy=True,
        ),
        Experiment(
            "catalog",
            "Request-level energy across the model catalog (per-model traces)",
            sensitivity.model_catalog_energy,
            heavy=True,
        ),
        Experiment(
            "replay",
            "Bundled sample-trace replay through the CSV backend",
            traces.sample_replay,
        ),
        Experiment(
            "figure14",
            "Normalised weekly energy for Conversation and Coding",
            large_scale.figure14_weekly_energy,
        ),
        Experiment(
            "week-sweep",
            "Weekly six-system run summaries via the Scenario API fluid backend",
            large_scale.weekly_policy_summaries,
        ),
        Experiment(
            "figure15",
            "Energy over one day: SinglePool vs DynamoLLM (fluid Scenario API)",
            large_scale.figure15_daily_energy,
        ),
        Experiment(
            "figure16",
            "Operational carbon emissions over a week (fluid Scenario API)",
            large_scale.figure16_carbon,
        ),
        Experiment(
            "cost",
            "GPU-hour and energy cost savings (Section V-F)",
            large_scale.cost_summary,
        ),
        Experiment(
            "campaign-fig11",
            "Figure 11 grid as a bundled campaign manifest (run + savings report)",
            lambda **kwargs: _run_bundled("fig11_accuracy", **kwargs),
            heavy=True,
        ),
        Experiment(
            "campaign-fig15",
            "Figure 15 comparison as a bundled campaign manifest",
            lambda **kwargs: _run_bundled("fig15_daily", **kwargs),
        ),
        Experiment(
            "campaign-fig16",
            "Figure 16 carbon comparison as a bundled campaign manifest",
            lambda **kwargs: _run_bundled("fig16_carbon", **kwargs),
        ),
        Experiment(
            "campaign-wide",
            "Wider-than-paper accuracy x SLO-scale sensitivity campaign (72 event scenarios)",
            lambda **kwargs: _run_bundled("accuracy_slo_wide", **kwargs),
            heavy=True,
        ),
        Experiment(
            "campaign-sensitivity",
            "1008-scenario fluid sensitivity campaign (manifest-driven, sharded, resumable)",
            lambda **kwargs: _run_bundled("sensitivity_grid", **kwargs),
        ),
    )
}


def _run_bundled(name: str, **kwargs) -> object:
    from repro.experiments.manifests import run_bundled_campaign

    return run_bundled_campaign(name, **kwargs)


def get_experiment(identifier: str) -> Experiment:
    try:
        return EXPERIMENTS[identifier]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {identifier!r}; known: {known}") from None


def list_experiments(include_heavy: bool = True) -> List[str]:
    return [
        identifier
        for identifier, experiment in sorted(EXPERIMENTS.items())
        if include_heavy or not experiment.heavy
    ]


def run_experiment(identifier: str, **kwargs) -> object:
    """Run one experiment by id and return its raw result structure.

    Keyword arguments (e.g. ``workers=4`` for the sweep-based drivers)
    are forwarded to the driver; pass none for the classic behaviour.
    """
    return get_experiment(identifier).driver(**kwargs)
