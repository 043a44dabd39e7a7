"""Tests for the unified scenario/engine API (repro.api) and the CLI."""

from __future__ import annotations

import dataclasses

import pytest

from repro.__main__ import main as cli_main
from repro.api import (
    ReconfigurationObserver,
    Scenario,
    ScenarioGrid,
    SimulationEngine,
    TraceSpec,
    run_grid,
    run_policies,
    run_scenario,
    runs,
    sweep,
)
from repro.api.observers import Observer
from repro.experiments.runner import ExperimentConfig
from repro.policies import DYNAMO_LLM, SINGLE_POOL
from repro.workload.slo import SLOPolicy


def _summary_fields(summary):
    """Every RunSummary field, for byte-identical comparisons."""
    return {
        "policy": summary.policy,
        "trace": summary.trace,
        "duration_s": summary.duration_s,
        "energy_wh": summary.energy.total_wh,
        "energy_by_type": summary.energy.type_breakdown_kwh(),
        "latency_count": summary.latency.count,
        "p50_ttft": summary.latency.ttft_percentile(50),
        "p99_ttft": summary.latency.ttft_percentile(99),
        "mean_power": summary.power.mean_cluster_power(),
        "gpu_hours": summary.gpu_hours,
        "average_servers": summary.average_servers,
        "frequency_timeline": summary.frequency_timeline,
        "pool_frequency_timeline": summary.pool_frequency_timeline,
        "gpus_by_tp_timeline": summary.gpus_by_tp_timeline,
        "pool_gpus_by_tp_timeline": summary.pool_gpus_by_tp_timeline,
        "pool_load_timeline": summary.pool_load_timeline,
        "squashed": summary.squashed_requests,
        "routed": summary.routed_requests,
        "slo_attainment": summary.slo_attainment(),
    }


class TestTraceSpec:
    def test_one_hour_build_and_slice(self):
        spec = TraceSpec(rate_scale=3.0, duration_s=120.0, seed=9)
        trace = spec.build()
        assert trace.duration <= 120.0 + 1.0
        assert len(trace) > 0

    def test_same_spec_same_trace(self):
        spec = TraceSpec(rate_scale=3.0, duration_s=120.0)
        first, second = spec.build(), spec.build()
        assert len(first) == len(second)
        assert [r.arrival_time for r in first] == [r.arrival_time for r in second]

    def test_poisson_kind(self):
        spec = TraceSpec(kind="poisson", level="low", duration_s=60.0, load_multiplier=2.0)
        trace = spec.build()
        assert len(trace) > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec(kind="weekly")

    def test_with_builder(self):
        spec = TraceSpec()
        coding = spec.with_(service="coding", rate_scale=5.0)
        assert coding.service == "coding"
        assert spec.service == "conversation"  # original untouched
        assert coding.key != spec.key


class TestScenario:
    def test_with_builders_are_immutable(self):
        scenario = Scenario(policy="DynamoLLM")
        relaxed = scenario.with_(slo_scale=2.0).with_trace(duration_s=300.0)
        assert relaxed.slo_scale == 2.0
        assert relaxed.trace.duration_s == 300.0
        assert scenario.slo_scale is None
        assert scenario.trace.duration_s is None

    def test_key_includes_only_set_dimensions(self):
        plain = Scenario(policy="SinglePool")
        assert "acc" not in plain.key and "slo" not in plain.key
        rich = Scenario(policy="SinglePool", predictor_accuracy=0.8, slo_scale=2.0)
        assert "acc0.8" in rich.key and "slo2" in rich.key

    def test_resolved_config_applies_overrides(self):
        base = ExperimentConfig(max_servers=16)
        scenario = Scenario(
            policy="DynamoLLM",
            slo_scale=2.0,
            predictor_accuracy=0.8,
            pool_count=4,
            base_config=base,
        )
        config = scenario.resolved_config()
        assert config.slo_policy == SLOPolicy(scale=2.0)
        assert config.predictor_accuracy == 0.8
        assert config.scheme is not None and len(config.scheme.pool_names()) == 4
        assert config.max_servers == 16  # inherited
        # The base config itself is untouched.
        assert base.predictor_accuracy == 1.0 and base.scheme is None

    def test_policy_spec_resolution(self):
        assert Scenario(policy="DynamoLLM").policy_spec() is DYNAMO_LLM
        assert Scenario(policy=SINGLE_POOL).policy_spec() is SINGLE_POOL
        with pytest.raises(KeyError):
            Scenario(policy="NoSuchPolicy").policy_spec()


class TestSweep:
    def test_cartesian_expansion(self):
        grid = sweep(
            policies=("SinglePool", "DynamoLLM"),
            traces=(TraceSpec(), TraceSpec(service="coding")),
            slo_scales=(None, 2.0),
            accuracies=(None, 0.8, 0.6),
        )
        assert len(grid) == 2 * 2 * 2 * 3

    def test_keys_unique_and_addressable(self):
        grid = sweep(policies=("SinglePool", "DynamoLLM"), accuracies=(None, 0.8))
        assert len(set(grid.keys())) == len(grid)
        for key in grid.keys():
            assert grid[key].key == key

    def test_duplicate_keys_rejected(self):
        scenario = Scenario(policy="DynamoLLM")
        with pytest.raises(ValueError):
            ScenarioGrid([scenario, scenario])

    def test_filter_and_concat(self):
        grid = sweep(policies=("SinglePool", "DynamoLLM"), accuracies=(None, 0.8))
        dynamo = grid.filter(lambda s: s.policy_name == "DynamoLLM")
        assert len(dynamo) == 2
        merged = dynamo + grid.filter(lambda s: s.policy_name == "SinglePool")
        assert len(merged) == 4


@pytest.fixture(scope="module")
def api_trace():
    return TraceSpec(rate_scale=3.0, duration_s=120.0, seed=9).build()


@pytest.fixture(scope="module")
def api_config(profile):
    return ExperimentConfig(profile=profile, max_servers=16)


class TestEngineEquivalence:
    def test_lean_mode_matches_summary_metrics(self, api_trace, api_config):
        full = SimulationEngine(DYNAMO_LLM, api_trace, api_config).run()
        lean = SimulationEngine(DYNAMO_LLM, api_trace, api_config, lean=True).run()
        assert lean.energy.total_wh == full.energy.total_wh
        assert lean.latency.count == full.latency.count
        assert lean.average_servers == full.average_servers
        assert lean.gpu_hours == full.gpu_hours
        # Lean drops only the timelines.
        assert not lean.frequency_timeline and full.frequency_timeline
        assert not lean.pool_load_timeline and full.pool_load_timeline

    def test_stepped_execution(self, api_trace, api_config):
        engine = SimulationEngine(SINGLE_POOL, api_trace, api_config, lean=True)
        steps = 0
        while engine.step():
            steps += 1
        assert steps > 100  # one step per simulated second plus drain
        summary = engine.summary()
        assert summary.latency.count == len(api_trace)

    def test_epoch_events_reach_observers(self, api_trace, api_config):
        observer = ReconfigurationObserver()
        engine = SimulationEngine(DYNAMO_LLM, api_trace, api_config, lean=True)
        engine.add_observer(observer)
        summary = engine.run()
        assert observer.counts.get("frequency", 0) > 0
        assert observer.counts.get("shard", 0) > 0
        assert summary.reconfiguration_counts == observer.counts

    def test_custom_observer_sees_requests(self, api_trace, api_config):
        class CountingObserver(Observer):
            def __init__(self):
                self.routed = 0

            def on_request_routed(self, event):
                self.routed += 1

        observer = CountingObserver()
        engine = SimulationEngine(SINGLE_POOL, api_trace, api_config, lean=True)
        engine.add_observer(observer)
        engine.run()
        assert observer.routed == len(api_trace)


class TestExecutor:
    def test_parallel_matches_serial(self, api_trace, api_config):
        grid = sweep(
            policies=("SinglePool", "DynamoLLM"),
            traces=(api_trace,),
            accuracies=(None, 0.8),
            base_config=api_config,
        )
        serial = run_grid(grid, lean=True)
        parallel = run_grid(grid, workers=4, lean=True)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert _summary_fields(serial[key]) == _summary_fields(parallel[key])

    def test_twelve_scenario_grid_addressable_by_key(self, api_trace, api_config):
        grid = sweep(
            policies=("SinglePool", "DynamoLLM"),
            traces=(api_trace,),
            slo_scales=(None, 2.0, 4.0),
            accuracies=(None, 0.8),
            base_config=api_config,
        )
        assert len(grid) == 12
        summaries = run_grid(grid, workers=4, lean=True)
        assert set(summaries) == set(grid.keys())
        for key, summary in summaries.items():
            assert summary.energy_kwh > 0.0
            assert summary.policy == grid[key].policy_name

    def test_process_mode_matches_serial(self, api_trace, api_config):
        grid = sweep(
            policies=("SinglePool", "DynamoLLM"),
            traces=(api_trace,),
            base_config=api_config,
        )
        serial = run_grid(grid, lean=True)
        procs = run_grid(grid, workers=2, lean=True)
        for key in serial:
            assert _summary_fields(serial[key]) == _summary_fields(procs[key])

    @pytest.mark.parametrize("workers", [None, 2])
    def test_runs_leave_the_callers_trace_unchanged(
        self, api_trace, api_config, workers
    ):
        """Jobs share the caller's requests, so no run may write to them."""
        scenarios = [
            Scenario(
                policy=policy,
                trace=api_trace,
                predictor_accuracy=accuracy,
                base_config=api_config,
            )
            for policy in ("SinglePool", "DynamoLLM")
            for accuracy in (1.0, 0.5)
        ]
        snapshot = [dict(vars(r)) for r in api_trace.requests]
        runs(scenarios, workers=workers, lean=True)
        assert [vars(r) for r in api_trace.requests] == snapshot

    def test_runs_preserves_input_order(self, api_trace, api_config):
        scenarios = [
            Scenario(policy=name, trace=api_trace, base_config=api_config)
            for name in ("DynamoLLM", "SinglePool")
        ]
        summaries = runs(scenarios, workers=2, lean=True)
        assert [s.policy for s in summaries] == ["DynamoLLM", "SinglePool"]

    def test_run_scenario_single(self, api_trace, api_config):
        summary = run_scenario(
            Scenario(policy="SinglePool", trace=api_trace, base_config=api_config),
            lean=True,
        )
        assert summary.latency.count == len(api_trace)


class TestRunPolicies:
    def test_run_policies_does_not_mutate_config(self, api_trace, api_config):
        config = dataclasses.replace(api_config, static_servers=None)
        run_policies(api_trace, (SINGLE_POOL,), config)
        assert config.static_servers is None

    def test_shared_budget_applied_to_all_policies(self, api_trace, api_config):
        config = dataclasses.replace(api_config, static_servers=None)
        summaries = run_policies(api_trace, (SINGLE_POOL, DYNAMO_LLM), config)
        # The static baseline holds the shared peak budget for the whole run.
        assert summaries["SinglePool"].average_servers > 0

    def test_records_equal_grid_under_four_pool_scheme(self, api_trace, api_config):
        """run_policies sizes the static budget exactly as a grid run
        does — from 9-pool peaks, whatever the config's scheme."""
        from repro.api import summary_record
        from repro.workload.classification import scheme_for_pool_count

        config = dataclasses.replace(
            api_config, static_servers=None, scheme=scheme_for_pool_count(4)
        )
        by_policy = run_policies(api_trace, (SINGLE_POOL, DYNAMO_LLM), config, lean=True)
        grid = sweep(
            policies=("SinglePool", "DynamoLLM"), traces=(api_trace,), base_config=config
        )
        by_key = run_grid(grid, lean=True)
        for scenario in grid:
            name = scenario.policy_spec().name
            assert summary_record(scenario.key, by_policy[name]) == summary_record(
                scenario.key, by_key[scenario.key]
            )


class TestCli:
    def test_list_experiments(self, capsys):
        assert cli_main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure6-8" in out

    def test_list_experiments_light(self, capsys):
        assert cli_main(["list-experiments", "--light"]) == 0
        assert "figure6-8" not in capsys.readouterr().out

    def test_run_command(self, capsys):
        code = cli_main(
            [
                "run", "--policy", "DynamoLLM", "--trace", "one_hour",
                "--duration", "120", "--rate-scale", "3", "--lean", "--json",
            ]
        )
        assert code == 0
        import json

        row = json.loads(capsys.readouterr().out)
        assert row["scenario"].startswith("DynamoLLM/")
        assert row["energy_kwh"] > 0.0

    def test_sweep_command(self, capsys):
        code = cli_main(
            [
                "sweep", "--policies", "SinglePool,DynamoLLM",
                "--duration", "120", "--rate-scale", "3",
                "--workers", "2", "--json",
            ]
        )
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 2

    def test_bench_command(self, capsys):
        assert cli_main(["bench", "table4", "--json"]) == 0
        import json

        timings = json.loads(capsys.readouterr().out)
        assert set(timings) == {"table4"}
        assert timings["table4"] >= 0.0
