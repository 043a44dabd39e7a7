"""Tests for the experiment drivers and the end-to-end runners."""

import pytest

from repro.experiments.characterization import (
    best_configs_summary,
    format_heatmap,
    table1_energy_heatmap,
    table2_load_sweep,
    table3_model_sweep,
    table4_slo_table,
)
from repro.experiments.cluster_eval import (
    figure6_energy_by_system,
    figure7_latency_percentiles,
    figure8_power_percentiles,
    figure9_frequency_timeline,
    figure10_sharding_timeline,
    normalized_energy,
)
from repro.experiments.overheads import (
    figure3_frequency_switch_throughput,
    format_matrix,
    table5_instance_creation,
    table6_resharding_matrix,
)
from repro.api import SimulationEngine, run_policies
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments, run_experiment
from repro.experiments.runner import (
    ExperimentConfig,
    load_fractions_from_trace,
    pool_loads_from_trace,
    recommended_static_servers,
)
from repro.experiments.traces import figure1_request_mix, figure2_weekly_load, weekly_load_statistics
from repro.policies import ALL_POLICIES, DYNAMO_LLM, SINGLE_POOL
from repro.workload.classification import DEFAULT_SCHEME, REQUEST_TYPE_NAMES
from repro.workload.synthetic import make_week_trace


class TestCharacterizationDrivers:
    def test_table1_has_nine_rows(self):
        rows = table1_energy_heatmap()
        assert set(rows) == set(REQUEST_TYPE_NAMES)
        assert len(next(iter(rows.values()))) == 12  # 3 TPs x 4 frequencies

    def test_table1_ll_infeasible_on_tp2(self):
        rows = table1_energy_heatmap()
        assert all(rows["LL"][f"TP2@{f}"] is None for f in (800, 1200, 1600, 1980))

    def test_table1_ss_cheaper_than_ll(self):
        rows = table1_energy_heatmap()
        assert rows["SS"]["TP8@1600"] < rows["LL"]["TP8@1600"]

    def test_table2_levels(self):
        rows = table2_load_sweep()
        assert set(rows) == {"low", "medium", "high"}
        # Low load admits more feasible configurations than high load.
        low_feasible = sum(1 for value in rows["low"].values() if value is not None)
        high_feasible = sum(1 for value in rows["high"].values() if value is not None)
        assert low_feasible > high_feasible

    def test_table3_models_and_ordering(self):
        rows = table3_model_sweep()
        assert "Falcon-180B" in rows and "Llama2-13B" in rows
        # Small models are cheaper than the largest ones at the same config.
        assert rows["Llama2-13B"]["TP8@1600"] < rows["Falcon-180B"]["TP8@1600"]

    def test_table4_matches_slo_policy(self):
        table = table4_slo_table()
        assert table["SS"]["ttft_slo_s"] == pytest.approx(0.25)
        assert table["LL"]["tbt_slo_s"] == pytest.approx(0.1)

    def test_best_configs_cover_all_types(self):
        summary = best_configs_summary()
        assert set(summary) == set(REQUEST_TYPE_NAMES)
        assert summary["SS"].startswith("TP2")

    def test_format_heatmap_renders_rows(self):
        lines = format_heatmap(table2_load_sweep())
        assert len(lines) == 4  # header + three load levels


class TestOverheadDrivers:
    def test_table5_totals(self):
        table = table5_instance_creation()
        assert table["cold_boot"]["total"] > 300.0
        assert table["warm_boot"]["total"] < table["cold_boot"]["total"]

    def test_table6_key_entries(self):
        matrix = table6_resharding_matrix()
        assert matrix["TP4"]["TP8"] == 1
        assert matrix["TP2"]["4TP2"] == 4
        assert matrix["2TP4"]["TP8"] == 0
        assert matrix["_unit_T_s"]["T"] > 0

    def test_figure3_switching_hurts_throughput(self):
        results = figure3_frequency_switch_throughput()
        for row in results.values():
            assert row["switch_freq_rps"] < row["const_freq_rps"]
            assert row["optimized_switch_rps"] > row["switch_freq_rps"]

    def test_format_matrix(self):
        lines = format_matrix(table6_resharding_matrix())
        assert len(lines) == 7  # header + 6 layouts


class TestTraceDrivers:
    def test_figure1_fractions_sum_to_one(self):
        mix = figure1_request_mix(seed=3)
        for service, per_day in mix.items():
            for day, fractions in per_day.items():
                assert sum(fractions.values()) == pytest.approx(1.0, abs=0.02)

    def test_figure2_normalised_to_peak(self):
        series = figure2_weekly_load(seed=3)
        for service, points in series.items():
            values = [value for _, value in points]
            assert max(values) == pytest.approx(1.0)
            assert min(values) >= 0.0

    def test_weekly_statistics_coding_more_bursty(self):
        stats = weekly_load_statistics(seed=3)
        assert stats["coding"]["peak_over_valley"] > stats["conversation"]["peak_over_valley"]
        assert stats["coding"]["peak_over_average"] > stats["conversation"]["peak_over_average"]


class TestRegistry:
    def test_registry_contains_all_artifacts(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "figure1",
            "figure2",
            "figure3",
            "figure6-8",
            "figure11",
            "figure12",
            "figure13",
            "figure14",
            "figure15",
            "figure16",
            "cost",
            "catalog",
            "replay",
        }
        assert expected <= set(EXPERIMENTS)

    def test_light_experiments_exclude_heavy(self):
        light = list_experiments(include_heavy=False)
        assert "figure6-8" not in light
        assert "table1" in light

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("table99")

    def test_run_experiment_by_id(self):
        assert run_experiment("table4")["MM"]["ttft_slo_s"] == pytest.approx(0.4)


class TestRunnerHelpers:
    def test_pool_loads_cover_pools_with_traffic(self, short_trace):
        loads = pool_loads_from_trace(short_trace, DEFAULT_SCHEME)
        assert loads
        assert all(value >= 0 for value in loads.values())

    def test_load_fractions_sum_to_one(self, short_trace):
        fractions = load_fractions_from_trace(short_trace, DEFAULT_SCHEME)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_recommended_static_servers_positive(self, short_trace, profile):
        servers = recommended_static_servers(short_trace, profile, DEFAULT_SCHEME)
        assert servers >= 1


class TestDetailedRunner:
    def test_single_pool_run_completes_requests(self, tiny_trace, experiment_config):
        summary = SimulationEngine(SINGLE_POOL, tiny_trace, experiment_config).run()
        assert summary.latency.count == len(tiny_trace)
        assert summary.energy_kwh > 0.0
        assert summary.gpu_hours > 0.0
        assert summary.slo_attainment() > 0.8

    def test_dynamo_run_saves_energy(self, short_trace, experiment_config):
        summaries = run_policies(short_trace, (SINGLE_POOL, DYNAMO_LLM), experiment_config)
        baseline = summaries["SinglePool"]
        dynamo = summaries["DynamoLLM"]
        assert dynamo.energy_kwh < baseline.energy_kwh
        assert dynamo.average_servers <= baseline.average_servers
        assert dynamo.slo_attainment() > 0.75
        assert dynamo.latency.count == baseline.latency.count

    def test_cluster_eval_extractors(self, short_trace, experiment_config):
        summaries = run_policies(short_trace, (SINGLE_POOL, DYNAMO_LLM), experiment_config)
        energy = figure6_energy_by_system(summaries)
        assert set(energy) == {"SinglePool", "DynamoLLM"}
        latency = figure7_latency_percentiles(summaries)
        assert latency["DynamoLLM"]["ttft_s"][99] >= latency["DynamoLLM"]["ttft_s"][50]
        power = figure8_power_percentiles(summaries)
        assert power["SinglePool"]["cluster_kw"][99] > 0
        frequency = figure9_frequency_timeline(summaries, policy="DynamoLLM", pools=("MM",))
        assert frequency["total"]
        sharding = figure10_sharding_timeline(summaries, policy="DynamoLLM", pools=("MM",))
        assert "TP8" in sharding["total"]
        normalized = normalized_energy(summaries)
        assert normalized["SinglePool"] == pytest.approx(1.0)
        assert normalized["DynamoLLM"] < 1.0


class TestFluidRunner:
    @pytest.fixture(scope="class")
    def day_trace(self):
        from repro.api import BinnedTrace

        bins = make_week_trace("conversation", seed=5, rate_scale=20.0, bin_seconds=1800.0)
        return BinnedTrace(
            name="conversation-2days", bins=[b for b in bins if b.start_time < 2 * 86400.0]
        )

    @staticmethod
    def run(day_trace, profile, policies):
        return run_policies(
            day_trace, policies, ExperimentConfig(profile=profile), backend="fluid"
        )

    def test_fluid_energy_positive(self, day_trace, profile):
        result = self.run(day_trace, profile, (SINGLE_POOL,))["SinglePool"]
        assert result.energy_kwh > 0.0
        assert result.gpu_hours > 0.0
        assert len(result.energy.timeline) == len(day_trace.bins)

    def test_fluid_dynamo_beats_baseline(self, day_trace, profile):
        results = self.run(day_trace, profile, (SINGLE_POOL, DYNAMO_LLM))
        assert results["DynamoLLM"].energy.total_wh < results["SinglePool"].energy.total_wh
        assert results["DynamoLLM"].average_servers < results["SinglePool"].average_servers

    def test_fluid_ordering_of_all_policies(self, day_trace, profile):
        results = self.run(day_trace, profile, ALL_POLICIES)
        energy = {name: summary.energy.total_wh for name, summary in results.items()}
        assert energy["DynamoLLM"] <= min(
            energy[name] for name in energy if name != "DynamoLLM"
        )
        assert energy["ScaleFreq"] < energy["MultiPool"]
        assert energy["ScaleShard"] < energy["MultiPool"]

    def test_fluid_carbon_positive(self, day_trace, profile):
        result = self.run(day_trace, profile, (DYNAMO_LLM,))["DynamoLLM"]
        assert result.carbon_kg() > 0.0


class TestLargeScaleApiPort:
    """Figure-15/16 drivers on the fluid Scenario API."""

    RATE_SCALE = 10.0

    def test_figure15_matches_direct_fluid_runner(self):
        from test_backends import _reference_run

        from repro.experiments.large_scale import figure15_daily_energy, week_bins

        ported = figure15_daily_energy(rate_scale=self.RATE_SCALE)
        bins = week_bins("conversation", rate_scale=self.RATE_SCALE)
        day_bins = [b for b in bins if 86400.0 <= b.start_time < 2 * 86400.0]
        for name, spec in (("SinglePool", SINGLE_POOL), ("DynamoLLM", DYNAMO_LLM)):
            direct = _reference_run(spec, day_bins)
            assert ported[name] == [
                (t, wh / 1000.0) for t, wh in direct.energy_timeline_wh
            ]

    def test_figure16_matches_direct_fluid_runner(self):
        from test_backends import _reference_run

        from repro.experiments.large_scale import figure16_carbon, week_bins
        from repro.metrics.carbon import CarbonIntensityTrace, carbon_timeline_kg_per_h

        ported = figure16_carbon(rate_scale=self.RATE_SCALE)
        bins = week_bins("conversation", rate_scale=self.RATE_SCALE)
        baseline = _reference_run(SINGLE_POOL, bins)
        dynamo = _reference_run(DYNAMO_LLM, bins)
        assert ported["weekly_tonnes"]["SinglePool"] == baseline.carbon_kg / 1000.0
        assert ported["weekly_tonnes"]["DynamoLLM"] == dynamo.carbon_kg / 1000.0
        assert 0.0 < ported["saving_fraction"] < 1.0
        intensity = CarbonIntensityTrace()
        assert ported["timeline_kg_per_h"]["SinglePool"] == carbon_timeline_kg_per_h(
            baseline.energy_timeline_wh, intensity
        )
        assert ported["timeline_kg_per_h"]["DynamoLLM"] == carbon_timeline_kg_per_h(
            dynamo.energy_timeline_wh, intensity
        )

    def test_headline_claims_are_pinned(self):
        """The abstract's three savings at the default week rate scale.

        Runs all three re-plumbed drivers (Figure 14, Figure 16 and the
        cost analysis); the tolerance is perfbench's reference tolerance.
        """
        from repro.experiments.large_scale import headline_claims

        assert headline_claims() == {
            "energy_saving_fraction": pytest.approx(0.771993347564089, rel=1e-9),
            "carbon_saving_fraction": pytest.approx(0.7247077481456791, rel=1e-9),
            "cost_saving_fraction": pytest.approx(0.7549995925734498, rel=1e-9),
        }


class TestModelCatalog:
    def test_cluster_eval_accepts_model(self, tiny_trace, experiment_config):
        from repro.experiments.cluster_eval import run_cluster_evaluation
        from repro.policies import SINGLE_POOL

        summaries = run_cluster_evaluation(
            trace=tiny_trace, policies=(SINGLE_POOL,), model="Llama2-13B"
        )
        assert summaries["SinglePool"].energy_kwh > 0.0

    def test_model_catalog_energy_per_model_traces(self):
        from repro.api import TraceSpec
        from repro.experiments.sensitivity import model_catalog_energy

        tiny = {
            "Llama2-13B": TraceSpec(rate_scale=2.0, duration_s=90.0, seed=9),
            "Llama2-70B": TraceSpec(rate_scale=2.0, duration_s=90.0, seed=9),
        }
        results = model_catalog_energy(
            models=tuple(tiny), policies=("SinglePool",), traces=tiny
        )
        assert set(results) == set(tiny)
        for metrics in results.values():
            assert metrics["SinglePool"]["energy_kwh"] > 0.0

    def test_default_catalog_trace_scales_inverse_to_model(self):
        from repro.experiments.sensitivity import default_catalog_trace

        small = default_catalog_trace("Llama2-13B")
        large = default_catalog_trace("Falcon-180B")
        assert small.rate_scale > large.rate_scale

    def test_sweep_models_dimension_in_keys(self):
        from repro.api import TraceSpec, sweep

        grid = sweep(
            policies=("SinglePool",),
            traces=(TraceSpec(rate_scale=2.0, duration_s=60.0),),
            models=("Llama2-13B", "Llama2-70B"),
        )
        assert len(grid) == 2
        assert any("Llama2-13B" in key for key in grid.keys())

    def test_sample_replay_experiment(self):
        result = run_experiment("replay")
        assert result["requests"] > 0
        assert result["energy_kwh"] > 0.0
        assert result["carbon_kg"] > 0.0
