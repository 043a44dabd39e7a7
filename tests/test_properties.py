"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.resharding import ShardLayout, plan_reshard
from repro.llm.catalog import LLAMA2_70B
from repro.perf.config import InstanceConfig, WorkloadSlice
from repro.perf.latency_model import LatencyModel
from repro.perf.power_model import PowerModel
from repro.workload.classification import (
    REQUEST_TYPE_NAMES,
    classify_length,
    equivalent_prompt_tokens,
)
from repro.workload.slo import SLOPolicy

_LATENCY = LatencyModel(LLAMA2_70B)
_POWER = PowerModel()

frequencies = st.sampled_from([800, 1000, 1200, 1400, 1600, 1800, 1980])
tps = st.sampled_from([2, 4, 8])
input_tokens = st.integers(min_value=1, max_value=8192)
output_tokens = st.integers(min_value=1, max_value=2048)


class TestClassificationProperties:
    @given(n_in=input_tokens, n_out=output_tokens)
    def test_every_length_pair_has_exactly_one_bucket(self, n_in, n_out):
        bucket = classify_length(n_in, n_out)
        assert bucket.name in REQUEST_TYPE_NAMES

    @given(n_in=input_tokens, n_out=output_tokens)
    def test_classification_monotone_in_lengths(self, n_in, n_out):
        bucket = classify_length(n_in, n_out)
        larger = classify_length(min(8192, n_in * 2), min(100000, n_out * 2))
        assert larger.size_rank >= bucket.size_rank or larger.name == bucket.name

    @given(
        tokens=st.integers(min_value=1, max_value=8192),
        source=st.sampled_from(REQUEST_TYPE_NAMES),
        target=st.sampled_from(REQUEST_TYPE_NAMES),
    )
    def test_equivalent_tokens_roundtrip(self, tokens, source, target):
        converted = equivalent_prompt_tokens(tokens, source, target)
        back = equivalent_prompt_tokens(converted, target, source)
        assert abs(back - tokens) < 1e-6 * max(1.0, tokens)

    @given(tokens=st.integers(min_value=1, max_value=8192), name=st.sampled_from(REQUEST_TYPE_NAMES))
    def test_equivalent_tokens_positive(self, tokens, name):
        assert equivalent_prompt_tokens(tokens, name, "LL") > 0


class TestSLOProperties:
    @given(scale=st.floats(min_value=0.1, max_value=20.0), name=st.sampled_from(REQUEST_TYPE_NAMES))
    def test_scaling_slo_scales_both_targets(self, scale, name):
        from repro.workload.classification import RequestType

        policy = SLOPolicy()
        base = policy.slo_for(RequestType.from_name(name))
        scaled = base.scaled(scale)
        assert scaled.ttft_s > 0 and scaled.tbt_s > 0
        assert abs(scaled.ttft_s - base.ttft_s * scale) < 1e-9


class TestPowerProperties:
    @given(frequency=frequencies, activity=st.floats(min_value=0.0, max_value=1.0))
    def test_power_bounded_between_idle_and_tdp(self, frequency, activity):
        power = _POWER.gpu_power(frequency, activity)
        assert _POWER.gpu.idle_watts - 1e-9 <= power <= _POWER.gpu.tdp_watts + 1e-9

    @given(frequency=frequencies, a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    def test_power_monotone_in_activity(self, frequency, a, b):
        low, high = sorted((a, b))
        assert _POWER.gpu_power(frequency, low) <= _POWER.gpu_power(frequency, high) + 1e-9

    @given(tp=tps, frequency=frequencies, activity=st.floats(0.0, 1.0))
    def test_instance_power_scales_with_gpu_count(self, tp, frequency, activity):
        power = _POWER.instance_power(tp, frequency, activity)
        assert power >= tp * _POWER.gpu.idle_watts


class TestLatencyProperties:
    @settings(max_examples=40, deadline=None)
    @given(tp=tps, frequency=frequencies, n_in=st.integers(64, 4096))
    def test_prefill_time_positive_and_monotone_in_length(self, tp, frequency, n_in):
        config = InstanceConfig(tp, frequency)
        short = _LATENCY.prefill_time(config, n_in)
        long = _LATENCY.prefill_time(config, n_in * 2)
        assert short > 0
        assert long > short

    @settings(max_examples=40, deadline=None)
    @given(tp=tps, frequency=frequencies, load=st.floats(min_value=0.0, max_value=3000.0))
    def test_operating_point_invariants(self, tp, frequency, load):
        workload = WorkloadSlice(input_tokens=600, output_tokens=220, prompt_tokens_per_second=load)
        point = _LATENCY.solve(InstanceConfig(tp, frequency), workload)
        assert 0.0 <= point.power_activity <= 1.0
        if point.feasible:
            assert point.ttft_s >= 0.0
            assert point.tbt_s >= 0.0
            assert point.batch_size >= 0.0
            assert point.kv_tokens <= _LATENCY.kv_capacity_tokens(point.config) + 1e-6

    @settings(max_examples=20, deadline=None)
    @given(tp=tps, frequency=frequencies)
    def test_feasible_region_shrinks_with_load(self, tp, frequency):
        config = InstanceConfig(tp, frequency)
        low = _LATENCY.solve(config, WorkloadSlice(600, 220, 200.0))
        high = _LATENCY.solve(config, WorkloadSlice(600, 220, 20000.0))
        # If the high load is feasible the low load must be feasible too.
        if high.feasible:
            assert low.feasible


class TestReshardingProperties:
    layouts = st.sampled_from(
        [
            ShardLayout((2,)),
            ShardLayout((4,)),
            ShardLayout((8,)),
            ShardLayout((2, 2, 2, 2)),
            ShardLayout((4, 4)),
            ShardLayout((2, 4)),
        ]
    )

    @given(source=layouts, destination=layouts)
    def test_plan_covers_destination_needs(self, source, destination):
        plan = plan_reshard(source, destination)
        assert plan.time_units >= 0
        assert plan.shards_moved >= 0
        # Self-transition never moves data.
        if source == destination:
            assert plan.shards_moved == 0

    @given(source=layouts, destination=layouts)
    def test_time_units_bounded_by_full_model(self, source, destination):
        plan = plan_reshard(source, destination)
        assert plan.time_units <= 8
        assert plan.shards_moved <= 8 * 8


# ======================================================================
# Seeded-RNG property tests (hypothesis-free): sinks, observer totals,
# resample mass conservation.  Each case draws randomized inputs from an
# explicit ``random.Random(seed)`` so failures replay deterministically.
# ======================================================================
import math
import random

import pytest

from repro.api import (
    BinnedTrace,
    JsonlSink,
    Scenario,
    read_jsonl,
    run_grid,
    run_scenario,
    summary_record,
)
from repro.workload.loaders import resample_trace
from repro.workload.request import Request
from repro.workload.synthetic import make_week_trace
from repro.workload.traces import Trace


def _random_fluid_scenarios(rng: random.Random, count: int):
    """Randomized (cheap) fluid scenarios over distinct synthetic days."""
    scenarios = []
    for index in range(count):
        bins = make_week_trace(
            rng.choice(("conversation", "coding")),
            seed=rng.randrange(1, 1000),
            rate_scale=rng.choice((10.0, 25.0, 40.0)),
            bin_seconds=rng.choice((900.0, 1800.0)),
        )[: rng.randrange(8, 24)]
        scenarios.append(
            Scenario(
                policy=rng.choice(("SinglePool", "ScaleInst", "DynamoLLM")),
                trace=BinnedTrace(name=f"rand-{index}", bins=bins),
                backend="fluid",
            )
        )
    return scenarios


class TestSinkRoundTripProperties:
    def test_jsonl_round_trip_identical_records(self, tmp_path):
        from repro.api import ScenarioGrid

        rng = random.Random(20260729)
        scenarios = _random_fluid_scenarios(rng, 6)
        path = tmp_path / "roundtrip.jsonl"
        run_grid(ScenarioGrid(scenarios), sink=JsonlSink(str(path)))
        expected = {
            s.key: summary_record(s.key, run_scenario(s)) for s in scenarios
        }
        for record in read_jsonl(str(path)):
            assert record == expected[record["scenario"]]


class TestObserverInvariantProperties:
    """Streaming observer totals equal the post-hoc accounting."""

    def test_fluid_backend_randomized(self):
        rng = random.Random(7)
        for scenario in _random_fluid_scenarios(rng, 5):
            summary = run_scenario(scenario)
            assert summary.carbon.total_kg == summary.carbon_kg()
            assert summary.cost.total_usd == summary.cost_usd()
            assert summary.cost.gpu_hours == pytest.approx(summary.gpu_hours, rel=1e-12)

    def test_event_backend_randomized(self, profile):
        from repro.experiments.runner import ExperimentConfig
        from repro.workload.synthetic import make_one_hour_trace

        rng = random.Random(11)
        config = ExperimentConfig(profile=profile, max_servers=12)
        for _ in range(2):
            trace = make_one_hour_trace(
                "conversation",
                seed=rng.randrange(1, 100),
                rate_scale=rng.choice((3.0, 5.0)),
            ).slice(0.0, rng.choice((90.0, 150.0)))
            summary = run_scenario(
                Scenario(
                    policy=rng.choice(("SinglePool", "DynamoLLM")),
                    trace=trace,
                    base_config=config,
                ),
                lean=True,
            )
            assert summary.carbon.total_kg == summary.carbon_kg()
            assert summary.cost.total_usd == summary.cost_usd()
            weighted = sum(
                summary.pool_slo_attainment[pool] * count
                for pool, count in summary.pool_request_counts.items()
            )
            total = sum(summary.pool_request_counts.values())
            if total:
                assert weighted / total == pytest.approx(summary.slo_attainment())


class TestResampleMassConservation:
    """resample_trace's error diffusion conserves burst mass."""

    @staticmethod
    def _random_trace(rng: random.Random, bin_seconds: float, n_bins: int) -> Trace:
        requests = []
        for index in range(n_bins):
            # Bursty: some bins empty, some dense.  Arrivals sit on a
            # 40 ms grid away from bin edges, so distinct requests are
            # >= 40 ms apart and replica jitter (1 ms per extra copy)
            # can neither collide copies of different requests nor push
            # one across a bin boundary.
            count = rng.choice((0, 1, 2, 5, 12, 30))
            slots = rng.sample(range(1, int(bin_seconds / 0.04) - 1), count)
            for slot in slots:
                requests.append(
                    Request(
                        arrival_time=index * bin_seconds + slot * 0.04,
                        input_tokens=rng.randrange(8, 2000),
                        output_tokens=rng.randrange(2, 800),
                        service="conversation",
                    )
                )
        return Trace(name="prop", requests=requests)

    def test_prefix_counts_follow_error_diffusion(self):
        rng = random.Random(99)
        for factor in (0.3, 0.7, 1.5, 2.25, 3.0):
            trace = self._random_trace(rng, 10.0, 30)
            resampled = resample_trace(trace, factor)
            # Copies of request at time t land in [t, t + 20 ms) — the
            # grid spacing guarantees unambiguous recovery.
            copies = {round(r.arrival_time, 4): 0 for r in trace.requests}
            for r in resampled.requests:
                origin = round(0.04 * math.floor((r.arrival_time + 1e-9) / 0.04), 4)
                copies[origin] += 1
            cumulative = 0
            for k, request in enumerate(trace.requests, start=1):
                cumulative += copies[round(request.arrival_time, 4)]
                # carry stays in [0, 1): factor*k - 1 < cumulative <= factor*k
                assert factor * k - 1 - 1e-6 < cumulative <= factor * k + 1e-6

    def test_per_bin_mass_scales_uniformly(self):
        """Every bin's request count scales by the factor within one unit."""
        rng = random.Random(123)
        bin_seconds = 10.0
        for factor in (0.4, 1.8, 2.5):
            trace = self._random_trace(rng, bin_seconds, 40)
            resampled = resample_trace(trace, factor)

            def bin_counts(t):
                counts = {}
                for r in t.requests:
                    counts[int(r.arrival_time // bin_seconds)] = (
                        counts.get(int(r.arrival_time // bin_seconds), 0) + 1
                    )
                return counts

            original = bin_counts(trace)
            scaled = bin_counts(resampled)
            for index, count in original.items():
                assert abs(scaled.get(index, 0) - factor * count) <= 1.0 + 1e-6
            # No mass appears in bins that had none.
            assert set(scaled) <= set(original)

    def test_total_token_mass_conserved(self):
        rng = random.Random(5)
        trace = self._random_trace(rng, 10.0, 50)
        for factor in (0.5, 2.0, 3.5):
            resampled = resample_trace(trace, factor)
            # Request count is conserved exactly (carry bounded by 1).
            assert abs(len(resampled.requests) - factor * len(trace.requests)) < 1.0 + 1e-6
            # Token mass scales approximately: copies are whole requests,
            # so per-request rounding (±1 copy, weighted by that
            # request's tokens) leaves a small relative error.
            original_mass = sum(r.total_tokens for r in trace.requests)
            scaled_mass = sum(r.total_tokens for r in resampled.requests)
            assert scaled_mass == pytest.approx(factor * original_mass, rel=0.05)


class TestInstanceQueueCounterProperties:
    """Randomised oracle checks for the incrementally maintained
    waiting-queue minimum and running-batch KV counters."""

    @staticmethod
    def _oracle_oldest_wait(instance, now):
        if not instance.waiting:
            return 0.0
        return now - min(state.enqueue_time for state in instance.waiting)

    def test_oldest_wait_matches_oracle_across_queue_mutations(self):
        from repro.cluster.instance import InferenceInstance
        from repro.workload.classification import classify_request
        from repro.workload.request import Request
        from repro.workload.slo import DEFAULT_SLO_POLICY

        rng = random.Random(20260807)
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=8)
        donor = InferenceInstance(LLAMA2_70B, tensor_parallelism=8)
        slo_lookup = lambda request: DEFAULT_SLO_POLICY.slo_for(
            classify_request(request)
        ).ttft_s
        now = 0.0
        for _ in range(400):
            now += rng.uniform(0.0, 2.0)
            op = rng.randrange(6)
            if op in (0, 1):  # enqueue (possibly out of order arrivals)
                request = Request(
                    arrival_time=max(0.0, now - rng.uniform(0.0, 5.0)),
                    input_tokens=rng.randrange(1, 4000),
                    output_tokens=rng.randrange(1, 800),
                )
                instance.enqueue(request, now - rng.uniform(0.0, 3.0))
            elif op == 2 and instance.waiting:
                stolen = instance.steal_waiting(rng.randrange(1, 4))
                donor.adopt(stolen, now)
            elif op == 3 and donor.waiting:
                instance.adopt(donor.steal_waiting(rng.randrange(1, 4)), now)
            elif op == 4:
                instance.reorder_queue_by_deadline(slo_lookup)
            elif op == 5:
                instance.squash_stale(now, wait_threshold_s=rng.uniform(1.0, 10.0))
            assert instance.oldest_wait_s(now) == pytest.approx(
                self._oracle_oldest_wait(instance, now), abs=0.0
            )
        # Both instances must agree with the oracle at the end.
        assert donor.oldest_wait_s(now) == pytest.approx(
            self._oracle_oldest_wait(donor, now), abs=0.0
        )

    def test_kv_counters_match_oracle_during_run(self, tiny_trace, experiment_config):
        from repro.api.engine import SimulationEngine
        from repro.policies.base import get_policy_spec

        engine = SimulationEngine(
            get_policy_spec("DynamoLLM"), tiny_trace, experiment_config, lean=True
        )
        checked = 0
        while engine.step():
            for instance in engine.cluster.instances.values():
                expected_kv = sum(s.context_tokens for s in instance.running)
                expected_reserved = sum(
                    s.request.input_tokens + s.generated_tokens
                    for s in instance.running
                )
                assert instance.kv_tokens_used == expected_kv
                assert instance._reserved_tokens == expected_reserved
                checked += 1
        assert checked > 0
