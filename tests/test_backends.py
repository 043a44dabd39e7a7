"""Cross-backend equivalence suite: fluid-vs-reference, fluid-vs-event.

Three contracts are pinned here:

1. **Exact fluid equivalence** — ``Scenario(backend="fluid")`` (through
   ``run_scenario`` *and* the prepared/cached ``run_grid`` path) must
   reproduce :func:`_reference_run`, a plain sum of
   ``FluidRunner.steps``, byte-for-byte: energy, per-bin energy,
   GPU-hours, carbon, time-weighted server average and reconfiguration
   count.  The engine integrates the same loop, so any drift is a real
   regression.
2. **Streaming == post-hoc** — the default observers' streaming totals
   (carbon / cost / SLO) must equal the post-hoc summary accounting on
   *both* backends.
3. **Fluid-vs-event tolerance** — on a short request-level trace the
   coarse fluid backend must land within a documented factor of the
   event engine's energy/GPU-hours (it has no drain phase, no queueing
   and no per-request dynamics, so this is an order-of-agreement check,
   not equality; see ``EVENT_FLUID_RTOL``).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.api import (
    BinnedTrace,
    FluidEngine,
    InMemorySink,
    JsonlSink,
    Scenario,
    TraceSpec,
    read_jsonl,
    run_grid,
    run_policies,
    run_scenario,
    sink_for_path,
    sweep,
)
from repro.api.fluid_engine import time_weighted_mean
from repro.experiments.fluid import FluidRunner
from repro.experiments.runner import ExperimentConfig
from repro.llm.catalog import LLAMA2_70B
from repro.metrics.carbon import CarbonIntensityTrace, carbon_emissions_kg
from repro.perf.profiler import Profiler
from repro.policies import ALL_POLICIES, DYNAMO_LLM, SINGLE_POOL
from repro.policies.base import SINGLE_POOL_SCHEME, get_policy_spec
from repro.workload.classification import POOL_SCHEMES, RequestType
from repro.workload.synthetic import make_week_trace
from repro.workload.traces import TraceBin, bin_trace

#: Documented fluid-vs-event agreement on short traces: the two
#: simulators agree on *scale* (same profile, same loads) but not on
#: request-level effects — drain energy, queueing, EMA-lagged scaling.
#: Measured on the 5-minute conversation slice: energy within ~10%,
#: GPU-hours within ~30% (the fluid runner releases capacity instantly).
EVENT_FLUID_ENERGY_RTOL = 0.25
EVENT_FLUID_GPU_HOURS_RTOL = 0.45

POLICY_NAMES = ("SinglePool", "ScaleInst", "DynamoLLM")


def _reference_run(spec, bins, **budgets):
    """Sum ``FluidRunner.steps`` in bin order: the engine's reference.

    Energy, GPU-seconds, the per-bin energy and server timelines,
    reconfigurations and the end time, accumulated with the arithmetic
    the fluid engine and its observers use.
    """
    energy_wh = 0.0
    gpu_seconds = 0.0
    energy_timeline = []
    servers_timeline = []
    reconfigurations = 0
    for stats in FluidRunner().steps(spec, bins, **budgets):
        energy_wh += stats.energy_wh
        gpu_seconds += stats.online_gpus * stats.dt
        energy_timeline.append((stats.time, stats.energy_wh))
        servers_timeline.append((stats.time, stats.online_servers))
        reconfigurations += len(stats.reconfigured_pools)
    duration_s = bins[-1].start_time + bins[-1].duration if bins else 0.0
    return SimpleNamespace(
        energy_wh=energy_wh,
        gpu_hours=gpu_seconds / 3600.0,
        energy_timeline_wh=energy_timeline,
        servers_timeline=servers_timeline,
        reconfigurations=reconfigurations,
        duration_s=duration_s,
        average_servers=time_weighted_mean(servers_timeline, duration_s),
        carbon_kg=carbon_emissions_kg(energy_timeline, CarbonIntensityTrace()),
    )


@pytest.fixture(scope="module")
def day_bins():
    """One synthetic day in 30-minute bins (48 bins — fast but varied)."""
    bins = make_week_trace("conversation", seed=7, rate_scale=40.0, bin_seconds=1800.0)
    return bins[:48]


@pytest.fixture(scope="module")
def day_trace(day_bins):
    return BinnedTrace(name="conversation-day", bins=day_bins)


# ----------------------------------------------------------------------
# 1. Exact equivalence with the reference sum of FluidRunner.steps
# ----------------------------------------------------------------------
class TestFluidRunnerEquivalence:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_run_scenario_matches_fluid_runner_exactly(self, policy, day_bins, day_trace):
        direct = _reference_run(get_policy_spec(policy), day_bins)
        summary = run_scenario(Scenario(policy=policy, trace=day_trace, backend="fluid"))

        assert summary.energy.total_wh == direct.energy_wh
        assert summary.energy_kwh == direct.energy_wh / 1000.0
        assert summary.energy.timeline == direct.energy_timeline_wh
        assert summary.gpu_hours == direct.gpu_hours
        assert summary.average_servers == direct.average_servers
        assert summary.reconfigurations == direct.reconfigurations
        assert summary.carbon is not None
        assert summary.carbon.total_kg == direct.carbon_kg
        assert summary.duration_s == direct.duration_s

    def test_grid_path_matches_fluid_runner_exactly(self, day_bins, day_trace):
        """The cached run_grid path (shared bins + precomputed budgets)."""
        grid = sweep(policies=POLICY_NAMES, traces=(day_trace,), backends=("fluid",))
        summaries = run_grid(grid, workers=2)
        for policy in POLICY_NAMES:
            direct = _reference_run(get_policy_spec(policy), day_bins)
            summary = summaries[f"{policy}/conversation-day/fluid"]
            assert summary.energy.total_wh == direct.energy_wh
            assert summary.gpu_hours == direct.gpu_hours
            assert summary.average_servers == direct.average_servers
            assert summary.reconfigurations == direct.reconfigurations
            assert summary.carbon.total_kg == direct.carbon_kg

    def test_pinned_budget_for_an_unknown_pool_is_rejected(self, day_bins):
        # A budget the scheme cannot place must not be dropped silently.
        with pytest.raises(KeyError, match="unknown pool"):
            next(FluidRunner().steps(DYNAMO_LLM, day_bins, static_budgets={"no-such-pool": 2}))

    def test_run_policies_fluid_backend(self, day_trace, day_bins):
        summaries = run_policies(day_trace, ALL_POLICIES, backend="fluid")
        assert list(summaries) == [spec.name for spec in ALL_POLICIES]
        for spec in ALL_POLICIES:
            direct = _reference_run(spec, day_bins)
            assert summaries[spec.name].energy.total_wh == direct.energy_wh

    def test_stepped_interface(self, day_bins):
        """step() advances one bin and reports completion correctly."""
        engine = FluidEngine(SINGLE_POOL, day_bins, ExperimentConfig())
        steps = 0
        while engine.step():
            steps += 1
        assert steps == len(day_bins)
        assert engine.step() is False  # idempotent after completion
        assert engine.now == day_bins[-1].start_time + day_bins[-1].duration


#: Every pooling scheme a fluid run can resolve to, multi-member pools included.
FLUID_SCHEMES = (*POOL_SCHEMES.values(), SINGLE_POOL_SCHEME)


class TestFluidPoolTables:
    """The per-runner pool tables equal what the scheme and profile say."""

    @pytest.mark.parametrize("scheme", FLUID_SCHEMES, ids=lambda s: s.name)
    def test_pool_constants(self, scheme, profile):
        runner = FluidRunner(scheme=scheme, profile=profile)
        assert list(runner._pools) == scheme.pool_names()
        for pool, constants in runner._pools.items():
            governing = scheme.heaviest_member(pool).name
            max_frequency = max(profile.frequencies(governing, 8))
            assert constants.governing == governing
            assert constants.max_frequency == max_frequency
            assert constants.capacity == max(
                1.0, profile.max_load(governing, 8, max_frequency)
            )

    @pytest.mark.parametrize("scheme", FLUID_SCHEMES, ids=lambda s: s.name)
    def test_pool_loads_match_per_type_sum(self, scheme, profile):
        order = ("LM", "SS", "ML", "SL", "MM", "LS", "SM", "LL", "MS")
        tokens_by_type = {name: 1000 + 37 * i for i, name in enumerate(order)}
        trace_bin = TraceBin(
            start_time=0.0, duration=300.0, request_count=90,
            input_tokens=4000, output_tokens=sum(tokens_by_type.values()) - 4000,
            count_by_type={name: 10 for name in order}, tokens_by_type=tokens_by_type,
        )
        prompt_share = trace_bin.input_tokens / trace_bin.total_tokens
        expected = {}
        for name, tokens in tokens_by_type.items():
            pool = scheme.pool_of(RequestType.from_name(name))
            expected[pool] = expected.get(pool, 0.0) + tokens * prompt_share / trace_bin.duration
        loads = FluidRunner(scheme=scheme, profile=profile)._pool_loads(trace_bin)
        assert loads == expected
        assert list(loads) == list(expected)

    @pytest.mark.parametrize("scheme", FLUID_SCHEMES, ids=lambda s: s.name)
    def test_unknown_type_name_raises(self, scheme, profile):
        trace_bin = TraceBin(
            start_time=0.0, duration=300.0, request_count=1,
            input_tokens=100, output_tokens=50, tokens_by_type={"XX": 150},
        )
        with pytest.raises(KeyError):
            FluidRunner(scheme=scheme, profile=profile)._pool_loads(trace_bin)

    def test_profile_without_tp8_rows_fails_the_run(self, day_bins):
        # Static sizing falls back to a unit node capacity; the per-bin
        # power model has no TP8 frequency to start from and says so.
        partial = Profiler(model=LLAMA2_70B).build_profile(tensor_parallelisms=(2, 4))
        runner = FluidRunner(profile=partial)
        assert all(constants.capacity == 1.0 for constants in runner._pools.values())
        assert runner.static_budgets(day_bins)
        with pytest.raises(ValueError, match="TP8"):
            next(runner.steps(SINGLE_POOL, day_bins))


# ----------------------------------------------------------------------
# 2. Streaming observer totals == post-hoc accounting, both backends
# ----------------------------------------------------------------------
class TestStreamingTotals:
    def _check(self, summary):
        assert summary.carbon is not None and summary.cost is not None
        assert summary.carbon.total_kg == summary.carbon_kg()
        assert summary.cost.total_usd == summary.cost_usd()
        assert summary.cost.gpu_hours == pytest.approx(summary.gpu_hours, rel=1e-12)

    def test_event_backend(self, tiny_trace, experiment_config):
        summary = run_scenario(
            Scenario(policy="DynamoLLM", trace=tiny_trace, base_config=experiment_config)
        )
        self._check(summary)
        # Per-pool attainment is count-weighted-consistent with the global rate.
        total = sum(summary.pool_request_counts.values())
        if total:
            weighted = sum(
                summary.pool_slo_attainment[pool] * count
                for pool, count in summary.pool_request_counts.items()
            )
            assert weighted / total == pytest.approx(summary.slo_attainment())

    def test_fluid_backend(self, day_trace):
        summary = run_scenario(
            Scenario(policy="DynamoLLM", trace=day_trace, backend="fluid")
        )
        self._check(summary)
        # No request-level telemetry on the fluid backend.
        assert summary.latency.count == 0
        assert summary.slo_attainment() == 1.0


# ----------------------------------------------------------------------
# 3. Fluid-vs-event agreement on short request-level traces
# ----------------------------------------------------------------------
class TestEventFluidTolerance:
    @pytest.fixture(scope="class")
    def pair(self, short_trace, profile):
        config = ExperimentConfig(profile=profile, max_servers=16)
        event = run_scenario(
            Scenario(policy="DynamoLLM", trace=short_trace, base_config=config),
            lean=True,
        )
        fluid = run_scenario(
            Scenario(
                policy="DynamoLLM",
                trace=short_trace,
                backend="fluid",
                fluid_bin_s=60.0,
                base_config=config,
            )
        )
        return event, fluid

    def test_energy_within_documented_tolerance(self, pair):
        event, fluid = pair
        assert fluid.energy_kwh > 0 and event.energy_kwh > 0
        assert fluid.energy_kwh == pytest.approx(
            event.energy_kwh, rel=EVENT_FLUID_ENERGY_RTOL
        )

    def test_gpu_hours_within_documented_tolerance(self, pair):
        event, fluid = pair
        assert fluid.gpu_hours > 0 and event.gpu_hours > 0
        assert fluid.gpu_hours == pytest.approx(
            event.gpu_hours, rel=EVENT_FLUID_GPU_HOURS_RTOL
        )

    def test_policy_ordering_agrees(self, short_trace, profile):
        """Both backends agree DynamoLLM saves energy vs the static baseline."""
        config = ExperimentConfig(profile=profile, max_servers=16)
        event = run_policies(short_trace, (SINGLE_POOL, DYNAMO_LLM), config=config, lean=True)
        fluid = run_policies(
            short_trace, (SINGLE_POOL, DYNAMO_LLM), config=config, backend="fluid"
        )
        assert event["DynamoLLM"].energy_kwh < event["SinglePool"].energy_kwh
        assert fluid["DynamoLLM"].energy_kwh < fluid["SinglePool"].energy_kwh


# ----------------------------------------------------------------------
# Backend selection plumbing
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Scenario(backend="quantum")

    def test_week_spec_needs_fluid(self):
        scenario = Scenario(trace=TraceSpec(kind="week"))
        with pytest.raises(ValueError, match="binned form"):
            run_scenario(scenario)

    def test_binned_trace_needs_fluid(self, day_trace):
        with pytest.raises(ValueError, match="fluid"):
            run_scenario(Scenario(trace=day_trace))

    def test_fluid_key_suffix(self, day_trace):
        assert Scenario(trace=day_trace, backend="fluid").key.endswith("/fluid")
        assert "fluid" not in Scenario().key

    def test_week_spec_builds_bins(self):
        spec = TraceSpec(kind="week", duration_s=7200.0)
        bins = spec.build_bins(1800.0)
        assert len(bins) == 4
        assert all(b.duration == 1800.0 for b in bins)

    def test_week_duration_clips_straddling_bin(self):
        """A cut inside a bin truncates it — rate preserved, horizon exact."""
        full = TraceSpec(kind="week").build_bins(1800.0)
        clipped = TraceSpec(kind="week", duration_s=2700.0).build_bins(1800.0)
        assert len(clipped) == 2
        last = clipped[-1]
        assert last.duration == 900.0
        assert last.start_time + last.duration == 2700.0
        # The offered rate of the truncated bin matches the full bin.
        if full[1].tokens_per_second > 0:
            assert last.tokens_per_second == pytest.approx(
                full[1].tokens_per_second, rel=0.01
            )
        summary = run_scenario(
            Scenario(
                trace=TraceSpec(kind="week", duration_s=2700.0),
                backend="fluid",
                fluid_bin_s=1800.0,
            )
        )
        assert summary.duration_s == 2700.0

    def test_fluid_bin_override_reaches_config(self):
        scenario = Scenario(backend="fluid", fluid_bin_s=120.0)
        assert scenario.resolved_config().fluid_bin_s == 120.0
        # Differing bin widths must stay distinguishable in grids/sinks.
        assert "bin120" in scenario.key
        assert scenario.key != scenario.with_(fluid_bin_s=600.0).key

    def test_run_scenario_accepts_raw_bins(self, day_bins):
        """An explicit TraceBin sequence wins over the scenario's spec."""
        scenario = Scenario(trace=TraceSpec(kind="week"), backend="fluid")
        summary = run_scenario(scenario, trace=day_bins)
        direct = _reference_run(get_policy_spec(scenario.policy_name), day_bins)
        assert summary.energy.total_wh == direct.energy_wh
        assert summary.energy.timeline == direct.energy_timeline_wh

    def test_static_servers_rejected_on_fluid(self, day_trace):
        """Silently ignoring a pinned event budget would corrupt comparisons."""
        with pytest.raises(ValueError, match="event-backend dimensions"):
            Scenario(trace=day_trace, backend="fluid", static_servers=4)
        with pytest.raises(ValueError, match="event-backend dimensions"):
            Scenario(trace=day_trace, backend="fluid", max_servers=8)

    @pytest.mark.parametrize(
        "field", ("slo_scale", "predictor_accuracy", "time_step_s")
    )
    def test_request_level_dimensions_rejected_on_fluid(self, day_trace, field):
        """Dimensions the fluid simulator cannot honour fail fast instead of
        producing distinct-keyed scenarios with identical results."""
        with pytest.raises(ValueError, match="event-backend dimensions"):
            Scenario(trace=day_trace, backend="fluid", **{field: 2.0})

    def test_fluid_bin_rejected_on_event(self):
        with pytest.raises(ValueError, match="fluid_bin_s"):
            Scenario(fluid_bin_s=60.0)

    def test_base_config_static_servers_rejected_at_run_time(self, day_trace):
        """A pinned budget arriving via base_config is caught by the engine."""
        scenario = Scenario(
            trace=day_trace, backend="fluid",
            base_config=ExperimentConfig(static_servers=4),
        )
        with pytest.raises(ValueError, match="static_servers"):
            run_scenario(scenario)

    def test_mixed_backend_grid_shares_one_built_trace(self, monkeypatch):
        """Event + fluid members over one TraceSpec build the trace once."""
        import repro.api.scenario as scenario_module

        spec = TraceSpec(rate_scale=3.0, duration_s=120.0)
        builds = []
        original = scenario_module.TraceSpec.build

        def counting_build(self):
            builds.append(self)
            return original(self)

        monkeypatch.setattr(scenario_module.TraceSpec, "build", counting_build)
        grid = sweep(policies=("DynamoLLM",), traces=(spec,),
                     backends=("event", "fluid"))
        summaries = run_grid(grid, lean=True)
        assert len(summaries) == 2
        assert len(builds) == 1


# ----------------------------------------------------------------------
# Satellite regression: time-weighted average_servers with uneven bins
# ----------------------------------------------------------------------
class TestTimeWeightedAverageServers:
    def test_uneven_timeline_is_duration_weighted(self):
        # 10 servers for 100s, then 2 servers for 900s: the plain sample
        # mean (6.0) would overweight the short burst; time-weighted is
        # (10*100 + 2*900) / 1000 = 2.8.
        assert time_weighted_mean([(0.0, 10.0), (100.0, 2.0)], 1000.0) == pytest.approx(2.8)

    def test_uniform_timeline_matches_plain_mean(self):
        timeline = [(i * 300.0, float(v)) for i, v in enumerate((4, 6, 8, 2))]
        assert time_weighted_mean(timeline, 1200.0) == pytest.approx(5.0)

    def test_empty_timeline(self):
        assert time_weighted_mean([], 0.0) == 0.0

    def test_run_over_uneven_bins(self):
        """End-to-end: a clipped trace tail (short final bin) is weighted less."""
        bins = make_week_trace("conversation", seed=7, rate_scale=40.0, bin_seconds=1800.0)[:8]
        short_tail = TraceBin(
            start_time=bins[-1].start_time + bins[-1].duration,
            duration=60.0,
            request_count=0,
            input_tokens=0,
            output_tokens=0,
        )
        uneven = list(bins) + [short_tail]
        scenario = Scenario(policy=DYNAMO_LLM, trace=TraceSpec(kind="week"), backend="fluid")
        summary = run_scenario(scenario, trace=uneven)
        timeline = _reference_run(DYNAMO_LLM, uneven).servers_timeline
        spans = [
            (timeline[i + 1][0] if i + 1 < len(timeline) else summary.duration_s) - t
            for i, (t, _) in enumerate(timeline)
        ]
        expected = sum(v * s for (_, v), s in zip(timeline, spans)) / sum(spans)
        assert summary.average_servers == pytest.approx(expected)
        plain_mean = sum(v for _, v in timeline) / len(timeline)
        assert not math.isclose(summary.average_servers, plain_mean)


# ----------------------------------------------------------------------
# Result sinks: streamed sweep output
# ----------------------------------------------------------------------
class TestSinks:
    def test_jsonl_streams_one_line_per_scenario(self, day_trace, tmp_path):
        grid = sweep(policies=("SinglePool", "DynamoLLM"), traces=(day_trace,),
                     backends=("fluid",))
        path = tmp_path / "results.jsonl"
        sink = run_grid(grid, sink=JsonlSink(str(path)))
        assert sink.count == len(grid)
        records = read_jsonl(str(path))
        assert [r["scenario"] for r in records] == list(grid.keys())
        for record in records:
            assert record["energy_kwh"] > 0
            assert record["policy"] in ("SinglePool", "DynamoLLM")

    def test_parallel_streaming_covers_every_scenario(self, day_trace, tmp_path):
        grid = sweep(policies=("SinglePool", "ScaleInst", "DynamoLLM"),
                     traces=(day_trace,), backends=("fluid",))
        path = tmp_path / "results.jsonl"
        run_grid(grid, workers=3, sink=JsonlSink(str(path)))
        records = read_jsonl(str(path))
        # Completion order may differ; coverage and payloads must not.
        assert sorted(r["scenario"] for r in records) == sorted(grid.keys())

    def test_streamed_records_match_accumulated_summaries(self, day_trace, tmp_path):
        from repro.api import summary_record

        grid = sweep(policies=("SinglePool", "DynamoLLM"), traces=(day_trace,),
                     backends=("fluid",))
        path = tmp_path / "results.jsonl"
        run_grid(grid, sink=JsonlSink(str(path)))
        summaries = run_grid(grid)
        by_key = {r["scenario"]: r for r in read_jsonl(str(path))}
        for key, summary in summaries.items():
            assert by_key[key] == summary_record(key, summary)

    def test_in_memory_sink_matches_run_grid(self, day_trace):
        grid = sweep(policies=("SinglePool",), traces=(day_trace,), backends=("fluid",))
        sink = run_grid(grid, sink=InMemorySink())
        plain = run_grid(grid)
        assert set(sink.results) == set(plain)
        key = next(iter(plain))
        assert sink.results[key].energy_kwh == plain[key].energy_kwh

    def test_sink_closed_on_failure(self, tmp_path):
        path = tmp_path / "fail.jsonl"
        sink = JsonlSink(str(path))
        grid = sweep(policies=("NoSuchPolicy",))
        with pytest.raises(KeyError):
            run_grid(grid, sink=sink)
        assert sink._handle is None  # closed despite the error

    def test_sink_reuse_appends_instead_of_truncating(self, day_trace, tmp_path):
        """A sink reused across two sweeps keeps both sweeps' records."""
        path = tmp_path / "reuse.jsonl"
        sink = JsonlSink(str(path))
        first = sweep(policies=("SinglePool",), traces=(day_trace,), backends=("fluid",))
        second = sweep(policies=("DynamoLLM",), traces=(day_trace,), backends=("fluid",))
        run_grid(first, sink=sink)
        run_grid(second, sink=sink)
        records = read_jsonl(str(path))
        assert len(records) == sink.count == 2
        assert [r["policy"] for r in records] == ["SinglePool", "DynamoLLM"]

    def test_sink_for_path(self, tmp_path):
        assert isinstance(sink_for_path("a.jsonl"), JsonlSink)
        for path in ("a.csv", "results.parquet"):
            with pytest.raises(ValueError, match="extension"):
                sink_for_path(path)

    def test_event_backend_streams_too(self, tiny_trace, experiment_config, tmp_path):
        grid = sweep(policies=("DynamoLLM",), traces=(tiny_trace,),
                     base_config=experiment_config)
        path = tmp_path / "event.jsonl"
        run_grid(grid, lean=True, sink=JsonlSink(str(path)))
        (record,) = read_jsonl(str(path))
        assert record["requests"] > 0
        assert record["energy_kwh"] > 0


# ----------------------------------------------------------------------
# Vectorized event-engine hot path: every fast path must be a pure
# optimisation (field-identical summaries), and the engine must conserve
# requests over long non-dyadic horizons.
# ----------------------------------------------------------------------
class TestEngineHotPath:
    @staticmethod
    def _fingerprint(summary):
        lat = summary.latency
        return (
            summary.policy,
            summary.trace,
            repr(summary.duration_s),
            repr(summary.energy.total_wh),
            tuple(sorted(summary.energy.by_type_wh.items())),
            repr(summary.gpu_hours),
            summary.routed_requests,
            summary.squashed_requests,
            summary.reconfigurations,
            tuple(lat.ttft_values().tolist()),
            tuple(lat.tbt_values().tolist()),
            repr(lat.slo_attainment()),
            lat.count,
            lat.squashed_count,
        )

    @staticmethod
    def _scalar_admission_steps(requests, clock):
        """Reference rule: route each request at the first step k with
        ``arrival < clock.time_of_step(k + 1)`` (requests sorted)."""
        steps, step = [], 0
        for request in requests:
            while not request.arrival_time < clock.time_of_step(step + 1):
                step += 1
            steps.append(step)
        return steps

    @pytest.mark.parametrize("policy", ("DynamoLLM", "SinglePool"))
    def test_vectorized_matches_scalar_walk(self, policy, short_trace, experiment_config):
        import dataclasses

        from repro.api.engine import SimulationEngine
        from repro.api.observers import Observer
        from repro.sim.clock import SimClock
        from repro.workload.request import Request
        from repro.workload.traces import Trace

        class RouteLog(Observer):
            def __init__(self):
                self.routes = []

            def on_request_routed(self, event):
                self.routes.append((event.time, event.request.request_id))

        for time_step_s in (0.1, 0.3, 1.0):
            clock = SimClock(time_step=time_step_s)
            # Arrivals exactly on a step boundary belong to that step.
            on_boundary = [
                Request(arrival_time=clock.time_of_step(k), input_tokens=100, output_tokens=10)
                for k in (1, 7, 10, 33)
            ]
            trace = Trace(name="boundaries", requests=short_trace.requests + on_boundary)
            config = dataclasses.replace(experiment_config, time_step_s=time_step_s)
            log = RouteLog()
            engine = SimulationEngine(
                get_policy_spec(policy), trace, config, observers=[log], lean=True
            )
            while len(log.routes) < len(trace) and engine.step():
                pass
            steps = self._scalar_admission_steps(trace.requests, clock)
            assert log.routes == [
                (clock.time_of_step(step), request.request_id)
                for step, request in zip(steps, trace.requests)
            ], time_step_s

    def test_unsorted_arrivals_disable_the_vectorized_slice(
        self, short_trace, experiment_config
    ):
        """The admission slice needs sorted arrivals; anything else is
        rejected, naming the trace."""
        import copy
        import re

        from repro.api.engine import SimulationEngine

        shuffled = copy.copy(short_trace)
        shuffled.requests = list(reversed(short_trace.requests))
        name = re.escape(repr(short_trace.name))
        with pytest.raises(ValueError, match=f"trace {name}: .*not sorted"):
            SimulationEngine(
                get_policy_spec("DynamoLLM"), shuffled, experiment_config, lean=True
            )

    def test_lean_fast_path_matches_full_observers(self, short_trace, experiment_config):
        from repro.api.engine import SimulationEngine

        spec = get_policy_spec("DynamoLLM")
        lean = SimulationEngine(spec, short_trace, experiment_config, lean=True).run()
        full = SimulationEngine(spec, short_trace, experiment_config, lean=False).run()
        assert self._fingerprint(lean) == self._fingerprint(full)

    def test_step_history_is_opt_in(self, tiny_trace, experiment_config):
        from repro.api.engine import SimulationEngine

        spec = get_policy_spec("DynamoLLM")
        lean = SimulationEngine(spec, tiny_trace, experiment_config, lean=True)
        lean.run()
        assert lean.cluster.step_history == []
        assert all(
            i.step_history == [] for i in lean.cluster.instances.values()
        )
        full = SimulationEngine(spec, tiny_trace, experiment_config, lean=False)
        full.run()
        assert full.cluster.step_history
        assert any(i.step_history for i in full.cluster.instances.values())

    @pytest.mark.parametrize("time_step_s", (0.1, 0.3, 1.0))
    def test_long_horizon_request_conservation(self, profile, tiny_trace, time_step_s):
        """Thousands of k*dt boundaries must neither drop nor double-route
        arrivals, and every routed request must produce exactly one outcome."""
        from repro.api.engine import SimulationEngine

        config = ExperimentConfig(
            profile=profile, max_servers=16, time_step_s=time_step_s
        )
        engine = SimulationEngine(
            get_policy_spec("DynamoLLM"), tiny_trace, config, lean=True
        )
        summary = engine.run()
        assert summary.routed_requests == len(tiny_trace.requests)
        assert summary.latency.count == summary.routed_requests

    def test_shared_trace_round_trip(self, tiny_trace):
        from repro.api.executor import _encode_trace, _materialise_shared

        handle, segment = _encode_trace(tiny_trace)
        try:
            rebuilt = _materialise_shared(handle)
        finally:
            segment.close()
            segment.unlink()
        assert rebuilt.name == tiny_trace.name
        assert len(rebuilt.requests) == len(tiny_trace.requests)
        for original, copy_ in zip(tiny_trace.requests, rebuilt.requests):
            assert original.arrival_time == copy_.arrival_time
            assert original.input_tokens == copy_.input_tokens
            assert original.output_tokens == copy_.output_tokens
            assert original.request_id == copy_.request_id
            assert original.service == copy_.service
            assert original.slo_scale == copy_.slo_scale

    def test_process_pool_matches_serial(self, tiny_trace, experiment_config):
        from repro.api import runs

        scenarios = [
            Scenario(policy="DynamoLLM", trace=tiny_trace, base_config=experiment_config),
            Scenario(policy="SinglePool", trace=tiny_trace, base_config=experiment_config),
        ]
        serial = runs(scenarios, lean=True)
        pooled = runs(scenarios, workers=2, lean=True)
        assert [self._fingerprint(s) for s in serial] == [
            self._fingerprint(s) for s in pooled
        ]
