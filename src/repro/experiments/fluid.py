"""Fluid (binned) simulator for day- and week-long traces.

The paper's large-scale results (Figures 14-16, the cost analysis) come
from a discrete-time simulator driven by production traces rather than
from the live cluster.  The fluid runner plays that role here: it walks
a binned trace (e.g. 5-minute bins over a week), applies each policy's
decision rules per bin using the energy-performance profile, and
reports each bin's power, energy and GPU allocation — without tracking
individual requests.

The per-bin loop lives in :meth:`FluidRunner.steps`, which yields one
:class:`FluidStepStats` per bin.  The
:class:`~repro.api.fluid_engine.FluidEngine` adapter is its only
integrator: it replays the generator behind the Scenario API's
stepped/observed interface (``Scenario(backend="fluid")``) and sums
energy, GPU-hours and reconfigurations into a
:class:`~repro.metrics.summary.RunSummary`.

What depends only on the scheme and the profile is resolved once per
runner: the base-bucket -> pool map and each pool's governing bucket,
TP8 node capacity and TP8 maximum frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.optimizer import plan_sharding
from repro.llm.catalog import ModelSpec, LLAMA2_70B
from repro.llm.gpu import ServerSpec, DGX_H100
from repro.perf.profile import EnergyPerformanceProfile
from repro.perf.profiler import get_default_profile
from repro.perf.power_model import PowerModel
from repro.policies.base import PolicySpec
from repro.workload.classification import ClassificationScheme, DEFAULT_SCHEME
from repro.workload.traces import TraceBin


@dataclass(frozen=True)
class FluidStepStats:
    """One bin's outcome, shaped like the cluster's per-step ``StepStats``.

    The fields observers consume (``energy_wh``, ``power_watts``,
    ``online_gpus``, ``online_servers``, ``outcomes``, ...) carry the
    same meaning as on :class:`repro.cluster.cluster.StepStats`, so the
    streaming observers work identically against both simulators.  The
    fluid simulator tracks no individual requests, hence ``outcomes`` is
    always empty, and it reports no frequency/TP telemetry.
    """

    time: float  # bin start
    dt: float  # bin duration
    power_watts: float
    energy_wh: float
    online_gpus: int
    online_servers: float
    pool_gpus: Dict[str, int] = field(default_factory=dict)
    #: Pools whose GPU allocation changed versus the previous bin.
    reconfigured_pools: Tuple[str, ...] = ()
    # Observer-compatibility fields (empty for the fluid simulator).
    energy_by_type_wh: Dict[str, float] = field(default_factory=dict)
    outcomes: Tuple = ()
    average_frequency_mhz: float = 0.0
    gpus_by_tp: Dict[int, int] = field(default_factory=dict)
    pool_frequency_mhz: Dict[str, float] = field(default_factory=dict)
    pool_gpus_by_tp: Dict[str, Dict[int, int]] = field(default_factory=dict)


class _PoolConstants(NamedTuple):
    """One pool's per-run constants, resolved once per runner."""

    governing: str  # heaviest member bucket: the profile rows the pool reads
    capacity: float  # TP8 max-frequency node capacity, floored at 1.0
    max_frequency: Optional[int]  # TP8 max frequency (None: no TP8 rows)


class FluidRunner:
    """Applies a policy's decision rules to a binned trace."""

    def __init__(
        self,
        model: ModelSpec = LLAMA2_70B,
        scheme: ClassificationScheme = DEFAULT_SCHEME,
        profile: Optional[EnergyPerformanceProfile] = None,
        server: ServerSpec = DGX_H100,
    ) -> None:
        self.model = model
        self.scheme = scheme
        self.profile = profile or get_default_profile(model)
        self.server = server
        self.power_model = PowerModel(server)
        # Per-run constants the per-bin loop reads (see the module docstring).
        self._pool_of_type: Dict[str, str] = {
            name: scheme.pool_name(group) for group in scheme.groups for name in group
        }
        self._pools: Dict[str, _PoolConstants] = {}
        for pool in scheme.pool_names():
            governing = scheme.heaviest_member(pool).name
            max_frequency = max(self.profile.frequencies(governing, 8), default=None)
            capacity = 1.0
            if max_frequency is not None:
                capacity = max(1.0, self.profile.max_load(governing, 8, max_frequency))
            self._pools[pool] = _PoolConstants(governing, capacity, max_frequency)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _pool_loads(self, trace_bin: TraceBin) -> Dict[str, float]:
        """Per-pool prompt-token load of one bin."""
        loads: Dict[str, float] = {}
        if trace_bin.duration <= 0:
            # Degenerate bins (clipped trace tails) carry no sustained load.
            return loads
        prompt_share = (
            trace_bin.input_tokens / trace_bin.total_tokens
            if trace_bin.total_tokens > 0
            else 0.0
        )
        pool_of_type = self._pool_of_type
        for type_name, tokens in trace_bin.tokens_by_type.items():
            pool = pool_of_type[type_name]
            loads[pool] = loads.get(pool, 0.0) + tokens * prompt_share / trace_bin.duration
        return loads

    def static_budgets(self, bins: Sequence[TraceBin]) -> Dict[str, int]:
        """Per-pool peak-sized server budgets (the static baselines)."""
        peaks: Dict[str, float] = {}
        for trace_bin in bins:
            for pool, load in self._pool_loads(trace_bin).items():
                peaks[pool] = max(peaks.get(pool, 0.0), load)
        budgets: Dict[str, int] = {}
        for pool, peak in peaks.items():
            budgets[pool] = max(1, math.ceil(peak / self._pools[pool].capacity))
        return budgets

    # ------------------------------------------------------------------
    # Per-bin power of one pool under one policy
    # ------------------------------------------------------------------
    def _pool_power(
        self,
        spec: PolicySpec,
        pool: str,
        load_tps: float,
        static_servers: int,
    ) -> Tuple[float, int]:
        """Returns (power_watts, gpus_used) for one pool in one bin."""
        governing, capacity, max_frequency = self._pools[pool]
        if max_frequency is None:
            raise ValueError(f"the fluid simulator needs TP8 profile rows for {governing}")
        gpus_per_server = self.server.gpus_per_server

        if spec.scale_instances:
            servers = max(0, math.ceil(load_tps / capacity))
            if load_tps > 0:
                servers = max(1, servers)
        else:
            servers = static_servers
        gpu_budget = servers * gpus_per_server
        if gpu_budget == 0:
            return 0.0, 0

        if spec.scale_sharding:
            plan = plan_sharding(self.profile, governing, gpu_budget, load_tps)
            if plan.feasible:
                power = 0.0
                for allocation in plan.allocations:
                    frequency = allocation.frequency_mhz
                    if spec.scale_frequency:
                        best = self.profile.best_frequency(
                            governing,
                            allocation.tensor_parallelism,
                            allocation.per_instance_load,
                        )
                        frequency = best if best is not None else frequency
                    power += allocation.count * self.profile.power(
                        governing,
                        allocation.tensor_parallelism,
                        frequency,
                        allocation.per_instance_load,
                    )
                # Unused GPUs in the budget stay idle only for static policies;
                # scaling policies release them.
                idle_gpus = gpu_budget - plan.total_gpus
                if not spec.scale_instances and idle_gpus > 0:
                    power += idle_gpus * self.power_model.idle_gpu_slot_power()
                    used_gpus = gpu_budget
                else:
                    used_gpus = plan.total_gpus if spec.scale_instances else gpu_budget
                return power, used_gpus

        # Fixed TP8 sharding filling the budget.
        instances = gpu_budget // 8
        if instances == 0:
            return 0.0, 0
        per_instance_load = load_tps / instances
        frequency = max_frequency
        if spec.scale_frequency:
            best = self.profile.best_frequency(governing, 8, per_instance_load)
            frequency = best if best is not None else max_frequency
        power = instances * self.profile.power(governing, 8, frequency, per_instance_load)
        return power, gpu_budget

    # ------------------------------------------------------------------
    # The per-bin loop
    # ------------------------------------------------------------------
    def _resolve(
        self,
        spec: PolicySpec,
        bins: Sequence[TraceBin],
        static_budgets: Optional[Dict[str, int]] = None,
        fine_budgets: Optional[Dict[str, int]] = None,
    ) -> Tuple["FluidRunner", Dict[str, int]]:
        """The (scheme-matched runner, per-pool static budgets) of one run."""
        scheme = spec.scheme(self.scheme)
        # The runner's scheme must match the spec (SinglePool collapses pools).
        runner = self if scheme is self.scheme else FluidRunner(
            model=self.model, scheme=scheme, profile=self.profile, server=self.server
        )
        if static_budgets is None:
            # Static baselines are provisioned from per-bucket peaks (the
            # 9-pool accounting), exactly like the paper gives every baseline
            # the same peak-capable cluster; coarser schemes aggregate the
            # budgets of their member buckets.  ``fine_budgets`` lets sweep
            # executors precompute the per-bucket peaks once per trace.
            if fine_budgets is None:
                fine_budgets = self.static_budgets(bins)
            static_budgets = {}
            for fine_pool, budget in fine_budgets.items():
                bucket = self.scheme.heaviest_member(fine_pool)
                coarse_pool = scheme.pool_of(bucket)
                static_budgets[coarse_pool] = static_budgets.get(coarse_pool, 0) + budget
        return runner, static_budgets

    def steps(
        self,
        spec: PolicySpec,
        bins: Sequence[TraceBin],
        static_budgets: Optional[Dict[str, int]] = None,
        fine_budgets: Optional[Dict[str, int]] = None,
    ) -> Iterator[FluidStepStats]:
        """Yield one :class:`FluidStepStats` per trace bin.

        This is the single per-bin decision loop; the stepped
        :class:`~repro.api.fluid_engine.FluidEngine` adapter integrates
        it into a run summary.
        """
        runner, static_budgets = self._resolve(spec, bins, static_budgets, fine_budgets)
        # Pools are summed in the scheme's order: a set's order follows the
        # process's string-hash seed, and so would the float sums.
        pool_order = runner.scheme.pool_names()
        for pool in static_budgets:
            if pool not in pool_order:
                raise KeyError(f"unknown pool {pool!r} in scheme {runner.scheme.name}")
        previous_gpus: Dict[str, int] = {}
        for trace_bin in bins:
            loads = runner._pool_loads(trace_bin)
            pools = [p for p in pool_order if p in loads or p in static_budgets]
            bin_power = 0.0
            bin_gpus = 0
            pool_gpus: Dict[str, int] = {}
            reconfigured: List[str] = []
            for pool in pools:
                load = loads.get(pool, 0.0)
                static = static_budgets.get(pool, 0)
                power, gpus = runner._pool_power(spec, pool, load, static)
                bin_power += power
                bin_gpus += gpus
                pool_gpus[pool] = gpus
                if previous_gpus.get(pool) is not None and previous_gpus[pool] != gpus:
                    reconfigured.append(pool)
                previous_gpus[pool] = gpus
            bin_energy_wh = bin_power * trace_bin.duration / 3600.0
            yield FluidStepStats(
                time=trace_bin.start_time,
                dt=trace_bin.duration,
                power_watts=bin_power,
                energy_wh=bin_energy_wh,
                online_gpus=bin_gpus,
                online_servers=bin_gpus / self.server.gpus_per_server,
                pool_gpus=pool_gpus,
                reconfigured_pools=tuple(reconfigured),
            )
