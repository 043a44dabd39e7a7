"""The DynamoLLM framework: hierarchy of controllers behind one façade.

``DynamoLLM`` wires a cluster manager, one pool manager per request-type
pool and one instance manager per pool, and drives them at their
respective epochs (scale-out every ~30 minutes, shard-up/down every ~5
minutes, frequency every ~5 seconds in the paper; the defaults here are
scaled down to suit 1-hour simulations).

The same class also implements the evaluated baselines: each knob
(multi-pool separation, instance scaling, shard scaling, frequency
scaling) can be disabled independently, which is exactly how SinglePool,
MultiPool, ScaleInst, ScaleShard and ScaleFreq are defined in Section V.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.cluster_manager import ClusterManager
from repro.core.instance_manager import InstanceManager
from repro.core.interfaces import ClusterLike, InstanceLike
from repro.core.overheads import OverheadModel
from repro.core.pool_manager import PoolManager
from repro.llm.catalog import ModelSpec
from repro.perf.profile import EnergyPerformanceProfile
from repro.sim.events import EventLog
from repro.sim.schedule import PeriodicScheduler
from repro.workload.classification import ClassificationScheme, DEFAULT_SCHEME
from repro.workload.load_predictor import TemplateLoadPredictor
from repro.workload.predictor import OutputLengthPredictor
from repro.workload.request import Request
from repro.workload.slo import SLOPolicy, DEFAULT_SLO_POLICY


@dataclass(frozen=True)
class ControllerKnobs:
    """Which reconfiguration knobs the policy is allowed to use."""

    scale_instances: bool = True
    scale_sharding: bool = True
    scale_frequency: bool = True
    fragmentation_handling: bool = True
    overhead_aware: bool = True
    staggered_reconfiguration: bool = True
    emergency_handling: bool = True


@dataclass(frozen=True)
class ControllerEpochs:
    """Controller periods in seconds of simulated time.

    The paper uses ~30 min / ~5 min / ~5 s; the defaults here shrink the
    upper levels so that one-hour simulations exercise several epochs.
    """

    scale_epoch_s: float = 300.0
    shard_epoch_s: float = 60.0
    frequency_epoch_s: float = 5.0


class _LazyOverloadMap(Mapping[str, bool]):
    """Pool-name -> overload flag, evaluated on demand for one route call.

    ``PoolManager.is_overloaded`` is a pure read over the pool's current
    instances, but it walks every instance in the pool; routing consults
    at most two pools per request, so the old eager dict comprehension
    over *all* pools dominated the per-request routing cost.  Results
    are cached for the lifetime of the map (one ``route`` call), so
    repeated lookups within a call stay consistent.
    """

    __slots__ = ("_managers", "_now", "_cache")

    def __init__(self, managers: Dict[str, PoolManager], now: float) -> None:
        self._managers = managers
        self._now = now
        self._cache: Dict[str, bool] = {}

    def __getitem__(self, name: str) -> bool:
        flag = self.get(name)
        if flag is None:
            raise KeyError(name)
        return flag

    def get(self, name: str, default: Any = None) -> Any:
        # Direct, instead of the Mapping mixin's try/except around
        # __getitem__: routing calls this once or twice per request.
        cached = self._cache.get(name)
        if cached is None:
            manager = self._managers.get(name)
            if manager is None:
                return default
            cached = manager.is_overloaded(self._now)
            self._cache[name] = cached
        return cached

    def __iter__(self) -> Iterator[str]:
        return iter(self._managers)

    def __len__(self) -> int:
        return len(self._managers)


class DynamoLLM:
    """Energy-management framework for an LLM inference cluster."""

    def __init__(
        self,
        model: ModelSpec,
        cluster: ClusterLike,
        profile: EnergyPerformanceProfile,
        scheme: ClassificationScheme = DEFAULT_SCHEME,
        slo_policy: SLOPolicy = DEFAULT_SLO_POLICY,
        predictor: Optional[OutputLengthPredictor] = None,
        load_predictor: Optional[TemplateLoadPredictor] = None,
        knobs: ControllerKnobs = ControllerKnobs(),
        epochs: ControllerEpochs = ControllerEpochs(),
        static_servers: int = 0,
        expected_load_fractions: Optional[Dict[str, float]] = None,
        default_tensor_parallelism: int = 8,
        name: str = "DynamoLLM",
    ) -> None:
        self.model = model
        self.cluster = cluster
        self.profile = profile
        self.scheme = scheme
        self.slo_policy = slo_policy
        self.knobs = knobs
        self.epochs = epochs
        self.static_servers = static_servers
        self.default_tensor_parallelism = default_tensor_parallelism
        self.name = name
        self.events = EventLog()

        self.overheads = OverheadModel(
            model=model,
            server=cluster.server_spec,
            optimized_frequency_switching=cluster.optimized_frequency_switching,
            optimized_scale_out=cluster.provisioner.proactive,
        )
        static_budgets = None
        if not knobs.scale_instances:
            static_budgets = self._static_budgets(expected_load_fractions)
        self.cluster_manager = ClusterManager(
            scheme=scheme,
            profile=profile,
            cluster=cluster,
            predictor=predictor or OutputLengthPredictor(accuracy=1.0),
            load_predictor=load_predictor or TemplateLoadPredictor(),
            events=self.events,
            scale_instances=knobs.scale_instances,
            fragmentation_handling=knobs.fragmentation_handling,
            static_server_budgets=static_budgets,
            node_granularity=not knobs.scale_sharding,
        )
        self.pool_managers: Dict[str, PoolManager] = {}
        self.instance_managers: Dict[str, InstanceManager] = {}
        for pool_name, pool_state in self.cluster_manager.pools.items():
            pool_manager = PoolManager(
                pool=pool_state,
                profile=profile,
                cluster=cluster,
                overheads=self.overheads,
                events=self.events,
                scale_sharding=knobs.scale_sharding,
                overhead_aware=knobs.overhead_aware,
                staggered=knobs.staggered_reconfiguration,
                shard_epoch_s=epochs.shard_epoch_s,
                default_tensor_parallelism=default_tensor_parallelism,
            )
            self.pool_managers[pool_name] = pool_manager
            self.instance_managers[pool_name] = InstanceManager(
                pool_manager=pool_manager,
                profile=profile,
                slo_policy=slo_policy,
                events=self.events,
                scale_frequency=knobs.scale_frequency,
                emergency_enabled=knobs.emergency_handling,
            )

        self._scheduler = PeriodicScheduler()
        self._scheduler.add("scale", epochs.scale_epoch_s, self._scale_tick, offset=epochs.scale_epoch_s)
        self._scheduler.add("shard", epochs.shard_epoch_s, self._shard_tick, offset=epochs.shard_epoch_s)
        self._scheduler.add(
            "frequency", epochs.frequency_epoch_s, self._frequency_tick, offset=epochs.frequency_epoch_s
        )
        self._routed_requests = 0
        #: Observer hook: called as ``listener(kind, now)`` after every
        #: controller epoch ("scale", "shard" or "frequency").  Set by the
        #: simulation engine to emit ``EpochReconfigured`` events.
        self.epoch_listener: Optional[Callable[[str, float], None]] = None

    # ------------------------------------------------------------------
    # Initial provisioning
    # ------------------------------------------------------------------
    def _static_budgets(
        self, expected_load_fractions: Optional[Dict[str, float]]
    ) -> Dict[str, int]:
        """Split the static server budget across pools by expected load."""
        pool_names = self.scheme.pool_names()
        fractions = expected_load_fractions or {}
        if not fractions:
            fractions = {name: 1.0 / len(pool_names) for name in pool_names}
        total_fraction = sum(fractions.get(name, 0.0) for name in pool_names) or 1.0
        budgets: Dict[str, int] = {}
        remaining = self.static_servers
        for name in pool_names:
            share = fractions.get(name, 0.0) / total_fraction
            servers = max(1, round(self.static_servers * share)) if share > 0 else 0
            budgets[name] = servers
            remaining -= servers
        # Give any remaining budget (positive or negative) to the largest pool.
        largest = self.scheme.pools_by_size()[-1]
        budgets[largest] = max(1, budgets.get(largest, 0) + remaining)
        return budgets

    def setup(self, now: float = 0.0, warm_loads: Optional[Dict[str, float]] = None) -> None:
        """Provision the initial instances.

        ``warm_loads`` maps pool names to expected prompt-token loads and
        plays the role of the historical data the load predictor would
        have in production; scaling policies use it for their first
        scale decision.
        """
        if warm_loads:
            self.cluster_manager.seed_history(now, warm_loads)
        if self.knobs.scale_instances:
            self.cluster_manager.scale_epoch(now)
        else:
            total = sum(p.server_budget for p in self.cluster_manager.pools.values())
            self.cluster.scale_to(max(total, self.static_servers), now)
        self.cluster.collect_provisioned(now + 1e9)  # initial servers boot instantly
        for pool_manager in self.pool_managers.values():
            pool_manager.shard_epoch(now)
        for instance_manager in self.instance_managers.values():
            instance_manager.frequency_epoch(now)

    # ------------------------------------------------------------------
    # Request routing (policy interface)
    # ------------------------------------------------------------------
    def route(self, request: Request, now: float) -> Optional[InstanceLike]:
        """Steer a request to an instance; returns the chosen instance."""
        overloaded = _LazyOverloadMap(self.pool_managers, now)
        pool_name = self.cluster_manager.pool_for(request, overloaded)
        instance = self._select_with_fallback(pool_name, request, now)
        if instance is not None:
            instance.enqueue(request, now)
            self._routed_requests += 1
        return instance

    def _select_with_fallback(
        self, pool_name: str, request: Request, now: float
    ) -> Optional[InstanceLike]:
        visited = set()
        current = pool_name
        while current not in visited:
            visited.add(current)
            manager = self.pool_managers.get(current)
            if manager is not None:
                instance = manager.select_instance(request, now)
                if instance is not None:
                    return instance
            nxt = self.scheme.next_larger_pool(current)
            if nxt == current:
                break
            current = nxt
        # Last resort: any instance in the cluster.
        instances: List[InstanceLike] = list(self.cluster.instances.values())
        if not instances:
            return None
        return min(instances, key=lambda i: (i.queue_length, i.load_estimate_tps))

    # ------------------------------------------------------------------
    # Periodic control (policy interface)
    # ------------------------------------------------------------------
    def on_step(self, now: float, dt: float) -> None:
        """Advance controller state by one simulation step."""
        self.cluster_manager.roll_load_window(now, dt)
        self._scheduler.tick(now)

    def _notify_epoch(self, kind: str, now: float) -> None:
        if self.epoch_listener is not None:
            self.epoch_listener(kind, now)

    def _scale_tick(self, now: float) -> None:
        self.cluster_manager.scale_epoch(now)
        self._notify_epoch("scale", now)

    def _shard_tick(self, now: float) -> None:
        # Reactive scale-out: when a pool is saturated (e.g. after a load
        # mis-prediction), do not wait for the next scale epoch — re-run the
        # cluster-level sizing immediately (Section IV-D emergency handling).
        if self.knobs.scale_instances and any(
            manager.is_overloaded(now) for manager in self.pool_managers.values()
        ):
            self.cluster_manager.scale_epoch(now)
        for pool_manager in self.pool_managers.values():
            pool_manager.shard_epoch(now)
        self._notify_epoch("shard", now)

    def _frequency_tick(self, now: float) -> None:
        for instance_manager in self.instance_managers.values():
            instance_manager.frequency_epoch(now)
        self._notify_epoch("frequency", now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def routed_requests(self) -> int:
        return self._routed_requests

    def pool_summary(self) -> Dict[str, Dict[str, float]]:
        """Current per-pool budgets, loads and instance counts."""
        summary: Dict[str, Dict[str, float]] = {}
        for name, state in self.cluster_manager.pools.items():
            manager = self.pool_managers[name]
            summary[name] = {
                "servers": state.server_budget,
                "gpus": state.gpu_budget,
                "load_tps": state.load_ema_tps,
                "instances": len(manager.instances()),
            }
        return summary

    def total_squashed(self) -> int:
        return sum(m.squashed_count for m in self.instance_managers.values())
