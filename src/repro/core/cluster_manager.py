"""Cluster manager: request steering and scale-out/in (Section IV-B/D).

The cluster manager sits at the top of the controller hierarchy.  It

* predicts the type of each incoming request (via the output-length
  predictor) and forwards it to the matching pool, spilling to the next
  larger pool when the target pool is overloaded;
* at every scale epoch, forecasts the per-pool load for the next epoch
  and computes the minimal number of servers per pool assuming the
  highest-performance configuration (TP8 at the maximum frequency);
* applies the fragmentation-handling rule: each pool (except the one
  serving the largest requests) is assigned one instance less than its
  peak demand and the leftover load is redirected to the next larger
  pool, so over-provisioning concentrates in a single pool.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.interfaces import ClusterLike
from repro.core.pools import PoolState, build_pool_states
from repro.perf.profile import EnergyPerformanceProfile
from repro.sim.events import EventLog
from repro.workload.classification import (
    ClassificationScheme,
    RequestType,
    equivalent_prompt_tokens,
)
from repro.workload.load_predictor import TemplateLoadPredictor
from repro.workload.predictor import OutputLengthPredictor
from repro.workload.request import Request


@dataclass
class ClusterManager:
    """Top-level controller: request steering and server scaling."""

    scheme: ClassificationScheme
    profile: EnergyPerformanceProfile
    cluster: ClusterLike
    predictor: OutputLengthPredictor
    load_predictor: TemplateLoadPredictor = field(default_factory=TemplateLoadPredictor)
    events: EventLog = field(default_factory=EventLog)
    scale_instances: bool = True
    fragmentation_handling: bool = True
    static_server_budgets: Optional[Dict[str, int]] = None
    min_servers_per_pool: int = 0
    #: Capacity headroom: pools are sized for ``headroom x`` the predicted
    #: load so that bursts between scale epochs do not violate the SLO.
    capacity_headroom: float = 1.25
    #: When True, budgets are handed out in whole nodes assuming TP8
    #: instances (used by policies that cannot re-shard, e.g. ScaleInst).
    node_granularity: bool = False
    pools: Dict[str, PoolState] = field(init=False)

    def __post_init__(self) -> None:
        self.pools = build_pool_states(self.scheme)
        if self.static_server_budgets:
            for pool_name, budget in self.static_server_budgets.items():
                if pool_name in self.pools:
                    self.pools[pool_name].server_budget = budget
                    self.pools[pool_name].gpu_budget = (
                        budget * self.cluster.server_spec.gpus_per_server
                    )

    # ------------------------------------------------------------------
    # Request steering
    # ------------------------------------------------------------------
    def classify(self, request: Request) -> RequestType:
        """Predict the request type (input length exact, output predicted)."""
        return self.predictor.predict(request)

    def pool_for(
        self, request: Request, overloaded: Optional[Mapping[str, bool]] = None
    ) -> str:
        """Pool a request should go to, spilling when the pool is overloaded.

        ``overloaded`` maps pool name to a boolean overload flag supplied
        by the pool managers (possibly lazily evaluated — at most two
        pools are consulted per request); spilled requests go to the
        next larger pool.
        """
        predicted = self.classify(request)
        pool_name = self.scheme.pool_of(predicted)
        pool = self.pools[pool_name]
        pool.observe_arrival(
            equivalent_prompt_tokens(
                request.input_tokens, predicted.name, pool.governing_type
            )
        )
        # Fragmentation spill: a consolidated pool's load is redirected to
        # the next larger pool (Section IV-B).
        if pool.spilled:
            pool_name = self.scheme.next_larger_pool(pool_name)
        # Overload spill.
        if overloaded and overloaded.get(pool_name):
            larger = self.scheme.next_larger_pool(pool_name)
            if larger != pool_name and not overloaded.get(larger, False):
                pool_name = larger
        return pool_name

    # ------------------------------------------------------------------
    # Load accounting
    # ------------------------------------------------------------------
    def roll_load_window(self, now: float, dt: float) -> None:
        """Fold per-step arrivals into pool load estimates and the predictor."""
        for pool in self.pools.values():
            pool.roll_window(dt)
            self.load_predictor.observe(now, pool.name, pool.load_ema_tps)

    def seed_history(self, now: float, loads_by_pool: Dict[str, float]) -> None:
        """Warm the load predictor with historical per-pool loads."""
        for pool_name, load in loads_by_pool.items():
            if pool_name in self.pools:
                self.load_predictor.observe(now, pool_name, load)
                self.pools[pool_name].load_ema_tps = max(
                    self.pools[pool_name].load_ema_tps, load
                )

    # ------------------------------------------------------------------
    # Scale-out / scale-in
    # ------------------------------------------------------------------
    def node_capacity(self, pool_name: str) -> float:
        """Max load (prompt TPS) one server can carry for a pool at TP8/max f."""
        governing = self.pools[pool_name].governing_type
        frequencies = self.profile.frequencies(governing, 8)
        if not frequencies:
            return 0.0
        return self.profile.max_load(governing, 8, max(frequencies))

    def _spill_threshold(self, pool_name: str) -> float:
        """Load below which a pool is consolidated into its spill target.

        A pool whose entire predicted load fits comfortably in half of the
        smallest instance (TP2 at maximum frequency) is not worth its own
        resources; its load is redirected to the next larger pool instead
        (the fragmentation-handling rule of Section IV-B).
        """
        governing = self.pools[pool_name].governing_type
        frequencies = self.profile.frequencies(governing, 2)
        if not frequencies:
            return 0.0
        return 0.5 * self.profile.max_load(governing, 2, max(frequencies))

    def scale_epoch(self, now: float) -> Dict[str, int]:
        """Recompute per-pool GPU budgets and scale the cluster.

        The paper sizes pools in whole nodes under a TP8 assumption; at
        the smaller scales this reproduction simulates, whole-node
        granularity would leave most pools badly over- or under-sized,
        so budgets are handed out in GPUs and pools may share servers.
        Returns the new per-pool *server-equivalent* budgets.  When
        ``scale_instances`` is off the static budgets are kept.
        """
        from repro.core.optimizer import minimal_gpu_budget

        budgets: Dict[str, int] = {}
        if not self.scale_instances:
            for pool in self.pools.values():
                budgets[pool.name] = pool.server_budget
            return budgets

        gpus_per_server = self.cluster.server_spec.gpus_per_server
        max_gpus = self.cluster.max_servers * gpus_per_server
        ordered = self.scheme.pools_by_size()
        # Spilled load is accumulated per receiving pool, already converted to
        # the receiver's load units (its governing bucket's prompt tokens).
        carry_by_pool: Dict[str, float] = {name: 0.0 for name in ordered}
        total_gpus = 0
        for pool_name in ordered:
            pool = self.pools[pool_name]
            predicted = self.load_predictor.predict(now, pool_name)
            predicted = max(predicted, pool.epoch_peak_tps, pool.load_ema_tps)
            predicted *= self.capacity_headroom
            pool.predicted_load_tps = predicted + carry_by_pool.get(pool_name, 0.0)
            pool.reset_epoch_peak()

            receiver = self.scheme.next_larger_pool(pool_name)
            is_largest = receiver == pool_name
            if (
                self.fragmentation_handling
                and not is_largest
                and 0.0 < pool.predicted_load_tps < self._spill_threshold(pool_name)
            ):
                # Consolidate: this pool's trickle of load is not worth even
                # the smallest instance; redirect it to the next larger
                # (dominating) pool, converted into that pool's load units.
                pool.spilled = True
                carry_by_pool[receiver] = carry_by_pool.get(receiver, 0.0) + (
                    pool.predicted_load_tps
                    * self.node_capacity(receiver)
                    / max(1e-9, self.node_capacity(pool_name))
                )
                pool.server_budget = 0
                pool.gpu_budget = 0
                budgets[pool_name] = 0
                continue

            pool.spilled = False
            if self.node_granularity:
                capacity = self.node_capacity(pool_name)
                nodes = (
                    math.ceil(pool.predicted_load_tps / capacity) if capacity > 0 else 0
                )
                gpu_budget = nodes * gpus_per_server
            else:
                gpu_budget = minimal_gpu_budget(
                    self.profile, pool.governing_type, pool.predicted_load_tps, max_gpus
                )
            gpu_budget = max(gpu_budget, self.min_servers_per_pool * gpus_per_server)
            pool.gpu_budget = gpu_budget
            pool.server_budget = math.ceil(gpu_budget / gpus_per_server)
            budgets[pool_name] = pool.server_budget
            total_gpus += gpu_budget

        total_servers = math.ceil(total_gpus / gpus_per_server)
        self.cluster.scale_to(total_servers, now)
        self.events.emit(
            now,
            "scale_epoch",
            "cluster_manager",
            budgets=dict(budgets),
            total_gpus=total_gpus,
            total_servers=total_servers,
        )
        return budgets
