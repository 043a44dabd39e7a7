"""Pool manager: instance selection and shard-up/down (Section IV-B/C).

Each pool manager owns the instances serving one request-type pool.  At
every shard epoch it re-solves the restricted energy problem (all
instances at the highest frequency, single TP degree, fair-share load)
for its GPU budget and current load, and — if the expected saving
outweighs the re-sharding overheads — reconfigures its instances using a
staggered schedule so part of the pool keeps serving throughout.

It also routes requests within the pool: among the instances that can
accept more work it picks the one whose projected energy increase is
smallest (in practice the least-loaded SLO-compliant instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.interfaces import ClusterLike, InstanceLike
from repro.core.optimizer import ShardingPlan, plan_sharding
from repro.core.overheads import OverheadModel
from repro.core.pools import PoolState
from repro.perf.profile import EnergyPerformanceProfile, ProfileEntry
from repro.sim.events import EventLog
from repro.workload.request import Request


@dataclass
class PoolManager:
    """Controller for one instance pool."""

    pool: PoolState
    profile: EnergyPerformanceProfile
    cluster: ClusterLike
    overheads: OverheadModel
    events: EventLog = field(default_factory=EventLog)
    scale_sharding: bool = True
    overhead_aware: bool = True
    staggered: bool = True
    shard_epoch_s: float = 300.0
    default_tensor_parallelism: int = 8
    #: Plans are sized for ``headroom x`` the observed load so bursts between
    #: shard epochs stay within SLO.
    capacity_headroom: float = 1.3
    _last_plan: Optional[ShardingPlan] = field(default=None, init=False)
    #: Memoised (tp, frequency) -> profile entry (or None when the profile
    #: has no such configuration).  Routing consults the profile for every
    #: candidate instance of every request; the profile is immutable once
    #: the managers exist, so the lookups are cached here.
    _entry_cache: Dict[tuple, Optional[ProfileEntry]] = field(
        default_factory=dict, init=False, repr=False
    )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.pool.name

    def instances(self) -> List[InstanceLike]:
        return list(self.cluster.instances_in_pool(self.pool.name))

    def gpus_in_use(self) -> int:
        return sum(instance.gpu_count for instance in self.instances())

    def is_overloaded(self, now: float) -> bool:
        """Whether every instance in the pool is saturated or offline."""
        # instances_in_pool already returns a fresh list; skip the extra
        # defensive copy instances() makes — this runs per routed request.
        instances = self.cluster.instances_in_pool(self.pool.name)
        if not instances:
            return True
        for instance in instances:
            if instance.is_offline(now):
                continue
            capacity = self._instance_capacity(instance)
            if instance.load_estimate_tps < capacity * 0.9 and instance.queue_length < 32:
                return False
        return True

    def _profile_entry(self, tp: int, frequency_mhz: int) -> Optional[ProfileEntry]:
        key = (tp, frequency_mhz)
        try:
            return self._entry_cache[key]
        except KeyError:
            pass
        try:
            entry: Optional[ProfileEntry] = self.profile.entry(
                self.pool.governing_type, tp, frequency_mhz
            )
        except KeyError:
            entry = None
        self._entry_cache[key] = entry
        return entry

    def _instance_capacity(self, instance: InstanceLike) -> float:
        entry = self._profile_entry(
            instance.tensor_parallelism, instance.frequency.current_frequency_mhz
        )
        return entry.max_load_slo if entry is not None else float("inf")

    # ------------------------------------------------------------------
    # Request routing within the pool
    # ------------------------------------------------------------------
    def select_instance(self, request: Request, now: float) -> Optional[InstanceLike]:
        """Pick the instance that minimises the energy of adding the request.

        Following Section IV-D, the manager estimates the energy of every
        instance after hypothetically adding the request (using the
        profile) and picks the cheapest one that stays inside its
        SLO-derived throughput limit; if none qualifies, the least loaded
        online instance is used.
        """
        candidates = [
            i
            for i in self.cluster.instances_in_pool(self.pool.name)
            if not i.is_offline(now) and i.accepting
        ]
        if not candidates:
            # No live instance in this pool (e.g. its server is still booting):
            # let the cluster manager fall through to the next larger pool
            # rather than parking requests behind an offline instance.
            return None
        best: Optional[InstanceLike] = None
        best_cost = float("inf")
        added_load = request.input_tokens / max(1.0, self.shard_epoch_s) * 30.0
        for instance in candidates:
            projected = instance.load_estimate_tps + added_load
            entry = self._profile_entry(
                instance.tensor_parallelism,
                instance.frequency.current_frequency_mhz,
            )
            if entry is None:
                # No profiled configuration: capacity is unbounded and the
                # projected load itself stands in for the energy cost
                # (matching the historical KeyError fallbacks).
                cost = projected
            else:
                if projected > entry.max_load_slo * 0.9:
                    continue
                cost = entry.power_at(projected)
            # Penalise queue build-up so work spreads when power ties.
            cost += instance.queue_length * 1.0
            if cost < best_cost:
                best_cost = cost
                best = instance
        if best is None:
            best = min(candidates, key=lambda i: (i.load_estimate_tps, i.queue_length))
        return best

    # ------------------------------------------------------------------
    # Shard-up / shard-down epoch
    # ------------------------------------------------------------------
    def desired_plan(self, now: float) -> ShardingPlan:
        """The sharding the pool should be running for its current load."""
        load = max(
            self.pool.load_ema_tps * self.capacity_headroom,
            self.pool.epoch_peak_tps * self.capacity_headroom,
            self.pool.predicted_load_tps,
        )
        gpu_budget = max(self.pool.gpu_budget, 0)
        if not self.scale_sharding:
            # Fixed sharding: fill the whole budget with the default TP degree
            # at the highest frequency (the state-of-practice behaviour).
            return self._fill_budget_plan(gpu_budget, load)
        return plan_sharding(
            self.profile, self.pool.governing_type, gpu_budget, load
        )

    def _fill_budget_plan(self, gpu_budget: int, load: float) -> ShardingPlan:
        """Fill the GPU budget with default-TP instances at max frequency."""
        from repro.core.optimizer import InstanceAllocation

        tp = self.default_tensor_parallelism
        count = gpu_budget // tp
        if count <= 0:
            return ShardingPlan(
                allocations=(),
                expected_power_watts=float("inf"),
                feasible=False,
                request_type=self.pool.governing_type,
            )
        frequencies = self.profile.frequencies(self.pool.governing_type, tp)
        frequency = max(frequencies) if frequencies else 1980
        per_instance_load = load / count
        try:
            power = count * self.profile.power(
                self.pool.governing_type, tp, frequency, per_instance_load
            )
        except KeyError:
            power = float("inf")
        return ShardingPlan(
            allocations=(
                InstanceAllocation(
                    tensor_parallelism=tp,
                    count=count,
                    frequency_mhz=frequency,
                    per_instance_load=per_instance_load,
                ),
            ),
            expected_power_watts=power,
            feasible=True,
            request_type=self.pool.governing_type,
        )

    def shard_epoch(self, now: float) -> Dict[str, int]:
        """Reconcile the pool's instances with the desired sharding plan.

        Returns a summary of the actions taken (created / removed /
        resharded instance counts).
        """
        summary = {"created": 0, "removed": 0, "resharded": 0}
        plan = self.desired_plan(now)
        if not plan.feasible:
            # Cannot build a compliant plan (budget too small); make sure at
            # least one instance exists so requests are not dropped.
            if not self.instances() and self.pool.gpu_budget >= 8:
                self._create_instance(8, now)
                summary["created"] += 1
            return summary
        self._last_plan = plan

        desired_configs = plan.instance_configs()
        desired_tp_counts: Dict[int, int] = {}
        for tp, _freq in desired_configs:
            desired_tp_counts[tp] = desired_tp_counts.get(tp, 0) + 1

        current = sorted(self.instances(), key=lambda i: i.instance_id)
        current_tp_counts: Dict[int, int] = {}
        for instance in current:
            current_tp_counts[instance.tensor_parallelism] = (
                current_tp_counts.get(instance.tensor_parallelism, 0) + 1
            )

        if desired_tp_counts == current_tp_counts:
            return summary

        # Overhead awareness: skip the reconfiguration when the expected
        # power saving over the epoch does not cover the transition cost.
        # The check only applies to optional (energy-motivated) re-shards;
        # capacity changes forced by a new GPU budget always go through.
        if (
            self.overhead_aware
            and current
            and plan.total_gpus == self.gpus_in_use()
        ):
            current_power = self._estimate_current_power()
            saving = current_power - plan.expected_power_watts
            source_tp = current[0].tensor_parallelism
            target_tp = plan.allocations[0].tensor_parallelism if plan.allocations else source_tp
            if not self.overheads.reshard_is_worth_it(
                source_tp, target_tp, saving, self.shard_epoch_s
            ):
                return summary

        summary.update(self._apply_plan(plan, now))
        self.events.emit(
            now,
            "reshard",
            f"pool:{self.pool.name}",
            plan={tp: count for tp, count in desired_tp_counts.items()},
            **summary,
        )
        return summary

    def _estimate_current_power(self) -> float:
        total = 0.0
        for instance in self.instances():
            try:
                total += self.profile.power(
                    self.pool.governing_type,
                    instance.tensor_parallelism,
                    instance.frequency.current_frequency_mhz,
                    instance.load_estimate_tps,
                )
            except KeyError:
                total += 0.0
        return total

    def _apply_plan(self, plan: ShardingPlan, now: float) -> Dict[str, int]:
        """Create / reshard / remove instances to match the plan."""
        created = removed = resharded = 0
        desired = plan.instance_configs()
        current = sorted(
            self.instances(), key=lambda i: i.load_estimate_tps
        )

        # Limit how many existing instances are touched at once (staggered
        # reconfiguration keeps part of the pool serving).
        max_touch = len(current) if not self.staggered else max(1, (len(current) + 1) // 2)

        # Step 1: reshard existing instances towards the desired TPs.
        desired_tps = [tp for tp, _f in desired]
        reusable = list(current)
        matched: List[InstanceLike] = []
        for tp in list(desired_tps):
            for instance in reusable:
                if instance.tensor_parallelism == tp:
                    reusable.remove(instance)
                    matched.append(instance)
                    desired_tps.remove(tp)
                    break
        touched = 0
        for tp in list(desired_tps):
            if not reusable or touched >= max_touch:
                break
            instance = reusable.pop(0)
            if self._reshard_instance(instance, tp, now):
                resharded += 1
                touched += 1
                desired_tps.remove(tp)

        # Step 2: create instances for still-missing desired slots.
        for tp in desired_tps:
            if self._create_instance(tp, now):
                created += 1

        # Step 3: drain and remove leftover instances.
        for instance in reusable:
            if self._remove_instance(instance, now):
                removed += 1

        # Step 4: align frequencies with the plan (the instance manager will
        # fine-tune them at its own epoch).
        frequency_by_tp = {a.tensor_parallelism: a.frequency_mhz for a in plan.allocations}
        for instance in self.instances():
            target = frequency_by_tp.get(instance.tensor_parallelism)
            if target is not None and self.scale_sharding:
                instance.set_frequency(target, now)

        return {"created": created, "removed": removed, "resharded": resharded}

    def _create_instance(self, tp: int, now: float) -> Optional[InstanceLike]:
        instance = self.cluster.create_instance(
            tensor_parallelism=tp,
            pool=self.pool.name,
            request_type=self.pool.governing_type,
        )
        return instance

    def _remove_instance(self, instance: InstanceLike, now: float) -> bool:
        """Remove an instance, handing its queued and running requests on.

        They go where routing would send the first of them; when no live
        instance of the pool accepts work, to the least-loaded other
        instance even if it is offline, since its queue waits for it.  A
        pool's last instance is kept (returns False) so no request is lost.
        """
        others = [
            other
            for other in self.cluster.instances_in_pool(self.pool.name)
            if other.instance_id != instance.instance_id
        ]
        if not others:
            return False
        leftovers = self.cluster.remove_instance(instance.instance_id)
        if leftovers:
            target = self.select_instance(leftovers[0].request, now)
            if target is None:
                target = min(others, key=lambda i: (i.load_estimate_tps, i.queue_length))
            target.adopt(leftovers, now)
        return True

    def _reshard_instance(self, instance: InstanceLike, new_tp: int, now: float) -> bool:
        transfer = self.overheads.reshard_transfer_time_s(
            instance.tensor_parallelism, new_tp
        )
        downtime = self.overheads.reshard_requires_downtime(
            instance.tensor_parallelism, new_tp
        )
        return self.cluster.reshard_instance(
            instance.instance_id,
            new_tp,
            now,
            transfer_time_s=transfer,
            sync_time_s=self.overheads.engine_sync_s,
            requires_downtime=downtime,
        )
