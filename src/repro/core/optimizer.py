"""Energy-optimal configuration selection (Equation 1 of the paper).

The full problem picks, for each tensor parallelism, how many instances
to run, at which frequency, and how much load to assign, so that total
energy is minimal while the GPU budget, the total load, and the SLOs are
respected.  The paper solves it with a MILP solver (PuLP); because the
decision space here is small and discrete, :func:`plan_global` solves it
exactly by enumeration.  :func:`plan_sharding` is the restricted
per-pool sub-problem the hierarchical pool manager solves at every
shard epoch: all instances at the maximum frequency, a single TP degree
per pool, fair-share load (Section IV-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.perf.config import TENSOR_PARALLELISMS
from repro.perf.profile import EnergyPerformanceProfile


@dataclass(frozen=True)
class InstanceAllocation:
    """A homogeneous group of instances within a plan."""

    tensor_parallelism: int
    count: int
    frequency_mhz: int
    per_instance_load: float

    @property
    def gpus(self) -> int:
        return self.tensor_parallelism * self.count

    @property
    def total_load(self) -> float:
        return self.per_instance_load * self.count


@dataclass(frozen=True)
class ShardingPlan:
    """An energy-optimised allocation for one pool (or the whole cluster)."""

    allocations: Tuple[InstanceAllocation, ...]
    expected_power_watts: float
    feasible: bool
    request_type: str

    @property
    def total_gpus(self) -> int:
        return sum(allocation.gpus for allocation in self.allocations)

    @property
    def total_instances(self) -> int:
        return sum(allocation.count for allocation in self.allocations)

    @property
    def total_load(self) -> float:
        return sum(allocation.total_load for allocation in self.allocations)

    def instance_configs(self) -> List[Tuple[int, int]]:
        """Flat list of (tp, frequency) pairs, one per instance."""
        configs: List[Tuple[int, int]] = []
        for allocation in self.allocations:
            configs.extend(
                [(allocation.tensor_parallelism, allocation.frequency_mhz)]
                * allocation.count
            )
        return configs


def _infeasible(request_type: str) -> ShardingPlan:
    return ShardingPlan(
        allocations=(), expected_power_watts=float("inf"), feasible=False, request_type=request_type
    )


def plan_sharding(
    profile: EnergyPerformanceProfile,
    request_type: str,
    total_gpus: int,
    load_tps: float,
    frequency_mhz: Optional[int] = None,
    tensor_parallelisms: Sequence[int] = TENSOR_PARALLELISMS,
    minimize_instances: bool = True,
) -> ShardingPlan:
    """Pick the best single-TP sharding of ``total_gpus`` for a pool.

    This is the pool manager's sub-problem: the GPU budget is fixed by
    the cluster manager and all instances are assumed to run at the
    highest frequency (``frequency_mhz=None`` selects the highest
    profiled frequency).  Returns an infeasible plan when no sharding
    can carry the load within SLO.
    """
    if total_gpus <= 0:
        return _infeasible(request_type)
    best: Optional[ShardingPlan] = None
    for tp in tensor_parallelisms:
        frequencies = profile.frequencies(request_type, tp)
        if not frequencies:
            continue
        frequency = frequency_mhz if frequency_mhz is not None else max(frequencies)
        if frequency not in frequencies:
            continue
        max_instances = total_gpus // tp
        if max_instances <= 0:
            continue
        entry = profile.entry(request_type, tp, frequency)
        per_instance_capacity = entry.max_load_slo
        if per_instance_capacity <= 0:
            continue
        candidate_counts: Iterable[int]
        if minimize_instances:
            needed = max(1, math.ceil(load_tps / per_instance_capacity)) if load_tps > 0 else 1
            candidate_counts = range(needed, max_instances + 1)
        else:
            candidate_counts = range(1, max_instances + 1)
        for count in candidate_counts:
            per_instance_load = load_tps / count if count else 0.0
            if per_instance_load > per_instance_capacity:
                continue
            power = count * entry.power_at(per_instance_load)
            plan = ShardingPlan(
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
                request_type=request_type,
            )
            if best is None or power < best.expected_power_watts:
                best = plan
            if minimize_instances:
                # Adding more instances of the same TP only adds idle power,
                # so the first feasible count is optimal for this TP.
                break
    return best if best is not None else _infeasible(request_type)


def minimal_gpu_budget(
    profile: EnergyPerformanceProfile,
    request_type: str,
    load_tps: float,
    max_gpus: int,
    tensor_parallelisms: Sequence[int] = TENSOR_PARALLELISMS,
) -> int:
    """Smallest GPU budget for which an SLO-compliant sharding exists.

    Used by the cluster manager to hand out GPU-granular budgets: the
    budget is grown in steps of two GPUs (the smallest TP degree) until
    :func:`plan_sharding` finds a feasible plan at the highest frequency.
    Returns 0 when the load is zero and ``max_gpus`` when even the full
    budget is insufficient (the pool is then simply saturated).
    """
    if load_tps <= 0:
        return 0
    budget = min(tensor_parallelisms)
    while budget <= max_gpus:
        plan = plan_sharding(
            profile, request_type, budget, load_tps, tensor_parallelisms=tensor_parallelisms
        )
        if plan.feasible:
            return plan.total_gpus
        budget += min(tensor_parallelisms)
    return max_gpus


def plan_global(
    profile: EnergyPerformanceProfile,
    request_type: str,
    total_gpus: int,
    load_tps: float,
    tensor_parallelisms: Sequence[int] = TENSOR_PARALLELISMS,
    frequencies: Optional[Sequence[int]] = None,
    max_instances_per_tp: int = 16,
) -> ShardingPlan:
    """Exact solution of Equation 1 for one request type.

    Enumerates mixed-TP allocations (N_TP2, N_TP4, N_TP8), splits the
    load across instance groups proportionally to their capacity, and
    picks the lowest-power SLO-compliant frequency per group.  This is
    the global optimum the hierarchical heuristic approximates; it is
    used for ablations and for validating the heuristic.
    """
    if total_gpus <= 0:
        return _infeasible(request_type)
    tps = [tp for tp in tensor_parallelisms if profile.frequencies(request_type, tp)]
    if not tps:
        return _infeasible(request_type)
    if frequencies is None:
        frequency_options = {
            tp: profile.frequencies(request_type, tp) for tp in tps
        }
    else:
        frequency_options = {tp: list(frequencies) for tp in tps}

    max_frequency = {tp: max(frequency_options[tp]) for tp in tps}
    capacity_at_max = {
        tp: profile.max_load(request_type, tp, max_frequency[tp]) for tp in tps
    }

    best: Optional[ShardingPlan] = None

    def iterate_counts(index: int, remaining_gpus: int, counts: List[int]) -> None:
        nonlocal best
        if index == len(tps):
            if all(count == 0 for count in counts):
                return
            evaluate(counts)
            return
        tp = tps[index]
        limit = min(max_instances_per_tp, remaining_gpus // tp)
        for count in range(0, limit + 1):
            counts.append(count)
            iterate_counts(index + 1, remaining_gpus - count * tp, counts)
            counts.pop()

    def evaluate(counts: Sequence[int]) -> None:
        nonlocal best
        total_capacity = sum(
            counts[i] * capacity_at_max[tps[i]] for i in range(len(tps))
        )
        if total_capacity <= 0 or (load_tps > 0 and total_capacity < load_tps):
            return
        allocations: List[InstanceAllocation] = []
        total_power = 0.0
        for i, tp in enumerate(tps):
            count = counts[i]
            if count == 0:
                continue
            group_capacity = count * capacity_at_max[tp]
            group_load = load_tps * group_capacity / total_capacity if load_tps > 0 else 0.0
            per_instance_load = group_load / count
            frequency = profile.best_frequency(
                request_type, tp, per_instance_load, frequency_options[tp]
            )
            if frequency is None:
                return
            total_power += count * profile.power(
                request_type, tp, frequency, per_instance_load
            )
            allocations.append(
                InstanceAllocation(
                    tensor_parallelism=tp,
                    count=count,
                    frequency_mhz=frequency,
                    per_instance_load=per_instance_load,
                )
            )
        plan = ShardingPlan(
            allocations=tuple(allocations),
            expected_power_watts=total_power,
            feasible=True,
            request_type=request_type,
        )
        if best is None or total_power < best.expected_power_watts:
            best = plan

    iterate_counts(0, total_gpus, [])
    return best if best is not None else _infeasible(request_type)
