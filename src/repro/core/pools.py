"""Pool bookkeeping shared by the controllers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.workload.classification import ClassificationScheme


@dataclass
class PoolState:
    """Mutable state of one instance pool.

    A pool serves one or more request-type buckets (usually one); its
    *governing type* — the largest member bucket — determines which SLO
    and which profile rows the controllers use, because the pool must be
    able to serve its most demanding members.
    """

    name: str
    member_types: Tuple[str, ...]
    governing_type: str
    server_budget: int = 0
    gpu_budget: int = 0
    #: Consolidated into the next larger pool: its arrivals are redirected.
    spilled: bool = False
    load_ema_tps: float = 0.0
    epoch_peak_tps: float = 0.0
    observed_tokens: float = 0.0
    observed_window_s: float = 0.0
    predicted_load_tps: float = 0.0

    def observe_arrival(self, prompt_tokens: int) -> None:
        """Record arriving prompt tokens (aggregated per step by the framework)."""
        self.observed_tokens += prompt_tokens

    def roll_window(self, dt: float, smoothing_s: float = 60.0) -> None:
        """Fold the accumulated arrivals into the load EMA and the epoch peak."""
        if dt <= 0:
            return
        instantaneous = self.observed_tokens / dt
        alpha = min(1.0, dt / smoothing_s)
        self.load_ema_tps = (1 - alpha) * self.load_ema_tps + alpha * instantaneous
        self.epoch_peak_tps = max(self.epoch_peak_tps, self.load_ema_tps)
        self.observed_tokens = 0.0
        self.observed_window_s += dt

    def reset_epoch_peak(self) -> None:
        """Start a fresh peak window (called at every scale epoch)."""
        self.epoch_peak_tps = self.load_ema_tps


def build_pool_states(scheme: ClassificationScheme) -> Dict[str, PoolState]:
    """Create the pool states for a classification scheme."""
    pools: Dict[str, PoolState] = {}
    for pool_name in scheme.pool_names():
        members = scheme.members(pool_name)
        governing = scheme.heaviest_member(pool_name).name
        pools[pool_name] = PoolState(
            name=pool_name,
            member_types=tuple(members),
            governing_type=governing,
        )
    return pools
