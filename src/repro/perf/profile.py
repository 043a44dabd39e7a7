"""Energy-performance profiles consulted by the DynamoLLM controllers.

A profile is the output of the (offline) profiling phase: for every
request type, tensor parallelism and GPU frequency it stores the energy,
power, TTFT and TBT over a grid of load levels, plus the maximum load
that still meets the SLO.  At runtime the controllers interpolate
between profiled load levels — the paper uses SciPy's ``interp1d`` for
exactly this purpose (Section IV-E) — and never consult the underlying
analytical model directly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.config import InstanceConfig


def _interp_scalar(x: float, xp: List[float], fp: List[float]) -> float:
    """Scalar linear interpolation, bit-identical to ``np.interp``.

    Mirrors the exact float operations of numpy's compiled kernel
    (``arr_interp``): same clamping, same exact-knot short-circuit, and
    the same ``slope*(x - xp[j]) + fp[j]`` evaluation order — so results
    match ``float(np.interp(x, xp, fp))`` to the bit, at a fraction of
    the per-call overhead for scalar queries on the controller hot path.
    """
    n = len(xp)
    if x > xp[n - 1]:
        return fp[n - 1]
    if x < xp[0]:
        return fp[0]
    j = bisect_right(xp, x) - 1
    if j == n - 1:
        return fp[n - 1]
    xj = xp[j]
    if x == xj:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xj)
    res = slope * (x - xj) + fp[j]
    if res != res:  # numpy's NaN recovery: grids may hold inf (SLO-violating)
        res = slope * (x - xp[j + 1]) + fp[j + 1]
        if res != res and fp[j] == fp[j + 1]:
            res = fp[j]
    return res


@dataclass
class ProfileEntry:
    """Profiled behaviour of one (request type, TP, frequency) combination."""

    request_type: str
    tensor_parallelism: int
    frequency_mhz: int
    loads: Sequence[float]
    power_watts: Sequence[float]
    energy_per_request_wh: Sequence[float]
    ttft_s: Sequence[float]
    tbt_s: Sequence[float]
    max_load_slo: float
    _load_list: List[float] = field(default_factory=list, init=False, repr=False)
    _power_list: List[float] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        loads = np.asarray(self.loads, dtype=float)
        if loads.size < 2:
            raise ValueError("a profile entry needs at least two load points")
        if np.any(np.diff(loads) <= 0):
            raise ValueError("profile load points must be strictly increasing")

        # ``np.interp`` over the raw grids is what SciPy's linear
        # ``interp1d`` evaluates to for float64 inputs (with the grid
        # endpoints as fill values); the lookups themselves go through
        # :func:`_interp_scalar`, which replays numpy's kernel on plain
        # floats — this sits on the controller hot path.
        self._load_list = loads.tolist()
        self._power_list = np.asarray(self.power_watts, dtype=float).tolist()

    @property
    def config(self) -> InstanceConfig:
        return InstanceConfig(self.tensor_parallelism, self.frequency_mhz)

    def supports(self, load: float) -> bool:
        """Whether the configuration meets the SLO at the given load."""
        return load <= self.max_load_slo

    def power_at(self, load: float) -> float:
        """Interpolated instance power (W) at the given prompt-token load."""
        return _interp_scalar(max(0.0, load), self._load_list, self._power_list)


class EnergyPerformanceProfile:
    """The full profile of one model on one server type.

    Profiles are shared across services using the same model and cached
    cluster-locally in the real system; here they are plain in-memory
    objects that can be pickled alongside experiment results.
    """

    def __init__(self, model_name: str) -> None:
        self.model_name = model_name
        self._entries: Dict[Tuple[str, int, int], ProfileEntry] = {}
        # Memoised frequencies() results, invalidated whenever an entry
        # is added.  The controllers call frequencies() once per scaling
        # decision and the set-comprehension over every entry showed up
        # in campaign profiles.  Cached lists are shared: callers must
        # treat them as read-only (all in-repo callers do).
        self._frequency_cache: Dict[Tuple[str, int], List[int]] = {}
        # Each (type, TP)'s (frequency, entry) pairs in ascending
        # frequency, for best_frequency; invalidated with the above.
        self._entries_by_config: Dict[Tuple[str, int], List[Tuple[int, ProfileEntry]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_entry(self, entry: ProfileEntry) -> None:
        key = (entry.request_type, entry.tensor_parallelism, entry.frequency_mhz)
        self._entries[key] = entry
        self._frequency_cache.clear()
        self._entries_by_config.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def entry(
        self, request_type: str, tensor_parallelism: int, frequency_mhz: int
    ) -> ProfileEntry:
        key = (request_type, tensor_parallelism, frequency_mhz)
        try:
            return self._entries[key]
        except KeyError:
            raise KeyError(
                f"profile for {self.model_name} has no entry for "
                f"type={request_type} TP={tensor_parallelism} f={frequency_mhz}MHz"
            ) from None

    def has_entry(
        self, request_type: str, tensor_parallelism: int, frequency_mhz: int
    ) -> bool:
        return (request_type, tensor_parallelism, frequency_mhz) in self._entries

    def request_types(self) -> List[str]:
        return sorted({key[0] for key in self._entries})

    def frequencies(self, request_type: str, tensor_parallelism: int) -> List[int]:
        cache_key = (request_type, tensor_parallelism)
        cached = self._frequency_cache.get(cache_key)
        if cached is None:
            cached = sorted(
                {
                    key[2]
                    for key in self._entries
                    if key[0] == request_type and key[1] == tensor_parallelism
                }
            )
            self._frequency_cache[cache_key] = cached
        return cached

    def _sorted_entries(
        self, request_type: str, tensor_parallelism: int
    ) -> List[Tuple[int, ProfileEntry]]:
        cache_key = (request_type, tensor_parallelism)
        entries = self._entries_by_config.get(cache_key)
        if entries is None:
            entries = [
                (frequency, self._entries[(request_type, tensor_parallelism, frequency)])
                for frequency in self.frequencies(request_type, tensor_parallelism)
            ]
            self._entries_by_config[cache_key] = entries
        return entries

    # ------------------------------------------------------------------
    # Queries used by the controllers
    # ------------------------------------------------------------------
    def max_load(
        self, request_type: str, tensor_parallelism: int, frequency_mhz: int
    ) -> float:
        """Maximum per-instance load meeting the SLO for this configuration."""
        return self.entry(request_type, tensor_parallelism, frequency_mhz).max_load_slo

    def power(
        self,
        request_type: str,
        tensor_parallelism: int,
        frequency_mhz: int,
        load: float,
    ) -> float:
        return self.entry(request_type, tensor_parallelism, frequency_mhz).power_at(load)

    def supports(
        self,
        request_type: str,
        tensor_parallelism: int,
        frequency_mhz: int,
        load: float,
    ) -> bool:
        return self.entry(request_type, tensor_parallelism, frequency_mhz).supports(load)

    def best_frequency(
        self,
        request_type: str,
        tensor_parallelism: int,
        load: float,
        frequencies: Optional[Iterable[int]] = None,
    ) -> Optional[int]:
        """Lowest-power SLO-compliant frequency for a TP degree and load.

        This is the instance-manager decision: filter out frequencies
        that violate the SLO at the current load, then pick the one that
        minimises power (equivalently energy, since the load is fixed).
        """
        if frequencies is None:
            entries = self._sorted_entries(request_type, tensor_parallelism)
        else:
            entries = [
                (frequency, self.entry(request_type, tensor_parallelism, frequency))
                for frequency in frequencies
                if self.has_entry(request_type, tensor_parallelism, frequency)
            ]
        best: Optional[int] = None
        best_power = float("inf")
        for frequency, entry in entries:
            if not entry.supports(load):
                continue
            power = entry.power_at(load)
            if power < best_power:
                best_power = power
                best = frequency
        return best

    def instance_energy_rate(
        self,
        request_type: str,
        tensor_parallelism: int,
        frequency_mhz: int,
        load: float,
    ) -> float:
        """Instance power (W == J/s) when serving ``load``; inf if SLO-violating."""
        entry = self.entry(request_type, tensor_parallelism, frequency_mhz)
        if not entry.supports(load):
            return float("inf")
        return entry.power_at(load)
