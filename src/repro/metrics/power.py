"""Power time series (paper Figure 8: cluster power and per-GPU power)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np


@dataclass
class PowerTimeSeries:
    """Per-step cluster power and derived per-GPU power."""

    samples: List[Tuple[float, float, int]] = field(default_factory=list)

    def add_step(self, time: float, power_watts: float, online_gpus: int) -> None:
        self.samples.append((time, power_watts, online_gpus))

    @property
    def count(self) -> int:
        return len(self.samples)

    def cluster_power(self) -> np.ndarray:
        return np.asarray([power for _, power, _ in self.samples], dtype=float)

    def per_gpu_power(self) -> np.ndarray:
        values = [
            power / gpus if gpus > 0 else 0.0 for _, power, gpus in self.samples
        ]
        return np.asarray(values, dtype=float)

    def cluster_percentile(self, percentile: float) -> float:
        values = self.cluster_power()
        return float(np.percentile(values, percentile)) if values.size else 0.0

    def per_gpu_percentile(self, percentile: float) -> float:
        values = self.per_gpu_power()
        return float(np.percentile(values, percentile)) if values.size else 0.0

    def percentile_table(self, percentiles=(50, 90, 99)) -> Dict[str, Dict[int, float]]:
        """Cluster (kW) and per-GPU (W) power percentiles, Figure 8's rows."""
        return {
            "cluster_kw": {
                int(p): self.cluster_percentile(p) / 1000.0 for p in percentiles
            },
            "per_gpu_w": {int(p): self.per_gpu_percentile(p) for p in percentiles},
        }

    def mean_cluster_power(self) -> float:
        values = self.cluster_power()
        return float(values.mean()) if values.size else 0.0

    def compact(self) -> "PowerTimeSeries":
        """Store samples as a flat float array (lean transfers).

        ``(time, power, gpus)`` rows keep unpacking identically, so every
        derived statistic is unchanged; only the pickled size shrinks.
        """
        if self.samples and not isinstance(self.samples, np.ndarray):
            self.samples = np.asarray(self.samples, dtype=float)
        return self
