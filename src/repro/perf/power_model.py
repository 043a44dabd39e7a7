"""GPU and instance power model.

Power is modelled as an idle floor plus a dynamic component scaled by
the workload's *power activity* (how hard the silicon is driven) and by
the DVFS operating point.  Dynamic power follows the classic
``C * V^2 * f`` law; the supply voltage tracks frequency linearly down
to a voltage floor below which further frequency reduction no longer
reduces energy per operation (see :class:`repro.llm.gpu.GPUSpec`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.gpu import GPUSpec, ServerSpec, DGX_H100


@dataclass
class PowerModel:
    """Computes GPU, instance and server power draw."""

    server: ServerSpec = DGX_H100

    @property
    def gpu(self) -> GPUSpec:
        return self.server.gpu

    # ------------------------------------------------------------------
    # Per-GPU power
    # ------------------------------------------------------------------
    def dynamic_scale(self, frequency_mhz: float) -> float:
        """Relative dynamic power at a frequency (1.0 at the max frequency)."""
        self.gpu.validate_frequency(frequency_mhz)
        ratio = self.gpu.frequency_ratio(frequency_mhz)
        voltage = self.gpu.voltage_ratio(frequency_mhz)
        reference_voltage = self.gpu.voltage_ratio(self.gpu.max_frequency_mhz)
        return (voltage ** 2 * ratio) / (reference_voltage ** 2 * 1.0)

    def gpu_power(self, frequency_mhz: float, activity: float) -> float:
        """Power of one GPU at the given frequency and activity in [0, 1]."""
        if not 0.0 <= activity <= 1.0 + 1e-9:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        activity = min(1.0, activity)
        dynamic_range = self.gpu.tdp_watts - self.gpu.idle_watts
        return self.gpu.idle_watts + dynamic_range * activity * self.dynamic_scale(frequency_mhz)

    def gpu_idle_power(self) -> float:
        """Power of an idle, initialised GPU."""
        return self.gpu.idle_watts

    # ------------------------------------------------------------------
    # Instance / server power
    # ------------------------------------------------------------------
    def host_share(self, gpus: int) -> float:
        """Host (CPU, fans, NICs) power attributed to ``gpus`` GPUs."""
        return self.server.host_idle_watts * gpus / self.server.gpus_per_server

    def instance_power(self, tensor_parallelism: int, frequency_mhz: float, activity: float) -> float:
        """Power of a TP group running at the given frequency and activity."""
        gpu_power = self.gpu_power(frequency_mhz, activity)
        return tensor_parallelism * gpu_power + self.host_share(tensor_parallelism)

    def idle_instance_power(self, tensor_parallelism: int) -> float:
        """Power of an instance holding weights but serving no requests."""
        return tensor_parallelism * self.gpu_idle_power() + self.host_share(tensor_parallelism)

    def idle_gpu_slot_power(self) -> float:
        """Power of a provisioned but unassigned GPU (plus host share)."""
        return self.gpu_idle_power() + self.host_share(1)
