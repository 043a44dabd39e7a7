"""Analytical latency and throughput model of a tensor-parallel instance.

The model captures the two computationally distinct phases of LLM
inference (Section II of the paper):

* **prefill** — compute-bound; time scales with the number of input
  tokens and inversely with the aggregate tensor-core throughput of the
  TP group, which scales with the GPU core frequency;
* **decode** — memory-bound; each iteration streams the weight shard
  plus the KV cache of the running batch from HBM, whose bandwidth is
  nearly frequency-independent, and pays a per-layer communication and
  scheduling overhead.

Under continuous batching, an instance receiving an open-loop load
settles into a steady state described by Little's law: the decode batch
grows until the instance generates tokens as fast as they are demanded.
The model solves for that steady state and derives TTFT, TBT, the KV
cache occupancy and the busy fractions, which together determine SLO
feasibility and (via :mod:`repro.perf.power_model`) power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.llm.catalog import ModelSpec
from repro.llm.gpu import GPUSpec, ServerSpec, DGX_H100
from repro.perf.config import InstanceConfig, WorkloadSlice


# ----------------------------------------------------------------------
# Tunable model constants (calibrated against the qualitative shapes of
# the paper's Tables I-III; see tests/test_perf_calibration.py).
# ----------------------------------------------------------------------
#: Fraction of peak tensor throughput achieved during prefill.
PREFILL_MFU = 0.38
#: Fraction of peak tensor throughput achieved by batched decode GEMMs.
DECODE_MFU = 0.55
#: Fixed CPU/scheduling overhead per decode iteration (seconds).
ITERATION_OVERHEAD_S = 0.004
#: Per-all-reduce latency (seconds); two all-reduces per layer.
ALLREDUCE_LATENCY_S = 8e-6
#: Fraction of the theoretical KV-cache capacity usable in practice.
KV_UTILIZATION = 0.90
#: Hard cap on concurrently running sequences (vLLM ``max_num_seqs``).
MAX_BATCH = 256
#: Busy-fraction ceiling beyond which the instance is considered unstable.
MAX_UTILIZATION = 0.95


@dataclass(frozen=True)
class OperatingPoint:
    """Steady-state behaviour of one instance configuration under load.

    ``feasible`` is False when the configuration cannot sustain the load
    at all (saturation, KV exhaustion); SLO compliance is checked
    separately by the energy model because SLOs depend on the request
    type and service.
    """

    config: InstanceConfig
    workload: WorkloadSlice
    feasible: bool
    reason: str
    prefill_time_s: float
    ttft_s: float
    tbt_s: float
    batch_size: float
    kv_tokens: float
    prefill_busy: float
    decode_busy: float
    utilization: float
    power_activity: float


class _ConfigConstants(NamedTuple):
    """Per-(TP, frequency) quantities that depend only on the config.

    Every field is the *whole* value the corresponding elementary method
    used to compute, so cached lookups are bit-identical to recomputing:
    no constant folding or reassociation happens here, only memoisation.
    """

    prefill_rate: float
    weight_read_time: float
    decode_compute_time_per_token: float
    iteration_comm_time: float
    memory_bandwidth: float


class LatencyModel:
    """Latency/throughput model for one LLM on one server type."""

    def __init__(self, model: ModelSpec, server: ServerSpec = DGX_H100) -> None:
        self.model = model
        self.server = server
        self.gpu: GPUSpec = server.gpu
        # The instance step loop evaluates iteration_time once per decode
        # step per instance; everything except batch/context is a pure
        # function of (tp, frequency), so it is computed once per config.
        self._config_constants: Dict[Tuple[int, int], _ConfigConstants] = {}
        self._kv_capacity_by_tp: Dict[int, float] = {}
        self._kv_bytes_per_token: Optional[float] = None

    def _constants(self, config: InstanceConfig) -> _ConfigConstants:
        key = (config.tp, config.frequency_mhz)
        cached = self._config_constants.get(key)
        if cached is None:
            ratio = self._frequency_ratio(config)
            bandwidth = (
                self.gpu.memory_bandwidth_gbps * 1e9 * self._bandwidth_factor(ratio)
            )
            flops_per_token = 2.0 * self.model.active_params_b * 1e9
            cached = _ConfigConstants(
                prefill_rate=(
                    config.tp * self.gpu.peak_fp16_tflops * 1e12 * PREFILL_MFU * ratio
                )
                / flops_per_token,
                weight_read_time=self.model.active_weight_bytes / config.tp / bandwidth,
                decode_compute_time_per_token=flops_per_token
                / (config.tp * self.gpu.peak_fp16_tflops * 1e12 * DECODE_MFU * ratio),
                iteration_comm_time=(
                    0.0
                    if config.tp <= 1
                    else 2.0
                    * self.model.n_layers
                    * ALLREDUCE_LATENCY_S
                    * math.log2(config.tp)
                ),
                memory_bandwidth=bandwidth,
            )
            self._config_constants[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Elementary quantities
    # ------------------------------------------------------------------
    def _frequency_ratio(self, config: InstanceConfig) -> float:
        self.gpu.validate_frequency(config.frequency_mhz)
        return self.gpu.frequency_ratio(config.frequency_mhz)

    def _bandwidth_factor(self, frequency_ratio: float) -> float:
        """HBM bandwidth is nearly independent of the core clock."""
        return 0.85 + 0.15 * frequency_ratio

    def prefill_rate(self, config: InstanceConfig) -> float:
        """Sustained prefill throughput in prompt tokens per second."""
        return self._constants(config).prefill_rate

    def prefill_time(self, config: InstanceConfig, input_tokens: float) -> float:
        """Isolated prefill latency for a prompt of ``input_tokens``."""
        compute = input_tokens / self.prefill_rate(config)
        comm = self._prefill_comm_time(config, input_tokens)
        return compute + comm

    def _prefill_comm_time(self, config: InstanceConfig, input_tokens: float) -> float:
        if config.tp <= 1:
            return 0.0
        bytes_per_layer = (
            2.0  # two all-reduces per transformer layer
            * input_tokens
            * self.model.hidden_size
            * 2.0  # fp16 bytes
            * (config.tp - 1)
            / config.tp
        )
        transfer = bytes_per_layer / (self.gpu.nvlink_bandwidth_gbps * 1e9)
        latency = 2.0 * ALLREDUCE_LATENCY_S * math.log2(config.tp)
        return self.model.n_layers * (transfer + latency)

    def _iteration_comm_time(self, config: InstanceConfig) -> float:
        return self._constants(config).iteration_comm_time

    def weight_read_time(self, config: InstanceConfig) -> float:
        """Time to stream the per-GPU weight shard from HBM once."""
        return self._constants(config).weight_read_time

    def kv_read_time_per_token(self, config: InstanceConfig, context: float) -> float:
        """Marginal HBM time per running sequence (its KV cache) per iteration."""
        bandwidth = self._constants(config).memory_bandwidth
        kv_bytes = self._kv_bytes_per_token
        if kv_bytes is None:
            kv_bytes = self.model.kv_bytes_per_token()
            self._kv_bytes_per_token = kv_bytes
        return context * kv_bytes / config.tp / bandwidth

    def decode_compute_time_per_token(self, config: InstanceConfig) -> float:
        """Tensor-core time per generated token (matters only at huge batch)."""
        return self._constants(config).decode_compute_time_per_token

    def iteration_time(
        self, config: InstanceConfig, batch_size: float, context: float
    ) -> float:
        """Duration of one decode iteration with ``batch_size`` sequences."""
        constants = self._constants(config)
        batch = max(1.0, batch_size)
        memory = constants.weight_read_time + batch * self.kv_read_time_per_token(
            config, context
        )
        compute = batch * constants.decode_compute_time_per_token
        return max(memory, compute) + constants.iteration_comm_time + ITERATION_OVERHEAD_S

    def kv_capacity_tokens(self, config: InstanceConfig) -> float:
        """Usable KV-cache capacity (tokens of context) of the instance."""
        cached = self._kv_capacity_by_tp.get(config.tp)
        if cached is None:
            cached = self.model.kv_capacity_tokens(config.tp, self.server) * KV_UTILIZATION
            self._kv_capacity_by_tp[config.tp] = cached
        return cached

    def max_batch(self, config: InstanceConfig, context: float) -> float:
        """Maximum concurrent sequences permitted by KV memory and the seq cap."""
        if context <= 0:
            return float(MAX_BATCH)
        return min(float(MAX_BATCH), self.kv_capacity_tokens(config) / context)

    # ------------------------------------------------------------------
    # Steady-state operating point
    # ------------------------------------------------------------------
    def solve(self, config: InstanceConfig, workload: WorkloadSlice) -> OperatingPoint:
        """Solve the steady-state operating point of ``config`` under ``workload``."""
        self.server.validate_tensor_parallelism(config.tp)

        def infeasible(reason: str, **extra: float) -> OperatingPoint:
            return OperatingPoint(
                config=config,
                workload=workload,
                feasible=False,
                reason=reason,
                prefill_time_s=extra.get("prefill_time_s", float("inf")),
                ttft_s=float("inf"),
                tbt_s=float("inf"),
                batch_size=extra.get("batch_size", 0.0),
                kv_tokens=extra.get("kv_tokens", 0.0),
                prefill_busy=extra.get("prefill_busy", 1.0),
                decode_busy=extra.get("decode_busy", 1.0),
                utilization=1.0,
                power_activity=1.0,
            )

        if not self.model.fits(config.tp, self.server):
            return infeasible("weights do not fit at this tensor parallelism")

        context = workload.average_context
        prefill_time = self.prefill_time(config, workload.input_tokens)

        if workload.prompt_tokens_per_second <= 0:
            # Idle instance: trivially feasible, minimal batch.
            tbt = self.iteration_time(config, 1.0, context)
            return OperatingPoint(
                config=config,
                workload=workload,
                feasible=True,
                reason="idle",
                prefill_time_s=prefill_time,
                ttft_s=prefill_time,
                tbt_s=tbt,
                batch_size=0.0,
                kv_tokens=0.0,
                prefill_busy=0.0,
                decode_busy=0.0,
                utilization=0.0,
                power_activity=0.0,
            )

        arrival_rate = workload.arrival_rate
        decode_demand = workload.decode_tokens_per_second

        # Prefill busy fraction.
        prefill_busy = workload.prompt_tokens_per_second / self.prefill_rate(config)
        prefill_busy += arrival_rate * self._prefill_comm_time(config, workload.input_tokens)
        if prefill_busy >= MAX_UTILIZATION:
            return infeasible(
                "prefill saturates the instance",
                prefill_time_s=prefill_time,
                prefill_busy=prefill_busy,
            )

        # Decode steady state via Little's law:
        #   B = decode_demand * t_iter(B) / (1 - prefill_busy)
        # with t_iter(B) = t0 + B * t_kv in the memory-bound regime.
        residual = 1.0 - prefill_busy
        t_fixed = (
            self.weight_read_time(config)
            + self._iteration_comm_time(config)
            + ITERATION_OVERHEAD_S
        )
        t_kv = self.kv_read_time_per_token(config, context)
        t_compute = self.decode_compute_time_per_token(config)

        # Compute-throughput check: the marginal tensor-core time per token
        # must fit inside the residual capacity.
        if decode_demand * t_compute >= residual:
            return infeasible(
                "decode compute saturates the instance",
                prefill_time_s=prefill_time,
                prefill_busy=prefill_busy,
            )

        denominator = residual - decode_demand * t_kv
        if denominator <= 0:
            return infeasible(
                "decode memory bandwidth saturates the instance",
                prefill_time_s=prefill_time,
                prefill_busy=prefill_busy,
            )
        batch = decode_demand * t_fixed / denominator
        batch = max(batch, min(1.0, decode_demand * 1.0))

        # KV-cache feasibility.
        kv_tokens = batch * context
        if kv_tokens > self.kv_capacity_tokens(config) or batch > MAX_BATCH:
            return infeasible(
                "KV cache capacity exceeded",
                prefill_time_s=prefill_time,
                prefill_busy=prefill_busy,
                batch_size=batch,
                kv_tokens=kv_tokens,
            )

        iteration = self.iteration_time(config, batch, context)
        tbt = iteration / residual if batch >= 1.0 else iteration

        # Work-conserving utilization: how much of peak decode throughput is
        # consumed, measured against the largest batch the memory allows.
        capacity_batch = max(1.0, self.max_batch(config, context))
        capacity_iteration = self.iteration_time(config, capacity_batch, context)
        decode_capacity = capacity_batch / capacity_iteration * residual
        decode_utilization = min(1.0, decode_demand / decode_capacity) if decode_capacity > 0 else 1.0
        utilization = prefill_busy + decode_utilization * residual
        if utilization >= MAX_UTILIZATION:
            return infeasible(
                "instance utilization too high",
                prefill_time_s=prefill_time,
                prefill_busy=prefill_busy,
                batch_size=batch,
                kv_tokens=kv_tokens,
            )

        # TTFT: queueing delay grows as the instance approaches saturation.
        queue_factor = 1.0 + 0.5 * utilization / max(1e-6, 1.0 - utilization)
        ttft = prefill_time * queue_factor

        # Busy fraction actually spent generating tokens (decode iterations
        # run back to back whenever at least one sequence is active).
        if batch >= 1.0:
            decode_busy = residual
        else:
            decode_busy = decode_demand * iteration

        # Power activity: prefill is compute-intensive (full power), decode is
        # memory-bound and draws less, increasing with batch size.
        decode_power_factor = 0.35 + 0.55 * min(1.0, batch / 64.0)
        power_activity = min(1.0, prefill_busy + decode_busy * decode_power_factor)

        return OperatingPoint(
            config=config,
            workload=workload,
            feasible=True,
            reason="ok",
            prefill_time_s=prefill_time,
            ttft_s=ttft,
            tbt_s=tbt,
            batch_size=batch,
            kv_tokens=kv_tokens,
            prefill_busy=prefill_busy,
            decode_busy=decode_busy,
            utilization=utilization,
            power_activity=power_activity,
        )

    # ------------------------------------------------------------------
    # Capacity search helpers
    # ------------------------------------------------------------------
    def max_load(
        self,
        config: InstanceConfig,
        workload: WorkloadSlice,
        ttft_slo_s: Optional[float] = None,
        tbt_slo_s: Optional[float] = None,
        tolerance: float = 10.0,
    ) -> float:
        """Largest prompt-token load the configuration can sustain.

        Binary search over the offered load; SLO limits are optional
        (without them only stability/KV feasibility is required).
        """
        low, high = 0.0, 1e6
        probe = workload.with_load(high)
        if self._acceptable(config, probe, ttft_slo_s, tbt_slo_s):
            return high
        while high - low > tolerance:
            mid = (low + high) / 2.0
            if self._acceptable(config, workload.with_load(mid), ttft_slo_s, tbt_slo_s):
                low = mid
            else:
                high = mid
        return low

    def _acceptable(
        self,
        config: InstanceConfig,
        workload: WorkloadSlice,
        ttft_slo_s: Optional[float],
        tbt_slo_s: Optional[float],
    ) -> bool:
        point = self.solve(config, workload)
        if not point.feasible:
            return False
        if ttft_slo_s is not None and point.ttft_s > ttft_slo_s:
            return False
        if tbt_slo_s is not None and point.tbt_s > tbt_slo_s:
            return False
        return True
