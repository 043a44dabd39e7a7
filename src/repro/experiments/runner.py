"""Experiment configuration and capacity planning.

The request-level simulation loop lives in
:class:`repro.api.engine.SimulationEngine`; this module keeps

* :class:`ExperimentConfig` — the configuration of one detailed run,
* the capacity-planning helpers (static-budget sizing from a trace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.framework import ControllerEpochs
from repro.llm.catalog import ModelSpec, LLAMA2_70B
from repro.perf.profile import EnergyPerformanceProfile
from repro.perf.profiler import get_default_profile
from repro.workload.classification import (
    ClassificationScheme,
    RequestType,
    classify_request,
)
from repro.workload.slo import SLOPolicy, DEFAULT_SLO_POLICY
from repro.workload.traces import Trace, bin_trace


@dataclass
class ExperimentConfig:
    """Configuration of a detailed simulation run."""

    model: ModelSpec = LLAMA2_70B
    time_step_s: float = 1.0
    static_servers: Optional[int] = None
    max_servers: int = 64
    predictor_accuracy: float = 1.0
    predictor_seed: int = 23
    slo_policy: SLOPolicy = field(default_factory=lambda: DEFAULT_SLO_POLICY)
    scheme: Optional[ClassificationScheme] = None
    epochs: ControllerEpochs = field(default_factory=ControllerEpochs)
    drain_timeout_s: float = 300.0
    profile: Optional[EnergyPerformanceProfile] = None
    #: Bin width used when the fluid backend must bin a request-level
    #: trace itself (pre-binned traces keep their own bin widths).
    fluid_bin_s: float = 300.0

    def resolved_profile(self) -> EnergyPerformanceProfile:
        if self.profile is not None:
            return self.profile
        return get_default_profile(self.model)


# ----------------------------------------------------------------------
# Capacity planning helpers
# ----------------------------------------------------------------------
def pool_loads_from_trace(
    trace: Trace,
    scheme: ClassificationScheme,
    bin_seconds: float = 300.0,
) -> Dict[str, float]:
    """Per-pool peak prompt-token loads observed in the trace."""
    bins = bin_trace(trace, bin_seconds)
    peaks: Dict[str, float] = {}
    for trace_bin in bins:
        per_pool: Dict[str, float] = {}
        for type_name, count in trace_bin.count_by_type.items():
            pool = scheme.pool_of(RequestType.from_name(type_name))
            tokens = trace_bin.tokens_by_type.get(type_name, 0)
            # Approximate the prompt share of the bucket's tokens.
            prompt_share = trace_bin.input_tokens / max(1, trace_bin.total_tokens)
            per_pool[pool] = per_pool.get(pool, 0.0) + tokens * prompt_share / bin_seconds
        for pool, load in per_pool.items():
            peaks[pool] = max(peaks.get(pool, 0.0), load)
    return peaks


def load_fractions_from_trace(
    trace: Trace, scheme: ClassificationScheme
) -> Dict[str, float]:
    """Fraction of prompt tokens per pool over the whole trace."""
    totals: Dict[str, float] = {}
    for request in trace:
        pool = scheme.pool_of(classify_request(request))
        totals[pool] = totals.get(pool, 0.0) + request.input_tokens
    grand_total = sum(totals.values()) or 1.0
    return {pool: value / grand_total for pool, value in totals.items()}


def recommended_static_servers(
    trace: Trace,
    profile: EnergyPerformanceProfile,
    scheme: ClassificationScheme,
    gpus_per_server: int = 8,
) -> int:
    """Servers needed to carry the trace's peak at TP8 / max frequency.

    This mirrors how the paper provisions the static baselines (12
    servers for the 1-hour trace): each pool gets enough highest-
    performance nodes for its own peak.
    """
    peaks = pool_loads_from_trace(trace, scheme)
    total = 0
    for pool, peak in peaks.items():
        governing = scheme.heaviest_member(pool).name
        frequencies = profile.frequencies(governing, 8)
        capacity = profile.max_load(governing, 8, max(frequencies)) if frequencies else 0.0
        if capacity <= 0:
            continue
        total += max(1, math.ceil(peak / capacity))
    return max(1, total)


def resolve_static_servers(
    config: ExperimentConfig, trace: Trace, profile: EnergyPerformanceProfile
) -> int:
    """The static server budget for one run, without mutating the config.

    When the config does not pin a budget, size it from per-bucket peaks
    (9-pool accounting) regardless of the policy's own pooling, exactly
    as the paper gives every baseline the same peak-capable cluster.
    """
    if config.static_servers is not None:
        return config.static_servers
    from repro.workload.classification import DEFAULT_SCHEME

    return recommended_static_servers(trace, profile, DEFAULT_SCHEME)
