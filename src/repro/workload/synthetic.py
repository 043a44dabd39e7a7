"""Synthetic production-like traces.

The paper uses private week-long invocation traces of two Azure
services, *Coding* and *Conversation*, plus a public 1-hour trace.
Those traces are not available, so this module generates synthetic
equivalents that preserve the two signals the controllers react to:

* the request-type mix over time (Figure 1): Conversation skews towards
  short inputs / long outputs, Coding towards long inputs / short
  outputs, and both contain every bucket with time-varying popularity;
* the load shape over time (Figure 2): both services are diurnal;
  Coding has pronounced peaks during working hours, deep valleys at
  night and much lower weekend load (peak/valley about 35x), while
  Conversation is milder (peak/valley about 3x).

Lengths are drawn from log-normal distributions per service, which is
the standard empirical fit for LLM prompt/generation lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.rng import RngStream
from repro.workload.classification import REQUEST_TYPE_NAMES, classify_lengths
from repro.workload.request import Request
from repro.workload.traces import Trace, TraceBin, clip_bins

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


@dataclass(frozen=True)
class ServiceProfile:
    """Statistical description of one LLM service's workload.

    Attributes
    ----------
    name:
        Service name (``"coding"`` or ``"conversation"``).
    input_median / input_sigma:
        Median and log-space sigma of the prompt-length log-normal.
    output_median / output_sigma:
        Median and log-space sigma of the generation-length log-normal.
    peak_requests_per_second:
        Arrival rate at the weekly peak.
    night_factor:
        Load multiplier at the deepest point of the night valley.
    weekend_factor:
        Additional multiplier applied on Saturday and Sunday.
    diurnal_sharpness:
        Controls how peaky the working-hours bump is (higher = sharper).
    burstiness:
        Multiplicative noise on the per-bin arrival rate.
    max_input_tokens / max_output_tokens:
        Hard caps (the model context window and generation limit).
    """

    name: str
    input_median: float
    input_sigma: float
    output_median: float
    output_sigma: float
    peak_requests_per_second: float = 2.0
    night_factor: float = 0.3
    weekend_factor: float = 0.8
    diurnal_sharpness: float = 2.0
    burstiness: float = 0.15
    max_input_tokens: int = 8192
    max_output_tokens: int = 2048

    def load_shape(self, time_s: float) -> float:
        """Relative load (0..1] at ``time_s`` seconds from Monday 00:00."""
        day = int(time_s // SECONDS_PER_DAY) % 7
        hour = (time_s % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        # Working-hours bump centred at 14:00 local time.
        bump = math.exp(-((hour - 14.0) ** 2) / (2.0 * (4.5 / self.diurnal_sharpness) ** 2))
        shape = self.night_factor + (1.0 - self.night_factor) * bump
        if day >= 5:  # Saturday / Sunday
            shape *= self.weekend_factor
        return max(1e-3, min(1.0, shape))

    def arrival_rate(self, time_s: float) -> float:
        """Expected arrivals per second at ``time_s``."""
        return self.peak_requests_per_second * self.load_shape(time_s)


#: Conversation: shortish prompts, long generations, mild diurnality.
CONVERSATION_PROFILE = ServiceProfile(
    name="conversation",
    input_median=330.0,
    input_sigma=1.15,
    output_median=260.0,
    output_sigma=0.95,
    peak_requests_per_second=2.0,
    night_factor=0.42,
    weekend_factor=0.90,
    diurnal_sharpness=1.4,
    burstiness=0.08,
)

#: Coding: long prompts (files / diffs), short generations, deep valleys.
CODING_PROFILE = ServiceProfile(
    name="coding",
    input_median=900.0,
    input_sigma=1.05,
    output_median=110.0,
    output_sigma=1.00,
    peak_requests_per_second=2.0,
    night_factor=0.08,
    weekend_factor=0.30,
    diurnal_sharpness=2.4,
    burstiness=0.12,
)

SERVICE_PROFILES: Dict[str, ServiceProfile] = {
    CONVERSATION_PROFILE.name: CONVERSATION_PROFILE,
    CODING_PROFILE.name: CODING_PROFILE,
}


def get_service_profile(name: str) -> ServiceProfile:
    try:
        return SERVICE_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(SERVICE_PROFILES))
        raise KeyError(f"unknown service {name!r}; known services: {known}") from None


@dataclass
class SyntheticTraceGenerator:
    """Generates request-level or binned traces for a service profile."""

    profile: ServiceProfile
    seed: int = 7
    rate_scale: float = 1.0
    _rng: RngStream = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = RngStream(self.seed, f"trace/{self.profile.name}")

    # ------------------------------------------------------------------
    # Length sampling
    # ------------------------------------------------------------------
    def _sample_lengths(self, count: int, time_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``count`` (input, output) token counts as two integer columns.

        The length mix drifts slowly over the day so the request-type
        distribution changes over time (as in Figure 1): afternoons see
        slightly longer interactions than early mornings.  ``np.rint``
        rounds half to even, like Python's ``round``.
        """
        hour = (time_s % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        drift = 1.0 + 0.25 * math.sin(2.0 * math.pi * (hour - 6.0) / 24.0)
        rng = self._rng.generator
        inputs = rng.lognormal(
            mean=math.log(self.profile.input_median * drift),
            sigma=self.profile.input_sigma,
            size=count,
        )
        outputs = rng.lognormal(
            mean=math.log(self.profile.output_median * drift),
            sigma=self.profile.output_sigma,
            size=count,
        )
        return (
            np.clip(np.rint(inputs), 4, self.profile.max_input_tokens).astype(np.int64),
            np.clip(np.rint(outputs), 2, self.profile.max_output_tokens).astype(np.int64),
        )

    def _bin_rate(self, start: float, bin_seconds: float) -> float:
        """Expected arrivals in a bin starting at ``start``."""
        mid = start + bin_seconds / 2.0
        rate = self.profile.arrival_rate(mid) * self.rate_scale
        noise = 1.0 + self.profile.burstiness * float(self._rng.generator.standard_normal())
        return max(0.0, rate * noise) * bin_seconds

    # ------------------------------------------------------------------
    # Request-level traces (used for the 1-hour and 1-day experiments)
    # ------------------------------------------------------------------
    def generate_requests(
        self,
        duration_s: float,
        start_offset_s: float = 0.0,
        bin_seconds: float = 10.0,
        slo_scale: float = 1.0,
        window_s: Optional[float] = None,
    ) -> Trace:
        """Generate a request-level trace covering ``duration_s`` seconds.

        ``start_offset_s`` positions the window inside the week (e.g. a
        Tuesday afternoon peak hour), which sets the load level and mix.

        ``window_s`` keeps only the first ``window_s`` seconds, and
        synthesis stops at the bin that covers them.  Bins draw from the
        random stream one after another, so the result is the full
        trace's ``slice(0, window_s)`` (named like it) when the full
        trace has an arrival after ``window_s``, and the full trace
        otherwise.  Deciding which takes only the arrival counts of the
        bins up to the first non-empty one past the window.
        """
        rng = self._rng.generator
        # Per-bin columns; the empty seeds keep a trace without arrivals valid.
        arrivals = [np.empty(0)]
        inputs = [np.empty(0, dtype=np.int64)]
        outputs = [np.empty(0, dtype=np.int64)]
        past_window = False
        n_bins = int(math.ceil(duration_s / bin_seconds))
        for index in range(n_bins):
            bin_start = index * bin_seconds
            expected = self._bin_rate(start_offset_s + bin_start, bin_seconds)
            count = int(rng.poisson(expected))
            if count == 0:
                continue
            if window_s is not None and bin_start > window_s:
                # Its arrivals all fall after the window, so the full trace
                # would be clipped; no later draw can change the result.
                past_window = True
                break
            offsets = np.sort(rng.uniform(0.0, bin_seconds, size=count))
            n_in, n_out = self._sample_lengths(count, start_offset_s + bin_start)
            arrivals.append(bin_start + offsets)
            inputs.append(n_in)
            outputs.append(n_out)
        arrival = np.concatenate(arrivals)
        n_in = np.concatenate(inputs)
        n_out = np.concatenate(outputs)
        name = f"{self.profile.name}-{duration_s / 3600.0:.0f}h"
        last_arrival = arrival.max() if arrival.size else 0.0
        if window_s is not None and (past_window or window_s < last_arrival):
            keep = arrival < window_s
            arrival, n_in, n_out = arrival[keep], n_in[keep], n_out[keep]
            name = f"{name}[0:{window_s:.0f}]"
        service = self.profile.name
        requests = [
            Request(
                arrival_time=at,
                input_tokens=i,
                output_tokens=o,
                service=service,
                slo_scale=slo_scale,
            )
            for at, i, o in zip(arrival.tolist(), n_in.tolist(), n_out.tolist())
        ]
        return Trace(name=name, requests=requests)

    # ------------------------------------------------------------------
    # Binned traces (used for the week-long fluid simulations)
    # ------------------------------------------------------------------
    def generate_bins(
        self,
        duration_s: float,
        bin_seconds: float = 300.0,
        start_offset_s: float = 0.0,
        samples_per_bin: int = 64,
    ) -> List[TraceBin]:
        """Generate aggregate per-bin load without materialising requests.

        Each bin records the expected request count and the token volume
        per request type, estimated from ``samples_per_bin`` sampled
        length pairs.  This is the input to the coarse (fluid) simulator
        used for the day/week experiments, mirroring the paper's
        discrete-time simulator for large-scale results (Section V-E).
        """
        bins: List[TraceBin] = []
        n_bins = int(math.ceil(duration_s / bin_seconds))
        for index in range(n_bins):
            bin_start = index * bin_seconds
            expected = self._bin_rate(start_offset_s + bin_start, bin_seconds)
            count = max(0, int(round(expected)))
            count_by_type: Dict[str, int] = {}
            tokens_by_type: Dict[str, int] = {}
            input_tokens = 0
            output_tokens = 0
            if count > 0:
                sample_count = min(samples_per_bin, max(8, count))
                n_in, n_out = self._sample_lengths(sample_count, start_offset_s + bin_start)
                # Scale sampled statistics up to the expected bin volume.
                per_sample_weight = count / sample_count
                types = classify_lengths(n_in, n_out)
                type_counts = np.bincount(types).tolist()
                type_tokens = np.bincount(types, weights=n_in + n_out).tolist()
                for code in dict.fromkeys(types.tolist()):  # first-appearance order
                    type_name = REQUEST_TYPE_NAMES[code]
                    count_by_type[type_name] = int(round(type_counts[code] * per_sample_weight))
                    tokens_by_type[type_name] = int(round(type_tokens[code] * per_sample_weight))
                input_tokens = int(round(int(n_in.sum()) * per_sample_weight))
                output_tokens = int(round(int(n_out.sum()) * per_sample_weight))
            bins.append(
                TraceBin(
                    start_time=bin_start,
                    duration=bin_seconds,
                    request_count=count,
                    input_tokens=input_tokens,
                    output_tokens=output_tokens,
                    count_by_type=count_by_type,
                    tokens_by_type=tokens_by_type,
                )
            )
        return bins


# ----------------------------------------------------------------------
# Convenience constructors used throughout the experiments
# ----------------------------------------------------------------------
def make_one_hour_trace(
    service: str = "conversation",
    seed: int = 7,
    rate_scale: float = 1.0,
    slo_scale: float = 1.0,
    duration_s: Optional[float] = None,
) -> Trace:
    """A 1-hour request-level trace (stand-in for the open-source trace).

    The window is placed on Tuesday early afternoon, near the weekly
    peak, so that the hour contains both a ramp and a local dip.
    ``duration_s`` keeps only the hour's first ``duration_s`` seconds
    (see :meth:`SyntheticTraceGenerator.generate_requests`).
    """
    generator = SyntheticTraceGenerator(get_service_profile(service), seed=seed, rate_scale=rate_scale)
    start = SECONDS_PER_DAY + 12.5 * SECONDS_PER_HOUR  # Tuesday 12:30
    return generator.generate_requests(
        duration_s=SECONDS_PER_HOUR,
        start_offset_s=start,
        slo_scale=slo_scale,
        window_s=duration_s,
    )


def make_day_trace(
    service: str = "conversation",
    seed: int = 7,
    rate_scale: float = 1.0,
    slo_scale: float = 1.0,
) -> Trace:
    """A 24-hour request-level trace starting Tuesday 00:00."""
    generator = SyntheticTraceGenerator(get_service_profile(service), seed=seed, rate_scale=rate_scale)
    return generator.generate_requests(
        duration_s=SECONDS_PER_DAY,
        start_offset_s=SECONDS_PER_DAY,
        bin_seconds=30.0,
        slo_scale=slo_scale,
    )


def make_week_trace(
    service: str = "conversation",
    seed: int = 7,
    rate_scale: float = 1.0,
    bin_seconds: float = 300.0,
    duration_s: Optional[float] = None,
) -> List[TraceBin]:
    """A week-long binned trace starting Monday 00:00 (for fluid runs).

    ``duration_s`` keeps only the week's first ``duration_s`` seconds.
    Bins draw from the random stream one after another, so generating
    only the bins that cover them and truncating the last one with
    :func:`clip_bins` gives the full week clipped to ``duration_s``.
    """
    generator = SyntheticTraceGenerator(get_service_profile(service), seed=seed, rate_scale=rate_scale)
    bins = generator.generate_bins(
        duration_s=SECONDS_PER_WEEK if duration_s is None else min(duration_s, SECONDS_PER_WEEK),
        bin_seconds=bin_seconds,
    )
    return bins if duration_s is None else clip_bins(bins, duration_s)
