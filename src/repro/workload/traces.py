"""Trace containers and utilities.

A trace is an ordered collection of :class:`~repro.workload.request.Request`
objects, matching the structure of the Azure invocation traces the paper
uses (timestamp, input tokens, output tokens).  Traces can be binned
into fixed intervals to obtain load (tokens per second) and request-type
mix over time, which is what Figures 1 and 2 plot and what the load
predictor consumes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.workload.classification import REQUEST_TYPE_NAMES, classify_request
from repro.workload.request import Request


@dataclass
class TraceBin:
    """Aggregated statistics of one time bin of a trace."""

    start_time: float
    duration: float
    request_count: int
    input_tokens: int
    output_tokens: int
    count_by_type: Dict[str, int] = field(default_factory=dict)
    tokens_by_type: Dict[str, int] = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens

    @property
    def tokens_per_second(self) -> float:
        """Offered load in total tokens per second over this bin."""
        return self.total_tokens / self.duration if self.duration > 0 else 0.0

    @property
    def prompt_tokens_per_second(self) -> float:
        """Prompt (input) tokens per second, the paper's TPS load metric."""
        return self.input_tokens / self.duration if self.duration > 0 else 0.0

    @property
    def requests_per_second(self) -> float:
        return self.request_count / self.duration if self.duration > 0 else 0.0


@dataclass
class Trace:
    """An ordered sequence of requests belonging to one service."""

    name: str
    requests: List[Request]

    def __post_init__(self) -> None:
        self.requests = sorted(self.requests, key=lambda r: r.arrival_time)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def duration(self) -> float:
        """Trace span in seconds (arrival of last request)."""
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_time

    @property
    def total_tokens(self) -> int:
        return sum(r.total_tokens for r in self.requests)

    @property
    def mean_tokens_per_second(self) -> float:
        duration = self.duration
        if duration <= 0:
            return 0.0
        return self.total_tokens / duration

    def slice(self, start: float, end: float, rebase: bool = True) -> "Trace":
        """Requests arriving in ``[start, end)``; arrival times rebased to 0."""
        selected = [r for r in self.requests if start <= r.arrival_time < end]
        if rebase:
            selected = [
                Request(
                    arrival_time=r.arrival_time - start,
                    input_tokens=r.input_tokens,
                    output_tokens=r.output_tokens,
                    service=r.service,
                    slo_scale=r.slo_scale,
                )
                for r in selected
            ]
        return Trace(name=f"{self.name}[{start:.0f}:{end:.0f}]", requests=selected)

    def scaled(self, rate_factor: float) -> "Trace":
        """Thin or densify the trace by sampling requests.

        ``rate_factor`` < 1 keeps a deterministic subsample (every k-th
        request); > 1 replicates requests with slight time offsets.  Used
        to size experiments to the simulated cluster capacity.
        """
        if rate_factor <= 0:
            raise ValueError("rate_factor must be positive")
        if rate_factor == 1.0:
            return self
        requests: List[Request] = []
        if rate_factor < 1.0:
            keep_every = int(round(1.0 / rate_factor))
            requests = [
                Request(
                    arrival_time=r.arrival_time,
                    input_tokens=r.input_tokens,
                    output_tokens=r.output_tokens,
                    service=r.service,
                    slo_scale=r.slo_scale,
                )
                for i, r in enumerate(self.requests)
                if i % keep_every == 0
            ]
        else:
            copies = int(round(rate_factor))
            for r in self.requests:
                for c in range(copies):
                    requests.append(
                        Request(
                            arrival_time=r.arrival_time + 0.001 * c,
                            input_tokens=r.input_tokens,
                            output_tokens=r.output_tokens,
                            service=r.service,
                            slo_scale=r.slo_scale,
                        )
                    )
        return Trace(name=f"{self.name}x{rate_factor:g}", requests=requests)


@dataclass
class BinnedTrace:
    """A named, binned trace — the fluid simulator's native input.

    Week-long synthetic traces are generated directly as bins (request
    level would mean millions of objects), and the fluid backend of the
    :class:`~repro.api.scenario.Scenario` API accepts this wrapper
    wherever a request-level :class:`Trace` would otherwise go.
    """

    name: str
    bins: List[TraceBin]

    def __len__(self) -> int:
        return len(self.bins)

    def __iter__(self):
        return iter(self.bins)

    @property
    def duration(self) -> float:
        """Binned span in seconds (end of the last bin)."""
        if not self.bins:
            return 0.0
        last = self.bins[-1]
        return last.start_time + last.duration

    @property
    def total_tokens(self) -> int:
        return sum(b.total_tokens for b in self.bins)


def bin_trace(trace: Trace, bin_seconds: float, horizon: Optional[float] = None) -> List[TraceBin]:
    """Aggregate a trace into fixed-duration bins.

    ``horizon`` extends (or truncates) the binned period; by default the
    bins cover the full trace duration.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    span = horizon if horizon is not None else trace.duration
    n_bins = max(1, int(span // bin_seconds) + (1 if span % bin_seconds else 0))
    bins = [
        TraceBin(
            start_time=i * bin_seconds,
            duration=bin_seconds,
            request_count=0,
            input_tokens=0,
            output_tokens=0,
            count_by_type={},
            tokens_by_type={},
        )
        for i in range(n_bins)
    ]
    for request in trace.requests:
        index = int(request.arrival_time // bin_seconds)
        if index >= n_bins:
            continue
        bucket = bins[index]
        bucket.request_count += 1
        bucket.input_tokens += request.input_tokens
        bucket.output_tokens += request.output_tokens
        type_name = classify_request(request).name
        bucket.count_by_type[type_name] = bucket.count_by_type.get(type_name, 0) + 1
        bucket.tokens_by_type[type_name] = (
            bucket.tokens_by_type.get(type_name, 0) + request.total_tokens
        )
    return bins


def clip_bins(bins: Sequence[TraceBin], duration_s: float) -> List[TraceBin]:
    """Clip a binned trace to ``duration_s``, like request-level clipping.

    A bin straddling the cut is truncated: its duration becomes the
    remaining window and its aggregates scale by the kept fraction, so
    the offered *rate* is unchanged while the simulated horizon (and
    hence energy) honours the requested duration exactly.  The per-type
    maps are scaled first and the totals derived from them (splitting
    tokens by the bin's original prompt share), so the truncated bin
    stays internally consistent — independent rounding could otherwise
    zero a type map while the totals still report load.
    """
    clipped = []
    for b in bins:
        if b.start_time >= duration_s:
            break
        if b.start_time + b.duration <= duration_s:
            clipped.append(b)
            continue
        fraction = (duration_s - b.start_time) / b.duration
        tokens_by_type = {
            k: int(round(v * fraction)) for k, v in b.tokens_by_type.items()
        }
        tokens_by_type = {k: v for k, v in tokens_by_type.items() if v > 0}
        count_by_type = {
            k: max(1, int(round(v * fraction)))
            for k, v in b.count_by_type.items()
            if k in tokens_by_type
        }
        total_tokens = sum(tokens_by_type.values())
        prompt_share = (
            b.input_tokens / b.total_tokens if b.total_tokens > 0 else 0.0
        )
        input_tokens = int(round(total_tokens * prompt_share))
        clipped.append(
            TraceBin(
                start_time=b.start_time,
                duration=duration_s - b.start_time,
                request_count=sum(count_by_type.values()),
                input_tokens=input_tokens,
                output_tokens=total_tokens - input_tokens,
                count_by_type=count_by_type,
                tokens_by_type=tokens_by_type,
            )
        )
    return clipped


def type_distribution(trace: Trace) -> Dict[str, float]:
    """Fraction of requests per request type over the whole trace."""
    counts = {name: 0 for name in REQUEST_TYPE_NAMES}
    for request in trace.requests:
        counts[classify_request(request).name] += 1
    total = max(1, len(trace.requests))
    return {name: counts[name] / total for name in REQUEST_TYPE_NAMES}


def save_trace_csv(trace: Trace, path: str) -> None:
    """Write a trace as CSV with columns: arrival_time, input, output, service."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["arrival_time", "input_tokens", "output_tokens", "service"])
        for request in trace.requests:
            writer.writerow(
                [f"{request.arrival_time:.3f}", request.input_tokens, request.output_tokens, request.service]
            )


def load_trace_csv(path: str, name: Optional[str] = None) -> Trace:
    """Load a trace written by :func:`save_trace_csv` (or a real trace dump)."""
    requests: List[Request] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            requests.append(
                Request(
                    arrival_time=float(row["arrival_time"]),
                    input_tokens=int(row["input_tokens"]),
                    output_tokens=int(row["output_tokens"]),
                    service=row.get("service", "default") or "default",
                )
            )
    return Trace(name=name or path, requests=requests)
