"""The inference request abstraction.

A request carries its arrival time and true input/output token counts
(as in the Azure traces the paper uses, which record timestamp, input
tokens and output tokens).  The *true* output length is only used by the
simulator; controllers see a predicted length class instead, mirroring
the paper's output-length proxy predictor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


_REQUEST_COUNTER = itertools.count()


@dataclass
class Request:
    """A single LLM inference request.

    Attributes
    ----------
    arrival_time:
        Seconds since the start of the trace.
    input_tokens / output_tokens:
        True prompt length and true generated length.
    request_id:
        Unique id assigned at construction.
    service:
        Name of the originating service (e.g. ``"conversation"``).
    slo_scale:
        Multiplier on the baseline SLO (5x of isolated latency); some
        services run with relaxed 10x or 20x SLOs (Section III-A).
    """

    arrival_time: float
    input_tokens: int
    output_tokens: int
    request_id: int = field(default_factory=lambda: next(_REQUEST_COUNTER))
    service: str = "default"
    slo_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.input_tokens <= 0:
            raise ValueError(f"input_tokens must be positive, got {self.input_tokens}")
        if self.output_tokens <= 0:
            raise ValueError(f"output_tokens must be positive, got {self.output_tokens}")
        if self.arrival_time < 0:
            raise ValueError(f"arrival_time must be non-negative, got {self.arrival_time}")

    @property
    def total_tokens(self) -> int:
        """Total tokens processed for this request (prompt + generation)."""
        return self.input_tokens + self.output_tokens


@dataclass
class RequestOutcome:
    """What happened to a request once it ran through the cluster.

    All times are in seconds of simulated time.  ``ttft`` is the
    time-to-first-token (queueing plus prefill) and ``tbt`` the average
    time-between-tokens over the decode phase, matching the paper's
    performance metrics (Section II).
    """

    request: Request
    pool: str
    instance_id: str
    start_time: float
    first_token_time: float
    completion_time: float
    squashed: bool = False

    @property
    def ttft(self) -> float:
        """Time to first token in seconds."""
        return self.first_token_time - self.request.arrival_time

    @property
    def tbt(self) -> float:
        """Average time between output tokens in seconds."""
        decode_tokens = max(1, self.request.output_tokens - 1)
        return (self.completion_time - self.first_token_time) / decode_tokens

    @property
    def latency(self) -> float:
        """End-to-end latency in seconds."""
        return self.completion_time - self.request.arrival_time

    def meets(self, ttft_slo: float, tbt_slo: float) -> bool:
        """Whether this outcome satisfies the given SLOs (seconds)."""
        if self.squashed:
            return False
        return self.ttft <= ttft_slo and self.tbt <= tbt_slo
