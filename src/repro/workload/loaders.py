"""Trace-replay loaders: CSV and Azure-format invocation traces.

The paper replays Azure LLM-inference invocation traces (timestamp,
context tokens, generated tokens).  This module grounds the simulator in
the same kind of data:

* :func:`load_request_csv` — generic request CSVs with flexible column
  names (``arrival_time``/``timestamp``, ``input_tokens``/``ContextTokens``,
  ``output_tokens``/``GeneratedTokens``);
* :func:`load_azure_trace` — the Azure LLM-inference trace format
  (datetime ``TIMESTAMP`` column), rebased to seconds from the first
  arrival, with optional burst-preserving resampling and duration
  clipping;
* :func:`resample_trace` — deterministic error-diffusion resampling that
  scales the request rate while preserving the local burst structure of
  the original arrivals (uniform thinning or Poisson re-drawing would
  flatten exactly the bursts the controllers must react to);
* :func:`sample_trace_path` — bundled offline sample traces used by the
  test suite, the examples and the CLI quickstart.

Parsed rows are cached per ``(path, mtime, size)`` so that grids whose
scenarios share a trace file parse it once per process; every load
returns fresh :class:`~repro.workload.request.Request` objects.
"""

from __future__ import annotations

import csv
import os
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workload.request import Request
from repro.workload.traces import Trace

#: Accepted spellings (lower-cased, underscores stripped) per column role.
_TIME_COLUMNS = ("arrivaltime", "timestamp", "time", "arrival")
_INPUT_COLUMNS = ("inputtokens", "contexttokens", "input", "prompttokens")
_OUTPUT_COLUMNS = ("outputtokens", "generatedtokens", "output", "completiontokens")
_SERVICE_COLUMNS = ("service", "app", "workload")

#: Parsed rows per (absolute path, mtime, size): (arrival, input, output, service).
_ROW_CACHE: Dict[Tuple[str, float, int], Tuple[Tuple[float, int, int, Optional[str]], ...]] = {}


def clear_trace_cache() -> None:
    """Drop the per-process parsed-row cache (mainly for tests)."""
    _ROW_CACHE.clear()


def _normalise(column: str) -> str:
    return column.strip().lower().replace("_", "").replace("-", "")


def _find_column(fieldnames: Sequence[str], candidates: Sequence[str]) -> Optional[str]:
    by_normalised = {_normalise(name): name for name in fieldnames if name}
    for candidate in candidates:
        if candidate in by_normalised:
            return by_normalised[candidate]
    return None


def _parse_timestamp(value: str) -> float:
    """A timestamp cell as seconds: plain float, or an ISO-ish datetime.

    Azure traces use ``2023-11-16 18:17:03.2910407``-style timestamps
    with seven fractional digits; ``datetime.fromisoformat`` only accepts
    up to six on older Pythons, so the fraction is truncated first.
    Naive datetimes are taken as UTC — interpreting them in the host's
    local timezone would make replayed arrival gaps machine-dependent
    and corrupt bursts across DST transitions (rebasing to the first
    arrival cancels any constant offset anyway).
    """
    text = value.strip()
    try:
        return float(text)
    except ValueError:
        pass
    if "." in text:
        head, _, fraction = text.rpartition(".")
        digits = "".join(ch for ch in fraction if ch.isdigit())
        if digits and digits == fraction[: len(digits)]:
            text = f"{head}.{digits[:6]}{fraction[len(digits):]}"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


def _read_rows(path: str) -> Tuple[Tuple[float, int, int, Optional[str]], ...]:
    """Parse (and cache) the usable rows of a trace CSV.

    Rows with non-positive token counts (failed or cache-hit invocations
    in real traces) are skipped rather than crashing request validation;
    an entirely unusable file raises ``ValueError``.
    """
    resolved = os.path.abspath(path)
    stat = os.stat(resolved)
    cache_key = (resolved, stat.st_mtime, stat.st_size)
    if cache_key in _ROW_CACHE:
        return _ROW_CACHE[cache_key]

    rows: List[Tuple[float, int, int, Optional[str]]] = []
    with open(resolved, newline="") as handle:
        reader = csv.DictReader(handle)
        fieldnames = reader.fieldnames or []
        time_col = _find_column(fieldnames, _TIME_COLUMNS)
        input_col = _find_column(fieldnames, _INPUT_COLUMNS)
        output_col = _find_column(fieldnames, _OUTPUT_COLUMNS)
        service_col = _find_column(fieldnames, _SERVICE_COLUMNS)
        if time_col is None or input_col is None or output_col is None:
            raise ValueError(
                f"{path}: could not locate timestamp/input/output columns in "
                f"header {fieldnames!r}"
            )
        for row in reader:
            try:
                arrival = _parse_timestamp(row[time_col])
                n_in = int(float(row[input_col]))
                n_out = int(float(row[output_col]))
            except (TypeError, ValueError, KeyError):
                continue  # malformed row
            if n_in <= 0 or n_out <= 0:
                continue  # zero-token invocations carry no simulatable work
            service = (row.get(service_col) or "").strip() if service_col else ""
            rows.append((arrival, n_in, n_out, service or None))
    if not rows:
        raise ValueError(f"{path}: no usable trace rows (positive-token requests)")
    _ROW_CACHE[cache_key] = tuple(rows)
    return _ROW_CACHE[cache_key]


def _requests_from_rows(
    rows: Sequence[Tuple[float, int, int, Optional[str]]],
    service: str,
    rebase: bool,
    slo_scale: float,
) -> List[Request]:
    origin = min(row[0] for row in rows) if rebase else 0.0
    return [
        Request(
            arrival_time=arrival - origin,
            input_tokens=n_in,
            output_tokens=n_out,
            service=row_service or service,
            slo_scale=slo_scale,
        )
        for arrival, n_in, n_out, row_service in rows
    ]


# ----------------------------------------------------------------------
# Loaders
# ----------------------------------------------------------------------
def load_request_csv(
    path: str,
    name: Optional[str] = None,
    service: str = "default",
    slo_scale: float = 1.0,
    rebase: bool = False,
) -> Trace:
    """Load a generic request CSV (timestamp / input / output rows).

    Column names are matched case-insensitively against the common
    spellings, so both :func:`repro.workload.traces.save_trace_csv`
    output and third-party dumps load without editing.  Numeric
    timestamps are taken as seconds from trace start and preserved
    exactly; absolute timestamps (datetimes, or offsets beyond a year)
    are rebased to seconds from the first arrival.
    """
    rows = _read_rows(path)
    rebase = rebase or min(row[0] for row in rows) > 366.0 * 86400.0
    requests = _requests_from_rows(rows, service, rebase, slo_scale)
    return Trace(name=name or os.path.basename(path), requests=requests)


def load_azure_trace(
    path: str,
    name: Optional[str] = None,
    service: str = "azure",
    slo_scale: float = 1.0,
    resample: float = 1.0,
    duration_s: Optional[float] = None,
) -> Trace:
    """Load an Azure LLM-inference trace (TIMESTAMP/ContextTokens/GeneratedTokens).

    Arrival times are rebased to seconds from the first invocation.
    ``resample`` applies burst-preserving rate scaling (see
    :func:`resample_trace`) and ``duration_s`` clips the replayed window,
    which is how week-long production traces are sized down to tractable
    simulations without flattening their bursts.
    """
    rows = _read_rows(path)
    requests = _requests_from_rows(rows, service, rebase=True, slo_scale=slo_scale)
    trace = Trace(name=name or os.path.basename(path), requests=requests)
    if resample != 1.0:
        trace = resample_trace(trace, resample)
    if duration_s is not None and duration_s < trace.duration:
        trace = trace.slice(0.0, duration_s)
    return trace


# ----------------------------------------------------------------------
# Burst-preserving resampling
# ----------------------------------------------------------------------
def resample_trace(trace: Trace, rate_factor: float, jitter_s: float = 0.001) -> Trace:
    """Scale a trace's request rate while preserving its burst structure.

    Deterministic error diffusion: every request contributes
    ``rate_factor`` copies on average, with the fractional remainder
    carried to the next request.  Local arrival density is multiplied
    uniformly, so bursts stay bursts at any factor — unlike uniform
    stride thinning (which can alias periodic bursts away) or Poisson
    re-drawing (which erases them entirely).  Replicated requests are
    offset by ``jitter_s`` to keep arrival times distinct.
    """
    if rate_factor <= 0:
        raise ValueError("rate_factor must be positive")
    if rate_factor == 1.0:
        return trace
    requests: List[Request] = []
    carry = 0.0
    for request in trace.requests:
        carry += rate_factor
        copies = int(carry)
        carry -= copies
        for index in range(copies):
            requests.append(
                Request(
                    arrival_time=request.arrival_time + jitter_s * index,
                    input_tokens=request.input_tokens,
                    output_tokens=request.output_tokens,
                    service=request.service,
                    slo_scale=request.slo_scale,
                )
            )
    return Trace(name=f"{trace.name}@x{rate_factor:g}", requests=requests)


# ----------------------------------------------------------------------
# Bundled sample traces (offline fixtures)
# ----------------------------------------------------------------------
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

SAMPLE_TRACES: Dict[str, str] = {
    "csv": "sample_conversation.csv",
    "azure": "sample_azure.csv",
}


def sample_trace_path(kind: str = "csv") -> str:
    """Path of a bundled sample trace (``"csv"`` or ``"azure"``).

    The samples are small deterministic extracts committed with the
    package so the examples, the CLI quickstart and the test suite work
    fully offline.
    """
    try:
        filename = SAMPLE_TRACES[kind]
    except KeyError:
        known = ", ".join(sorted(SAMPLE_TRACES))
        raise KeyError(f"unknown sample trace kind {kind!r}; known kinds: {known}") from None
    return os.path.join(_DATA_DIR, filename)
