"""The benchmark's own arithmetic: percentiles, span self time, paired savings.

Everything here is pure and small so ``selftest.py`` can pin it on
hand-computed examples.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Percentiles the reporting rule may fall back to, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_percentile(
    count: int, wanted: float = 99.0, min_beyond: int = 10
) -> Optional[float]:
    """The highest percentile up to ``wanted`` with ``min_beyond`` samples above it.

    A p99 over 200 samples rests on two observations; the rule reports
    p99 only once at least ten samples lie beyond it (1000 samples), and
    otherwise falls back down :data:`PERCENTILE_LADDER`.  ``None`` means
    not even the median is supported.
    """
    for percentile in PERCENTILE_LADDER:
        if percentile > wanted:
            continue
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary floating point.
        if round(count * (100.0 - percentile) / 100.0, 6) >= min_beyond:
            return percentile
    return None


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def per_position_median(executions: Sequence[Sequence[float]]) -> List[float]:
    """``out[j]`` is the median over executions of segment ``j``."""
    lengths = {len(segments) for segments in executions}
    if len(lengths) != 1:
        raise ValueError(f"executions differ in segment count: {sorted(lengths)}")
    return [median(column) for column in zip(*executions)]


def best_of_segments(executions: Sequence[Sequence[float]]) -> float:
    """Sum over positions of the fastest time seen at that position.

    ``executions[i][j]`` is the wall time of segment ``j`` (one scenario,
    plus whatever the executor does before the first and after the last)
    in execution ``i`` of the same batch.  Every execution does the same
    work and a shared host only ever adds time, so the per-segment
    minimum is the steadiest estimate of the batch's wall time: it needs
    each segment, not the whole batch, to have run once undisturbed.
    """
    lengths = {len(segments) for segments in executions}
    if len(lengths) != 1:
        raise ValueError(f"executions differ in segment count: {sorted(lengths)}")
    return float(np.min(np.asarray(executions, dtype=float), axis=0).sum())


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> np.ndarray:
    """Each span's duration minus the part of it its direct children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1`` for a
    root.  The traced program is serial, so a span's children are
    disjoint intervals inside it and their coverage is the sum of their
    durations; grandchildren are already inside a child and are not
    subtracted twice.
    """
    parents_arr = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    has_parent = parents_arr >= 0
    covered = np.bincount(
        parents_arr[has_parent],
        weights=durations[has_parent],
        minlength=len(durations),
    )
    return durations - covered


def paired_saving_pct(
    rows: Iterable[Tuple[object, str, float]],
    baseline: str = "SinglePool",
    candidate: str = "DynamoLLM",
) -> float:
    """``100 * (1 - sum(candidate) / sum(baseline))`` over paired groups.

    ``rows`` are ``(group, policy, value)``; a group is the set of
    scenarios sharing a trace and an SLO scale.  Only groups holding both
    policies contribute, so an unpaired scenario cannot skew the ratio.
    """
    per_group: Dict[object, Dict[str, float]] = {}
    for group, policy, value in rows:
        if policy in (baseline, candidate):
            cell = per_group.setdefault(group, {})
            if policy in cell:
                raise ValueError(f"group {group!r} has two {policy} scenarios")
            cell[policy] = float(value)
    base = cand = 0.0
    for cell in per_group.values():
        if baseline in cell and candidate in cell:
            base += cell[baseline]
            cand += cell[candidate]
    if base <= 0.0:
        raise ValueError("no paired baseline value to compare against")
    return 100.0 * (1.0 - cand / base)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (``statistics`` method)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def medians_of(dicts: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per-key median over a list of metric dictionaries with equal keys."""
    if not dicts:
        return {}
    return {key: median(d[key] for d in dicts) for key in dicts[0]}

