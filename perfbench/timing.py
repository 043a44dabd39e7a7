"""Per-scenario wall times, normalised to a reference host speed.

The benchmark runs on shared hosts whose speed swings by more than half
within seconds (other tenants, frequency scaling); CPU time swings with
wall time, so it is host speed, not preemption.  To keep
``sim_hours_per_s`` comparable across runs, the harness times a fixed
pure-Python calibration kernel before the first scenario and after each
one, and scales every scenario's wall time by
``(REFERENCE_KERNEL_S / mean kernel time around it) ** HOST_SENSITIVITY``:
the result is the time the scenario would have taken on a host where the
kernel runs in ``REFERENCE_KERNEL_S``.  The kernel is the benchmark's own
code, so a change to the simulator cannot move it.

``HOST_SENSITIVITY`` is below 1 because the simulator slows down less
than the small kernel when the host is slow: over ten-seed runs of each
workload on a 2-CPU x86_64 host, the exponent that minimised the
run-to-run spread of ``sim_hours_per_s`` was about 0.75 on event-sweep,
0.9 on event-single and 1.0 on fluid-week, and 0.9 keeps every
workload's quartile spread near 5% (against about 8% with 1.0 and 35%
unnormalised).
"""

from __future__ import annotations

import time
from typing import List

#: Kernel time that defines the reference host speed (about the kernel's
#: time on an unloaded 2-CPU x86_64 cloud host with Python 3.11).
REFERENCE_KERNEL_S = 0.0125

#: Exponent of the kernel-time ratio applied to scenario times (see above).
HOST_SENSITIVITY = 0.9

_KERNEL_ITERATIONS = 60_000


def calibration_kernel() -> float:
    """A fixed mix of dict, float, list and call work; returns a checksum."""
    table = {}
    total = 0.0
    values = []
    for i in range(_KERNEL_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] * 1e-9
        if i % 7 == 0:
            values.append(total)
    return total + len(values)


def time_kernel() -> float:
    began = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - began


class SegmentTimer:
    """Wall time of each scenario of one execution, and the kernel around it.

    ``segments[j]`` is scenario ``j``'s wall time (the first also holds
    what the executor does before it, the last what it does after);
    with ``calibrate`` set, ``kernels[j]`` and ``kernels[j + 1]`` are the
    calibration kernel's times just before and just after it.  Kernel
    time is never inside a segment.
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.segments: List[float] = []
        self.kernels: List[float] = []
        self._since = 0.0

    def start(self) -> None:
        if self.calibrate:
            self.kernels.append(time_kernel())
        self._since = time.perf_counter()

    def scenario_done(self) -> None:
        self.segments.append(time.perf_counter() - self._since)
        if self.calibrate:
            self.kernels.append(time_kernel())
        self._since = time.perf_counter()

    def stop(self) -> None:
        """Fold the executor's tail (closing the sink) into the last segment."""
        tail = time.perf_counter() - self._since
        if self.segments:
            self.segments[-1] += tail
        else:
            self.segments.append(tail)

    def normalised(self) -> List[float]:
        """Segments scaled to the reference host speed."""
        return [
            segment * (REFERENCE_KERNEL_S / ((before + after) / 2.0)) ** HOST_SENSITIVITY
            for segment, before, after in zip(
                self.segments, self.kernels, self.kernels[1:]
            )
        ]
