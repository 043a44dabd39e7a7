"""GPU frequency control with switching overheads.

Changing the GPU frequency through ``nvidia-smi`` costs 50-80 ms per
change (Section III-C, Figure 3), which is on the order of one or two
decode iterations.  DynamoLLM reduces this to a few milliseconds by
keeping the management interface resident and running privileged
(Section IV-C).  The controller below tracks the current frequency of
an instance's GPUs and charges the switching penalty as lost serving
time, so policies that thrash the frequency pay for it in throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core import hw
from repro.llm.gpu import GPUSpec, H100


@dataclass
class FrequencyController:
    """Tracks and changes the operating frequency of one instance.

    Parameters
    ----------
    gpu:
        GPU spec providing the valid frequency range.
    initial_frequency_mhz:
        Frequency the instance starts at (defaults to the maximum).
    optimized:
        Whether DynamoLLM's low-overhead switching path is in use.
    """

    gpu: GPUSpec = H100
    initial_frequency_mhz: int = 0
    optimized: bool = True
    _current: int = field(init=False)
    _pending_penalty_s: float = field(default=0.0, init=False)
    _switch_count: int = field(default=0, init=False)
    _history: List[Tuple[float, int]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.initial_frequency_mhz <= 0:
            self.initial_frequency_mhz = self.gpu.max_frequency_mhz
        self.gpu.validate_frequency(self.initial_frequency_mhz)
        self._current = self.initial_frequency_mhz
        self._history.append((0.0, self._current))

    @property
    def current_frequency_mhz(self) -> int:
        return self._current

    @property
    def switch_count(self) -> int:
        return self._switch_count

    @property
    def switch_overhead_s(self) -> float:
        return (
            hw.OPTIMIZED_SWITCH_OVERHEAD_S
            if self.optimized
            else hw.DEFAULT_SWITCH_OVERHEAD_S
        )

    @property
    def history(self) -> List[Tuple[float, int]]:
        """List of (time, frequency) change points, starting at time 0."""
        return list(self._history)

    def set_frequency(self, frequency_mhz: int, now: float = 0.0) -> bool:
        """Request a frequency change; returns True if a change occurred."""
        self.gpu.validate_frequency(frequency_mhz)
        if frequency_mhz == self._current:
            return False
        self._current = int(frequency_mhz)
        self._switch_count += 1
        self._pending_penalty_s += self.switch_overhead_s
        self._history.append((now, self._current))
        return True

    def consume_penalty(self, available_s: float) -> float:
        """Deduct pending switch penalties from available serving time.

        Returns the serving time remaining after paying (part of) the
        accumulated penalty.  Any unpaid penalty carries over.
        """
        if available_s <= 0:
            return 0.0
        paid = min(self._pending_penalty_s, available_s)
        self._pending_penalty_s -= paid
        return available_s - paid

    def frequency_at(self, time_s: float) -> int:
        """Frequency that was in effect at a given time (from history)."""
        frequency = self._history[0][1]
        for change_time, value in self._history:
            if change_time <= time_s:
                frequency = value
            else:
                break
        return frequency
