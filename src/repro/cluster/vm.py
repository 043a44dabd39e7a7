"""VM provisioning with cold-start overheads (paper Table V).

Creating a new 8xH100 inference server takes roughly 6-8 minutes when
done naively: VM creation, distributed-runtime initialisation, weight
download, engine setup and weight/KV installation.  DynamoLLM hides
most of this by caching weights in the cluster, booting from snapshots
with the engine pre-initialised, and creating VMs proactively in the
background before the epoch in which they are needed (Section IV-C).

The provisioner below models both paths: a request made with
``proactive=True`` (DynamoLLM) becomes ready after the much smaller
warm-boot delay; a reactive request (the ScaleInst baseline scaling on
the critical path) pays the full cold-boot delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core import hw


@dataclass
class ProvisioningRequest:
    """An in-flight server provisioning operation."""

    server_id: str
    requested_at: float
    ready_at: float
    proactive: bool

    def is_ready(self, now: float) -> bool:
        return now >= self.ready_at


@dataclass
class VMProvisioner:
    """Models the latency of bringing new servers online.

    Parameters
    ----------
    proactive:
        Whether scale-outs are requested ahead of the epoch (DynamoLLM)
        or on the critical path (baselines).
    """

    proactive: bool = True
    _pending: List[ProvisioningRequest] = field(default_factory=list, init=False)
    _completed: List[ProvisioningRequest] = field(default_factory=list, init=False)

    def boot_time_s(self, proactive: bool) -> float:
        return hw.warm_boot_time_s() if proactive else hw.cold_boot_time_s()

    def request_server(self, server_id: str, now: float) -> ProvisioningRequest:
        """Start provisioning a server; returns the in-flight request."""
        ready_at = now + self.boot_time_s(self.proactive)
        request = ProvisioningRequest(
            server_id=server_id,
            requested_at=now,
            ready_at=ready_at,
            proactive=self.proactive,
        )
        self._pending.append(request)
        return request

    def collect_ready(self, now: float) -> List[ProvisioningRequest]:
        """Return (and retire) the requests that completed by ``now``."""
        ready = [r for r in self._pending if r.is_ready(now)]
        self._pending = [r for r in self._pending if not r.is_ready(now)]
        self._completed.extend(ready)
        return ready

    @property
    def pending(self) -> List[ProvisioningRequest]:
        return list(self._pending)

    @property
    def completed(self) -> List[ProvisioningRequest]:
        return list(self._completed)

    def pending_count(self) -> int:
        return len(self._pending)
