"""Shared leaf hardware cost models owned by the core layer.

The controller hierarchy reasons about two hardware costs that the
cluster simulator also charges: the per-change GPU frequency switching
overhead (Section III-C, Figure 3) and the VM warm/cold boot times of
the paper's Table V.  Both layers genuinely need the numbers — the
controllers to decide whether a reconfiguration pays for itself, the
simulator to charge it — so the tables live here, in the foundation
layer, and :mod:`repro.cluster` imports them downward.
"""

from __future__ import annotations

from typing import Dict

#: Measured cost of one frequency change through the standard stack.
DEFAULT_SWITCH_OVERHEAD_S = 0.065
#: Cost with DynamoLLM's resident, privileged management path.
OPTIMIZED_SWITCH_OVERHEAD_S = 0.005

#: Breakdown of the naive instance-creation overheads (seconds), Table V.
COLD_BOOT_BREAKDOWN_S: Dict[str, float] = {
    "create_vm": 90.0,
    "init_distributed_env": 120.0,
    "download_weights": 180.0,
    "setup_engine": 18.0,
    "install_weights_kv": 15.0,
}

#: Breakdown with DynamoLLM's optimisations: weights cached locally,
#: snapshot boot with pre-initialised engine, so only the snapshot
#: restore and weight installation remain.
WARM_BOOT_BREAKDOWN_S: Dict[str, float] = {
    "restore_snapshot": 20.0,
    "install_weights_kv": 15.0,
}


def cold_boot_time_s() -> float:
    """Total naive instance-creation time (about 7 minutes)."""
    return sum(COLD_BOOT_BREAKDOWN_S.values())


def warm_boot_time_s() -> float:
    """Total optimised instance-creation time."""
    return sum(WARM_BOOT_BREAKDOWN_S.values())
