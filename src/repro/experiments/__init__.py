"""Experiment drivers: one entry point per paper table and figure.

The modules in this package glue workloads, policies, the simulation
engine and the metrics together and return plain Python data structures
(rows/series) matching what the corresponding table or figure in the
paper reports.  Request-level drivers are built on the unified
:mod:`repro.api` layer (``Scenario`` + ``SimulationEngine`` +
``run_grid``); the benchmark harness under ``benchmarks/``, the
``python -m repro`` CLI and the example scripts call into these drivers
through :mod:`repro.experiments.registry`.
"""

from repro.experiments.runner import (
    ExperimentConfig,
    recommended_static_servers,
    resolve_static_servers,
)
from repro.experiments.fluid import FluidRunner

__all__ = [
    "ExperimentConfig",
    "recommended_static_servers",
    "resolve_static_servers",
    "FluidRunner",
]
