"""The stepped simulation engine behind every request-level experiment.

:class:`SimulationEngine` runs one policy over one request-level trace:
construction wires the cluster, predictor and policy; :meth:`step`
advances one time step; :meth:`run` drives the loop to completion and
assembles the :class:`~repro.metrics.summary.RunSummary` from its
observers.

Metric collection lives entirely in pluggable
:class:`~repro.api.observers.Observer` instances — the engine only emits
typed events (:class:`~repro.api.observers.RunStarted`,
:class:`~repro.api.observers.RequestRouted`,
:class:`~repro.api.observers.EpochReconfigured`,
:class:`~repro.api.observers.StepCompleted`,
:class:`~repro.api.observers.RunFinished`).  With the default observer
set the summary carries the full timelines; ``lean=True`` drops the
timeline collectors for faster sweeps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.api.observers import (
    EpochReconfigured,
    Observer,
    ObserverDispatch,
    RequestRouted,
    RunFinished,
    RunStarted,
    StepCompleted,
    default_observers,
)
from repro.cluster.cluster import GPUCluster
from repro.metrics.energy import EnergyAccount
from repro.metrics.latency import LatencyStats
from repro.metrics.power import PowerTimeSeries
from repro.metrics.summary import RunSummary
from repro.policies.base import PolicySpec, build_policy
from repro.sim.clock import SimClock
from repro.workload.predictor import OutputLengthPredictor
from repro.workload.traces import Trace


class SimulationEngine(ObserverDispatch):
    """Run one policy over one request-level trace, step by step.

    Parameters
    ----------
    spec:
        The policy to simulate.
    trace:
        The request-level trace to serve.  Its requests must be sorted by
        arrival time (:class:`~repro.workload.traces.Trace` sorts them on
        construction); the per-step admission slice is a
        ``numpy.searchsorted`` over the arrival-time column.
    config:
        Simulation configuration; defaults to ``ExperimentConfig()``.
    observers:
        Metric collectors to attach.  ``None`` attaches the default set
        (energy, latency, power, server counts, and — unless ``lean`` —
        the frequency/sharding timelines).
    lean:
        When ``True``, attach only the summary observers (if
        ``observers`` is ``None``) and disable per-step history
        retention on the cluster and its instances, so memory stays
        bounded regardless of horizon.  Large sweeps that never look at
        timelines run measurably faster this way.
    load_fractions / warm_loads:
        Optional precomputed capacity-planning inputs (the executor
        caches them per trace x scheme so grid members sharing a trace
        do not re-bin it).  When omitted they are derived from the
        trace.
    """

    def __init__(
        self,
        spec: PolicySpec,
        trace: Trace,
        config=None,
        observers: Optional[Sequence[Observer]] = None,
        lean: bool = False,
        load_fractions=None,
        warm_loads=None,
    ) -> None:
        from repro.experiments.runner import ExperimentConfig, resolve_static_servers

        self.spec = spec
        self.trace = trace
        self.config = config or ExperimentConfig()
        self.profile = self.config.resolved_profile()
        self.scheme = spec.scheme(self.config.scheme)

        self.static_servers = resolve_static_servers(self.config, trace, self.profile)
        max_servers = max(self.config.max_servers, self.static_servers)

        self.cluster = GPUCluster(
            model=self.config.model,
            initial_servers=0,
            max_servers=max_servers,
            proactive_provisioning=spec.proactive_provisioning,
            optimized_frequency_switching=spec.optimized_frequency_switching,
            record_history=not lean,
        )
        predictor = OutputLengthPredictor(
            accuracy=self.config.predictor_accuracy, seed=self.config.predictor_seed
        )
        from repro.experiments.runner import load_fractions_from_trace, pool_loads_from_trace

        fractions = (
            load_fractions
            if load_fractions is not None
            else load_fractions_from_trace(trace, self.scheme)
        )
        self.policy = build_policy(
            spec,
            model=self.config.model,
            cluster=self.cluster,
            profile=self.profile,
            static_servers=self.static_servers,
            expected_load_fractions=fractions,
            slo_policy=self.config.slo_policy,
            predictor=predictor,
            scheme=self.config.scheme,
            epochs=self.config.epochs,
        )
        self.policy.epoch_listener = self._on_epoch
        self._warm_loads = (
            warm_loads if warm_loads is not None else pool_loads_from_trace(trace, self.scheme)
        )

        if observers is None:
            observers = default_observers(slo_policy=self.config.slo_policy, lean=lean)
        self.observers: List[Observer] = list(observers)

        # Stepping state.  Time is derived from an integer step counter
        # (``step * dt`` via SimClock) rather than repeated float
        # addition, so long horizons cannot accumulate rounding drift
        # that mis-bins boundary arrivals.
        self._requests = list(trace.requests)
        self._request_index = 0
        self._dt = self.config.time_step_s
        self._clock = SimClock(time_step=self._dt)
        self._horizon = trace.duration + self._dt
        self._drain_deadline = self._horizon + self.config.drain_timeout_s
        # Arrival-time column for the per-step admission slice.
        self._arrivals = np.array(
            [request.arrival_time for request in self._requests], dtype=float
        )
        if not np.all(np.diff(self._arrivals) >= 0.0):
            raise ValueError(
                f"trace {trace.name!r}: request arrivals are not sorted by "
                "arrival time (were trace.requests reassigned after "
                "construction?); build a new Trace from the requests"
            )
        self.now = 0.0
        self.reconfigurations = 0
        self._started = False
        self._finished = False
        # Per-hook dispatch lists, computed at start (see _listeners).
        self._epoch_listeners: List[Observer] = []
        self._route_listeners: List[Observer] = []
        self._step_listeners: List[Observer] = []
        self._full_stats = True

    # ------------------------------------------------------------------
    # Observer plumbing (dispatch machinery shared via ObserverDispatch)
    # ------------------------------------------------------------------
    def _on_epoch(self, kind: str, now: float) -> None:
        self.reconfigurations += 1
        if self._epoch_listeners:
            self._emit(
                self._epoch_listeners,
                "on_epoch_reconfigured",
                EpochReconfigured(time=now, kind=kind),
            )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._epoch_listeners = self._listeners("on_epoch_reconfigured")
        self._route_listeners = self._listeners("on_request_routed")
        self._step_listeners = self._listeners("on_step_completed")
        # Lean fast path: when no attached step listener consumes the
        # timeline fields (or nobody listens at all), the cluster skips
        # the per-pool/per-TP stats bookkeeping every step.
        self._full_stats = any(
            observer.requires_full_step_stats for observer in self._step_listeners
        )
        self.policy.setup(0.0, warm_loads=self._warm_loads)
        started_listeners = self._listeners("on_run_started")
        if started_listeners:
            self._emit(
                started_listeners,
                "on_run_started",
                RunStarted(
                    time=0.0,
                    policy_name=self.spec.name,
                    trace_name=self.trace.name,
                    policy=self.policy,
                    config=self.config,
                ),
            )
        self._started = True

    def step(self) -> bool:
        """Advance the simulation by one time step.

        Returns ``True`` while the simulation should keep stepping and
        ``False`` once the trace is served and the cluster drained (or
        the drain deadline passed).
        """
        if not self._started:
            self._start()
        if self._finished or self.now >= self._drain_deadline:
            self._finished = True
            return False

        now, dt = self.now, self._dt
        # The admission boundary is the *next* step's clock time, so
        # every request falls into exactly one step no matter how long
        # the horizon is (boundaries are computed as k*dt, not
        # accumulated additions).
        boundary = self._clock.time_of_step(self._clock.step + 1)
        end = int(np.searchsorted(self._arrivals, boundary, side="left"))
        route = self.policy.route
        if self._route_listeners:
            for index in range(self._request_index, end):
                request = self._requests[index]
                route(request, now)
                self._emit(
                    self._route_listeners,
                    "on_request_routed",
                    RequestRouted(time=now, request=request),
                )
        else:
            for index in range(self._request_index, end):
                route(self._requests[index], now)
        self._request_index = end

        self.policy.on_step(now, dt)
        stats = self.cluster.step(now, dt, full_stats=self._full_stats)
        if self._step_listeners:
            self._emit(
                self._step_listeners,
                "on_step_completed",
                StepCompleted(time=now, dt=dt, stats=stats, policy=self.policy),
            )

        self.now = self._clock.advance()
        if self.now >= self._horizon and self._request_index >= len(self._requests):
            in_flight = sum(i.active_requests for i in self.cluster.instances.values())
            if in_flight == 0:
                self._finished = True
                return False
        if self.now >= self._drain_deadline:
            self._finished = True
            return False
        return True

    # ------------------------------------------------------------------
    # Full run
    # ------------------------------------------------------------------
    def run(self) -> RunSummary:
        """Drive the simulation to completion and build the summary."""
        while self.step():
            pass
        finished_listeners = self._listeners("on_run_finished")
        if finished_listeners:
            self._emit(
                finished_listeners,
                "on_run_finished",
                RunFinished(time=self.now, cluster=self.cluster),
            )
        return self.summary()

    def summary(self) -> RunSummary:
        """Assemble the RunSummary from engine state and the observers."""
        summary = RunSummary(
            policy=self.spec.name,
            trace=self.trace.name,
            duration_s=self.now,
            energy=EnergyAccount(),
            latency=LatencyStats(slo_policy=self.config.slo_policy),
            power=PowerTimeSeries(),
            gpu_hours=self.cluster.gpu_hours,
            squashed_requests=self.policy.total_squashed(),
            routed_requests=self.policy.routed_requests,
            reconfigurations=self.reconfigurations,
        )
        for observer in self.observers:
            observer.contribute(summary)
        return summary
