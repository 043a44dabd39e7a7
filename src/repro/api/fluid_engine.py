"""The fluid (binned) simulation backend behind the Scenario API.

:class:`FluidEngine` adapts the discrete-time
:class:`~repro.experiments.fluid.FluidRunner` — the simulator the
paper's large-scale results (Figures 14-16, cost analysis) come from —
to the same stepped interface as the per-request
:class:`~repro.api.engine.SimulationEngine`: :meth:`step` advances one
trace bin, typed events (:class:`~repro.api.observers.RunStarted`,
:class:`~repro.api.observers.EpochReconfigured`,
:class:`~repro.api.observers.StepCompleted` per bin,
:class:`~repro.api.observers.RunFinished`) flow to the same pluggable
:class:`~repro.api.observers.Observer` collectors, and :meth:`run`
returns a :class:`~repro.metrics.summary.RunSummary`.

Fidelity contract
-----------------
The engine is the only integrator of :meth:`FluidRunner.steps`, the
per-bin loop: energy and carbon flow from each bin's stats through the
observers, and GPU-hours, the time-weighted server mean and the
reconfiguration count are summed here in bin order (the equivalence
suite in ``tests/test_backends.py`` pins them against a plain sum of
the same loop).  What the fluid backend cannot provide is request-level
telemetry: summaries carry no latency percentiles (``latency`` stays
empty, SLO attainment reports 1.0), no per-request outcomes and no
frequency/TP timelines.  Events differ from the event backend
accordingly:

* ``RunStarted.policy`` and ``RunFinished.cluster`` are ``None`` — there
  is no live controller or cluster object;
* ``StepCompleted.stats`` is a
  :class:`~repro.experiments.fluid.FluidStepStats` (duck-typed like the
  cluster's ``StepStats``; ``outcomes`` always empty);
* one ``EpochReconfigured(kind="scale")`` fires per pool whose GPU
  allocation changed between bins.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.api.observers import (
    EpochReconfigured,
    Observer,
    ObserverDispatch,
    RunFinished,
    RunStarted,
    StepCompleted,
    default_observers,
)
from repro.experiments.fluid import FluidRunner, FluidStepStats
from repro.metrics.energy import EnergyAccount
from repro.metrics.latency import LatencyStats
from repro.metrics.power import PowerTimeSeries
from repro.metrics.summary import RunSummary
from repro.policies.base import PolicySpec
from repro.workload.classification import DEFAULT_SCHEME
from repro.workload.traces import BinnedTrace, Trace, TraceBin, bin_trace


def time_weighted_mean(timeline: Sequence[Tuple[float, float]], duration_s: float) -> float:
    """Time-weighted mean of a ``(start, value)`` timeline.

    Each sample holds until the next sample's start time (the last one
    until ``duration_s``), so bins of unequal length — clipped trace
    tails, variable-rate bins — are weighted by how long they actually
    lasted rather than counted once each.
    """
    if not timeline:
        return 0.0
    weighted = 0.0
    total = 0.0
    for index, (start, value) in enumerate(timeline):
        if index + 1 < len(timeline):
            end = timeline[index + 1][0]
        else:
            end = max(duration_s, start)
        span = max(0.0, end - start)
        weighted += value * span
        total += span
    if total <= 0.0:
        # Degenerate timelines (all zero-length bins): plain mean.
        return sum(value for _, value in timeline) / len(timeline)
    return weighted / total


class FluidEngine(ObserverDispatch):
    """Run one policy over one binned trace, bin by bin.

    Parameters
    ----------
    spec:
        The policy to simulate.
    trace:
        The trace to serve: a pre-binned :class:`BinnedTrace`, a raw
        ``TraceBin`` sequence, or a request-level :class:`Trace` (binned
        into ``config.fluid_bin_s``-wide bins).
    config:
        Simulation configuration; defaults to ``ExperimentConfig()``.
        ``model``, ``profile``, ``scheme`` and ``fluid_bin_s`` are
        honoured; request-level knobs (time step, predictor, drain,
        ``max_servers`` — fluid pools are elastic by construction) do
        not apply to the fluid simulator, and a pinned
        ``static_servers`` is rejected rather than silently ignored
        (see below).
    observers:
        Metric collectors to attach.  ``None`` attaches the summary
        observer set (``default_observers(lean=True)``) — the timeline
        observer needs the live controller the fluid backend does not
        have.  The engine has no lean mode of its own: a lean
        ``run_scenario`` / ``run_grid`` only compacts its summary.
    static_budgets / fine_budgets:
        Optional precomputed static-server budgets (see
        :meth:`FluidRunner.steps`); sweep executors pass ``fine_budgets``
        so grid members sharing a trace size the baseline cluster once.
    """

    def __init__(
        self,
        spec: PolicySpec,
        trace: Union[BinnedTrace, Trace, Sequence[TraceBin]],
        config=None,
        observers: Optional[Sequence[Observer]] = None,
        static_budgets=None,
        fine_budgets=None,
        trace_name: Optional[str] = None,
    ) -> None:
        from repro.experiments.runner import ExperimentConfig

        self.spec = spec
        self.config = config or ExperimentConfig()
        if self.config.static_servers is not None and static_budgets is None:
            # Silently ignoring the pinned event-backend budget would
            # corrupt cross-backend comparisons; the fluid simulator
            # sizes per-pool budgets from binned peaks instead.
            raise ValueError(
                "static_servers is event-backend configuration; the fluid "
                "backend provisions per-pool budgets from the binned trace "
                "peaks — pass static_budgets= to FluidEngine to pin them "
                "explicitly"
            )

        if isinstance(trace, BinnedTrace):
            bins, name = trace.bins, trace.name
        elif isinstance(trace, Trace):
            bins = bin_trace(trace, self.config.fluid_bin_s)
            name = trace.name
        else:
            bins, name = list(trace), "bins"
        self.bins: List[TraceBin] = list(bins)
        self.trace_name = trace_name or name

        self.runner = FluidRunner(
            model=self.config.model,
            scheme=self.config.scheme or DEFAULT_SCHEME,
            profile=self.config.resolved_profile(),
        )
        self._steps = self.runner.steps(
            spec, self.bins, static_budgets=static_budgets, fine_budgets=fine_budgets
        )

        if observers is None:
            # The lean set is the whole default fluid set: the timeline
            # observer is inapplicable, and the summary observers are
            # already cheap (one sample per bin).
            observers = default_observers(slo_policy=self.config.slo_policy, lean=True)
        self.observers: List[Observer] = list(observers)

        # Stepping state and the run accounting the observers do not
        # carry (energy flows through them).
        self.now = 0.0
        self._gpu_seconds = 0.0
        self._servers_timeline: List[Tuple[float, float]] = []
        self._reconfigurations = 0
        self._started = False
        self._finished = False
        self._epoch_listeners: List[Observer] = []
        self._step_listeners: List[Observer] = []

    # ------------------------------------------------------------------
    # Stepping (observer dispatch shared via ObserverDispatch)
    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._epoch_listeners = self._listeners("on_epoch_reconfigured")
        self._step_listeners = self._listeners("on_step_completed")
        started_listeners = self._listeners("on_run_started")
        if started_listeners:
            self._emit(
                started_listeners,
                "on_run_started",
                RunStarted(
                    time=0.0,
                    policy_name=self.spec.name,
                    trace_name=self.trace_name,
                    policy=None,  # no live controller in the fluid backend
                    config=self.config,
                ),
            )
        self._started = True

    def step(self) -> bool:
        """Advance the simulation by one trace bin.

        Returns ``True`` while bins remain and ``False`` once the trace
        is exhausted.
        """
        if not self._started:
            self._start()
        if self._finished:
            return False
        stats: Optional[FluidStepStats] = next(self._steps, None)
        if stats is None:
            self._finished = True
            return False

        self._gpu_seconds += stats.online_gpus * stats.dt
        self._servers_timeline.append((stats.time, stats.online_servers))
        self._reconfigurations += len(stats.reconfigured_pools)

        if self._step_listeners:
            self._emit(
                self._step_listeners,
                "on_step_completed",
                StepCompleted(time=stats.time, dt=stats.dt, stats=stats, policy=None),
            )
        if self._epoch_listeners:
            for _pool in stats.reconfigured_pools:
                self._emit(
                    self._epoch_listeners,
                    "on_epoch_reconfigured",
                    EpochReconfigured(time=stats.time, kind="scale"),
                )
        self.now = stats.time + stats.dt
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
                RunFinished(time=self.now, cluster=None),
            )
        return self.summary()

    def summary(self) -> RunSummary:
        """Assemble the RunSummary from engine state and the observers.

        ``duration_s`` (the end of the last bin), ``gpu_hours``,
        ``average_servers`` (time-weighted, see
        :func:`time_weighted_mean`) and ``reconfigurations`` come from
        the engine's accounting; everything observable flows through the
        observers exactly as on the event backend.
        """
        if self.bins:
            last = self.bins[-1]
            duration = last.start_time + last.duration
        else:
            duration = 0.0
        summary = RunSummary(
            policy=self.spec.name,
            trace=self.trace_name,
            duration_s=duration,
            energy=EnergyAccount(),
            latency=LatencyStats(slo_policy=self.config.slo_policy),
            power=PowerTimeSeries(),
        )
        for observer in self.observers:
            observer.contribute(summary)
        # The fluid accounting is authoritative for the whole-run
        # aggregates: a ServerCountObserver's plain sample mean would
        # miscount uneven bins, so the time-weighted value wins.
        summary.gpu_hours = self._gpu_seconds / 3600.0
        summary.average_servers = time_weighted_mean(self._servers_timeline, duration)
        summary.reconfigurations = self._reconfigurations
        return summary
