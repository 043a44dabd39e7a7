"""Typed simulation events and the pluggable observer protocol.

Both simulation backends — the per-request
:class:`~repro.api.engine.SimulationEngine` and the binned
:class:`~repro.api.fluid_engine.FluidEngine` — emit one event object
per occurrence to every attached :class:`Observer`:

* :class:`RunStarted` — once, before the first step;
* :class:`RequestRouted` — one per request, when it is handed to the policy;
* :class:`EpochReconfigured` — after every controller epoch
  ("scale", "shard" or "frequency");
* :class:`StepCompleted` — once per simulation step, carrying the
  cluster's :class:`~repro.cluster.cluster.StepStats` and the policy;
* :class:`RunFinished` — once, after the loop exits.

On the fluid backend a "step" is one trace bin, ``StepCompleted.stats``
is a duck-typed :class:`~repro.experiments.fluid.FluidStepStats`
(``outcomes`` always empty — the fluid simulator tracks no individual
requests), no :class:`RequestRouted` events fire, and the ``policy`` /
``cluster`` payloads of :class:`RunStarted` / :class:`StepCompleted` /
:class:`RunFinished` are ``None`` — observers relying on the live
controller must tolerate that (see :class:`TimelineObserver`).  The
summary observers below consume only the shared stats fields, which is
why the default set works unmodified against both backends.

Observers are independent, composable metric collectors: the engine's
default set reproduces exactly what the legacy monolithic runner
recorded inline (energy, latency, power, server counts and the
frequency/sharding timelines), and new collectors (carbon, cost,
per-pool SLO attainment, ...) can be added without touching the engine.
Each observer finally writes its results onto the shared
:class:`~repro.metrics.summary.RunSummary` in :meth:`Observer.contribute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.carbon import CarbonAccount, CarbonIntensityTrace
from repro.metrics.cost import CostAccount, CostModel
from repro.metrics.energy import EnergyAccount
from repro.metrics.latency import LatencyStats
from repro.metrics.power import PowerTimeSeries
from repro.metrics.summary import RunSummary
from repro.workload.classification import classify_request
from repro.workload.request import Request
from repro.workload.slo import SLO, SLOPolicy, DEFAULT_SLO_POLICY


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunStarted:
    """Emitted once before the first simulation step."""

    time: float
    policy_name: str
    trace_name: str
    policy: Any  # the live DynamoLLM controller (None on the fluid backend)
    config: Any  # the resolved ExperimentConfig


@dataclass(frozen=True)
class RequestRouted:
    """Emitted when one trace request is handed to the policy's router."""

    time: float
    request: Request


@dataclass(frozen=True)
class EpochReconfigured:
    """Emitted after a controller epoch ran (scale / shard / frequency)."""

    time: float
    kind: str


@dataclass(frozen=True)
class StepCompleted:
    """Emitted after each simulation step with the cluster's step stats."""

    time: float
    dt: float
    stats: Any  # cluster StepStats (FluidStepStats on the fluid backend)
    policy: Any  # the live DynamoLLM controller (None on the fluid backend)


@dataclass(frozen=True)
class RunFinished:
    """Emitted once after the simulation loop exits."""

    time: float
    cluster: Any  # the GPUCluster, for end-of-run totals (None on fluid)


# ----------------------------------------------------------------------
# Observer protocol
# ----------------------------------------------------------------------
class Observer:
    """Base class for pluggable metric collectors.

    Subclasses override the ``on_*`` hooks they care about and
    :meth:`contribute`, which writes the collected results onto the
    :class:`~repro.metrics.summary.RunSummary` under construction.
    """

    #: Observers with ``summary_only = True`` are kept in ``lean`` runs;
    #: the rest (timeline collectors etc.) are dropped to speed up sweeps.
    summary_only: bool = False

    #: Whether this observer's ``on_step_completed`` reads timeline fields
    #: of the step stats (``gpus_by_tp``, ``pool_*``, ``active_gpus``,
    #: ``average_frequency_mhz``).  When every attached step listener sets
    #: this to ``False`` the engine asks the cluster for lean step stats,
    #: which skip the per-pool/per-TP breakdown bookkeeping entirely.
    #: ``True`` is the conservative default for third-party observers.
    requires_full_step_stats: bool = True

    def on_run_started(self, event: RunStarted) -> None:  # pragma: no cover - hook
        pass

    def on_request_routed(self, event: RequestRouted) -> None:  # pragma: no cover - hook
        pass

    def on_epoch_reconfigured(self, event: EpochReconfigured) -> None:  # pragma: no cover - hook
        pass

    def on_step_completed(self, event: StepCompleted) -> None:  # pragma: no cover - hook
        pass

    def on_run_finished(self, event: RunFinished) -> None:  # pragma: no cover - hook
        pass

    def contribute(self, summary: RunSummary) -> None:  # pragma: no cover - hook
        """Write this observer's results onto the run summary."""


class ObserverDispatch:
    """Shared event-dispatch machinery for the simulation engines.

    Both engines attach observers and emit events through this mixin.
    Events are only constructed and dispatched for hooks somebody
    actually overrides (:meth:`_listeners` filters on overridden
    methods), so per-request and per-epoch events cost nothing when — as
    in lean sweeps — no observer consumes them.
    """

    observers: List["Observer"]

    def add_observer(self, observer: "Observer"):
        """Attach one more observer (before the run starts)."""
        self.observers.append(observer)
        return self

    def _listeners(self, hook: str):
        """Observers that actually override ``hook``."""
        base = getattr(Observer, hook)
        return [
            observer
            for observer in self.observers
            if getattr(type(observer), hook, base) is not base
        ]

    def _emit(self, listeners, hook: str, event) -> None:
        for observer in listeners:
            getattr(observer, hook)(event)


# ----------------------------------------------------------------------
# Built-in observers (the legacy runner's inline accounting, split up)
# ----------------------------------------------------------------------
class EnergyObserver(Observer):
    """Accumulates the cluster's per-step energy into an EnergyAccount."""

    summary_only = True
    requires_full_step_stats = False

    def __init__(self) -> None:
        self.account = EnergyAccount()

    def on_step_completed(self, event: StepCompleted) -> None:
        self.account.add_step(event.time, event.stats.energy_wh, event.stats.energy_by_type_wh)

    def contribute(self, summary: RunSummary) -> None:
        summary.energy = self.account


class LatencyObserver(Observer):
    """Collects per-request outcomes into TTFT/TBT statistics."""

    summary_only = True
    requires_full_step_stats = False

    def __init__(self, slo_policy: SLOPolicy = DEFAULT_SLO_POLICY) -> None:
        self.stats = LatencyStats(slo_policy=slo_policy)

    def on_step_completed(self, event: StepCompleted) -> None:
        self.stats.extend(event.stats.outcomes)

    def contribute(self, summary: RunSummary) -> None:
        summary.latency = self.stats


class PowerObserver(Observer):
    """Samples cluster power and online-GPU counts every step."""

    summary_only = True
    requires_full_step_stats = False

    def __init__(self) -> None:
        self.series = PowerTimeSeries()

    def on_step_completed(self, event: StepCompleted) -> None:
        self.series.add_step(event.time, event.stats.power_watts, event.stats.online_gpus)

    def contribute(self, summary: RunSummary) -> None:
        summary.power = self.series


class ServerCountObserver(Observer):
    """Tracks the online-server count to report the run average."""

    summary_only = True
    requires_full_step_stats = False

    def __init__(self) -> None:
        self.samples: List[int] = []

    def on_step_completed(self, event: StepCompleted) -> None:
        self.samples.append(event.stats.online_servers)

    def contribute(self, summary: RunSummary) -> None:
        summary.average_servers = (
            sum(self.samples) / len(self.samples) if self.samples else 0.0
        )


class TimelineObserver(Observer):
    """Records the frequency / sharding / pool-load timelines (Figures 9-10).

    This is the most expensive built-in observer; ``lean=True`` runs drop
    it, which measurably speeds up large sweeps that only need summary
    metrics.
    """

    def __init__(self) -> None:
        self.frequency_timeline: List[Tuple[float, float]] = []
        self.pool_frequency_timeline: Dict[str, List[Tuple[float, float]]] = {}
        self.gpus_by_tp_timeline: List[Tuple[float, Dict[int, int]]] = []
        self.pool_gpus_by_tp_timeline: Dict[str, List[Tuple[float, Dict[int, int]]]] = {}
        self.pool_load_timeline: Dict[str, List[Tuple[float, float]]] = {}

    def on_step_completed(self, event: StepCompleted) -> None:
        now, stats = event.time, event.stats
        self.frequency_timeline.append((now, stats.average_frequency_mhz))
        self.gpus_by_tp_timeline.append((now, dict(stats.gpus_by_tp)))
        for pool, freq in stats.pool_frequency_mhz.items():
            self.pool_frequency_timeline.setdefault(pool, []).append((now, freq))
        for pool, tp_map in stats.pool_gpus_by_tp.items():
            self.pool_gpus_by_tp_timeline.setdefault(pool, []).append((now, dict(tp_map)))
        if event.policy is None:  # fluid backend: no live controller
            return
        for pool, state in event.policy.cluster_manager.pools.items():
            self.pool_load_timeline.setdefault(pool, []).append((now, state.load_ema_tps))

    def contribute(self, summary: RunSummary) -> None:
        summary.frequency_timeline = self.frequency_timeline
        summary.pool_frequency_timeline = self.pool_frequency_timeline
        summary.gpus_by_tp_timeline = self.gpus_by_tp_timeline
        summary.pool_gpus_by_tp_timeline = self.pool_gpus_by_tp_timeline
        summary.pool_load_timeline = self.pool_load_timeline


class CarbonObserver(Observer):
    """Streams per-step emissions through a time-varying carbon intensity.

    Replaces the post-hoc ``RunSummary.carbon_kg()`` pass over the
    retained energy timeline: the same per-step terms are accumulated in
    the same order while the simulation runs, so the totals agree exactly
    and remain available even when the energy timeline is compacted away
    for lean sweeps.
    """

    summary_only = True
    requires_full_step_stats = False

    def __init__(self, intensity: Optional[CarbonIntensityTrace] = None) -> None:
        self.account = CarbonAccount(intensity=intensity or CarbonIntensityTrace())

    def on_step_completed(self, event: StepCompleted) -> None:
        self.account.add_step(event.time, event.stats.energy_wh)

    def contribute(self, summary: RunSummary) -> None:
        summary.carbon = self.account


class CostObserver(Observer):
    """Streams GPU-hour and energy cost per step (Section V-F accounting).

    Accumulates ``online_gpus * dt`` and per-step energy exactly as the
    cluster's own counters do, so the resulting totals match the
    post-hoc ``RunSummary.cost_usd()`` computation.
    """

    summary_only = True
    requires_full_step_stats = False

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.account = CostAccount(cost_model=cost_model or CostModel())

    def on_step_completed(self, event: StepCompleted) -> None:
        self.account.add_step(event.dt, event.stats.online_gpus, event.stats.energy_wh)

    def contribute(self, summary: RunSummary) -> None:
        summary.cost = self.account


class SLOAttainmentObserver(Observer):
    """Per-pool SLO attainment, streamed from completed-request outcomes.

    Every outcome is judged against its request type's scaled SLO (the
    same rule :meth:`~repro.metrics.latency.LatencyStats.slo_attainment`
    applies post-hoc) and attributed to the pool that served it, so the
    count-weighted average of the per-pool rates equals the global rate.
    """

    summary_only = True
    requires_full_step_stats = False

    def __init__(self, slo_policy: SLOPolicy = DEFAULT_SLO_POLICY) -> None:
        self.slo_policy = slo_policy
        self.total_by_pool: Dict[str, int] = {}
        self.met_by_pool: Dict[str, int] = {}
        # Scaled SLOs memoised per (type name, slo_scale) — SLO
        # construction is pure, so the cached thresholds are the exact
        # floats the per-outcome construction produced.
        self._scaled_slos: Dict[Tuple[str, float], SLO] = {}

    def on_step_completed(self, event: StepCompleted) -> None:
        scaled_slos = self._scaled_slos
        for outcome in event.stats.outcomes:
            pool = outcome.pool
            self.total_by_pool[pool] = self.total_by_pool.get(pool, 0) + 1
            if outcome.squashed:
                continue
            request_type = classify_request(outcome.request)
            key = (request_type.name, outcome.request.slo_scale)
            slo = scaled_slos.get(key)
            if slo is None:
                slo = self.slo_policy.slo_for(request_type).scaled(
                    max(1.0, outcome.request.slo_scale)
                )
                scaled_slos[key] = slo
            if outcome.meets(slo.ttft_s, slo.tbt_s):
                self.met_by_pool[pool] = self.met_by_pool.get(pool, 0) + 1

    # ------------------------------------------------------------------
    def attainment_by_pool(self) -> Dict[str, float]:
        """SLO attainment per pool (pools that served nothing report 1.0)."""
        return {
            pool: (self.met_by_pool.get(pool, 0) / total) if total else 1.0
            for pool, total in sorted(self.total_by_pool.items())
        }

    def contribute(self, summary: RunSummary) -> None:
        summary.pool_slo_attainment = self.attainment_by_pool()
        summary.pool_request_counts = dict(sorted(self.total_by_pool.items()))


class ReconfigurationObserver(Observer):
    """Counts controller epochs by kind — a cheap example of a custom hook."""

    summary_only = True
    requires_full_step_stats = False

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.log: List[Tuple[float, str]] = []

    def on_epoch_reconfigured(self, event: EpochReconfigured) -> None:
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        self.log.append((event.time, event.kind))

    def contribute(self, summary: RunSummary) -> None:
        # RunSummary has no dedicated field; expose via attribute for callers.
        summary.reconfiguration_counts = dict(self.counts)  # type: ignore[attr-defined]


def default_observers(
    slo_policy: SLOPolicy = DEFAULT_SLO_POLICY,
    lean: bool = False,
    carbon_intensity: Optional[CarbonIntensityTrace] = None,
    cost_model: Optional[CostModel] = None,
) -> List[Observer]:
    """The engine's default observer set.

    The full set reproduces every field the legacy monolithic runner
    populated, plus the streaming carbon / cost / per-pool SLO
    collectors; ``lean=True`` keeps only the summary observers (the
    streaming collectors are summary observers — they replace the
    timeline-dependent post-hoc passes in lean sweeps).
    """
    observers: List[Observer] = [
        EnergyObserver(),
        LatencyObserver(slo_policy=slo_policy),
        PowerObserver(),
        ServerCountObserver(),
        CarbonObserver(intensity=carbon_intensity),
        CostObserver(cost_model=cost_model),
        SLOAttainmentObserver(slo_policy=slo_policy),
    ]
    if not lean:
        observers.append(TimelineObserver())
    return observers
