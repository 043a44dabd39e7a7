"""Immutable scenario descriptions and grid combinators.

A :class:`Scenario` names everything one simulated run needs — the
policy, a declarative :class:`TraceSpec` and the experiment-level knobs
the paper sweeps (SLO scale, predictor accuracy, pool count, ...).
Scenarios are immutable; derive variants with :meth:`Scenario.with_` /
:meth:`Scenario.with_trace`, and expand cartesian products with
:func:`sweep`, which returns a :class:`ScenarioGrid` whose members are
addressable by their unique :attr:`Scenario.key`.

Scenarios are *descriptions*: nothing is simulated until they are given
to :func:`repro.api.executor.run_scenario` / :func:`~repro.api.executor.run_grid`
or turned into a :class:`~repro.api.engine.SimulationEngine`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.llm.catalog import ModelSpec, get_model
from repro.policies.base import PolicySpec, get_policy_spec
from repro.workload.slo import SLOPolicy
from repro.workload.traces import BinnedTrace, Trace, TraceBin, bin_trace


# ----------------------------------------------------------------------
# Trace specification
# ----------------------------------------------------------------------
#: Trace families the spec can materialise.  ``one_hour`` and ``poisson``
#: are synthetic request-level generators; ``csv`` and ``azure`` replay
#: recorded invocation traces from disk; ``week`` is the synthetic
#: week-long *binned* trace (fluid backend only — no request level).
TRACE_KINDS = ("one_hour", "poisson", "csv", "azure", "week")

#: Kinds that replay a trace file rather than synthesising one.
FILE_TRACE_KINDS = ("csv", "azure")

#: Kinds that only exist in binned form (usable with ``backend="fluid"``).
BINNED_TRACE_KINDS = ("week",)

#: Simulation backends a :class:`Scenario` can select.
BACKENDS = ("event", "fluid")


@dataclass(frozen=True)
class TraceSpec:
    """Declarative recipe for a request-level trace.

    ``kind="one_hour"`` builds the synthetic 1-hour service trace used
    throughout Section V-B; ``kind="poisson"`` builds the constant-rate
    Poisson traces of the load-level sensitivity study (Figure 12).

    ``kind="csv"`` replays a generic request CSV
    (timestamp / input / output rows) and ``kind="azure"`` replays the
    Azure LLM-inference trace format (datetime ``TIMESTAMP`` column);
    both require ``path``, support burst-preserving rate scaling via
    ``resample`` and clip to ``duration_s``.  File parsing is cached per
    process, and grid executors additionally share the built trace across
    scenarios (see :func:`repro.api.executor.run_grid`), so a sweep over
    one trace file reads it once.

    ``kind="week"`` builds the week-long synthetic service trace the
    paper's Figures 14-16 run on.  It is generated directly in binned
    form (no request level exists), so it can only be simulated with
    ``Scenario(backend="fluid")``; :meth:`build` raises and
    :meth:`build_bins` is the materialiser.

    ``duration_s`` bounds synthesis, not only the returned trace: the
    synthetic ``one_hour`` and ``week`` kinds stop drawing at the bin
    that covers it.  The result is the same as clipping the full trace
    to ``duration_s`` (same requests or bins, same name); only the work
    past the window is skipped.
    """

    kind: str = "one_hour"
    service: str = "conversation"
    rate_scale: float = 10.0
    duration_s: Optional[float] = None
    seed: int = 7
    level: str = "medium"  # Poisson load level (low / medium / high)
    load_multiplier: float = 6.0  # scales Poisson levels up to cluster size
    path: Optional[str] = None  # trace file (csv / azure kinds)
    resample: float = 1.0  # burst-preserving rate factor (file kinds)

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; known kinds: {', '.join(TRACE_KINDS)}"
            )
        if self.kind in FILE_TRACE_KINDS and not self.path:
            raise ValueError(f"TraceSpec(kind={self.kind!r}) requires path=")
        if self.resample <= 0:
            raise ValueError("resample must be positive")

    def build(self) -> Trace:
        """Materialise the described trace at request level."""
        if self.kind in BINNED_TRACE_KINDS:
            raise ValueError(
                f"TraceSpec(kind={self.kind!r}) only exists in binned form; "
                "simulate it with Scenario(backend='fluid') (build_bins), "
                "not the request-level event backend"
            )
        if self.kind == "one_hour":
            from repro.workload.synthetic import make_one_hour_trace

            return make_one_hour_trace(
                self.service,
                seed=self.seed,
                rate_scale=self.rate_scale,
                duration_s=self.duration_s,
            )
        if self.kind == "csv":
            from repro.workload.loaders import load_request_csv, resample_trace

            trace = load_request_csv(self.path, service=self.service)
            if self.resample != 1.0:
                trace = resample_trace(trace, self.resample)
            if self.duration_s is not None and self.duration_s < trace.duration:
                trace = trace.slice(0.0, self.duration_s)
            return trace
        if self.kind == "azure":
            from repro.workload.loaders import load_azure_trace

            return load_azure_trace(
                self.path,
                service=self.service,
                resample=self.resample,
                duration_s=self.duration_s,
            )
        # kind == "poisson"
        from repro.workload.arrival import PoissonArrivalGenerator, get_load_level

        level = get_load_level(self.level)
        scaled = type(level)(
            level.name, level.prompt_tokens_per_second * self.load_multiplier
        )
        generator = PoissonArrivalGenerator(seed=self.seed)
        return generator.generate(scaled, self.duration_s or 1800.0)

    def build_bins(self, bin_seconds: float = 300.0) -> List[TraceBin]:
        """Materialise the described trace in binned form (fluid backend).

        Binned-only kinds (``week``) generate their bins directly; every
        other kind builds the request-level trace and aggregates it into
        ``bin_seconds``-wide bins.
        """
        if self.kind == "week":
            from repro.workload.synthetic import make_week_trace

            return make_week_trace(
                self.service,
                seed=self.seed,
                rate_scale=self.rate_scale,
                bin_seconds=bin_seconds,
                duration_s=self.duration_s,
            )
        return bin_trace(self.build(), bin_seconds)

    @property
    def key(self) -> str:
        """Compact unique identifier for grid/result addressing."""
        if self.kind in ("one_hour", "week"):
            parts = [self.service, f"x{self.rate_scale:g}", f"s{self.seed}"]
        elif self.kind in FILE_TRACE_KINDS:
            import hashlib
            import os

            # Basename alone would collide for distinct files that share
            # a filename; a short path digest keeps keys unique per file.
            digest = hashlib.sha1(
                os.path.abspath(self.path).encode("utf-8")
            ).hexdigest()[:6]
            parts = [f"{os.path.basename(self.path)}#{digest}"]
            if self.resample != 1.0:
                parts.append(f"x{self.resample:g}")
        else:
            parts = [self.level, f"m{self.load_multiplier:g}", f"s{self.seed}"]
        if self.duration_s is not None:
            parts.append(f"{self.duration_s:g}s")
        return f"{self.kind}({','.join(parts)})"

    def with_(self, **changes) -> "TraceSpec":
        """A copy of this spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One immutable, fully-described simulation run.

    Only the dimensions that differ from the experiment defaults need to
    be set; ``None`` means "inherit from ``base_config``".  The optional
    ``base_config`` carries everything else (profile, epochs, drain
    timeout, ...) and is shared, not copied, across grid members.

    ``backend`` selects the simulator: ``"event"`` (default) runs the
    per-request :class:`~repro.api.engine.SimulationEngine`; ``"fluid"``
    runs the binned :class:`~repro.api.fluid_engine.FluidEngine`, which
    wraps the discrete-time fluid simulator the paper's large-scale
    results use — hours-long traces in milliseconds, at the cost of
    request-level latency fidelity (fluid summaries carry no latency
    percentiles).  ``fluid_bin_s`` overrides the bin width used when the
    fluid backend has to bin a request-level trace itself.
    """

    policy: Union[str, PolicySpec] = "DynamoLLM"
    trace: Union[TraceSpec, Trace, BinnedTrace] = TraceSpec()
    slo_scale: Optional[float] = None
    predictor_accuracy: Optional[float] = None
    pool_count: Optional[int] = None
    static_servers: Optional[int] = None
    max_servers: Optional[int] = None
    time_step_s: Optional[float] = None
    model: Optional[Union[str, ModelSpec]] = None
    backend: str = "event"
    fluid_bin_s: Optional[float] = None
    label: Optional[str] = None
    base_config: Optional[object] = None  # ExperimentConfig

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; known backends: "
                f"{', '.join(BACKENDS)}"
            )
        if self.backend == "fluid":
            # The fluid simulator has no request level: budgets come from
            # binned peaks and there is no predictor, SLO evaluation or
            # time step.  Silently dropping these dimensions would yield
            # distinct-keyed scenarios with identical results (or corrupt
            # cross-backend comparisons), so reject them up front.
            # pool_count and model DO affect the fluid simulation and
            # stay sweepable.
            ignored = {
                "static_servers": self.static_servers,
                "max_servers": self.max_servers,
                "slo_scale": self.slo_scale,
                "predictor_accuracy": self.predictor_accuracy,
                "time_step_s": self.time_step_s,
            }
            set_fields = [name for name, value in ignored.items() if value is not None]
            if set_fields:
                raise ValueError(
                    f"{'/'.join(set_fields)} are event-backend dimensions "
                    "the fluid simulator cannot honour; sweep them with "
                    "backend='event' (fluid budgets come from binned trace "
                    "peaks — pass static_budgets= to FluidEngine to pin them)"
                )
        elif self.fluid_bin_s is not None:
            raise ValueError(
                "fluid_bin_s only applies to backend='fluid'; the event "
                "backend simulates individual requests, not bins"
            )

    # ------------------------------------------------------------------
    def policy_spec(self) -> PolicySpec:
        if isinstance(self.policy, PolicySpec):
            return self.policy
        return get_policy_spec(self.policy)

    @property
    def policy_name(self) -> str:
        return self.policy.name if isinstance(self.policy, PolicySpec) else self.policy

    def build_trace(self) -> Trace:
        """The request-level trace to serve: built from the spec, or passed through."""
        if isinstance(self.trace, BinnedTrace):
            raise ValueError(
                "this scenario carries a pre-binned trace, which only the "
                "fluid backend can simulate — use Scenario(backend='fluid')"
            )
        return self.trace if isinstance(self.trace, Trace) else self.trace.build()

    def build_bins(self, bin_seconds: Optional[float] = None) -> List[TraceBin]:
        """The binned trace the fluid backend simulates.

        Pre-binned traces pass through unchanged; request-level traces
        and specs are aggregated into ``bin_seconds``-wide bins
        (default: ``fluid_bin_s`` override, else the config's).
        """
        if isinstance(self.trace, BinnedTrace):
            return self.trace.bins
        if bin_seconds is None:
            bin_seconds = self.fluid_bin_s
        if bin_seconds is None:
            bin_seconds = self.resolved_config().fluid_bin_s
        if isinstance(self.trace, Trace):
            return bin_trace(self.trace, bin_seconds)
        return self.trace.build_bins(bin_seconds)

    @property
    def trace_key(self) -> str:
        if isinstance(self.trace, (Trace, BinnedTrace)):
            return self.trace.name
        return self.trace.key

    def model_spec(self) -> Optional[ModelSpec]:
        if self.model is None or isinstance(self.model, ModelSpec):
            return self.model
        return get_model(self.model)

    def resolved_config(self):
        """The ExperimentConfig for this run: base config + overrides."""
        from repro.experiments.runner import ExperimentConfig

        base = self.base_config or ExperimentConfig()
        changes: Dict[str, object] = {}
        if self.model is not None:
            changes["model"] = self.model_spec()
            if base.profile is not None:
                changes["profile"] = None  # base profile is for another model
        if self.slo_scale is not None:
            changes["slo_policy"] = SLOPolicy(scale=self.slo_scale)
        if self.predictor_accuracy is not None:
            changes["predictor_accuracy"] = self.predictor_accuracy
        if self.pool_count is not None:
            from repro.workload.classification import scheme_for_pool_count

            changes["scheme"] = scheme_for_pool_count(self.pool_count)
        if self.static_servers is not None:
            changes["static_servers"] = self.static_servers
        if self.max_servers is not None:
            changes["max_servers"] = self.max_servers
        if self.time_step_s is not None:
            changes["time_step_s"] = self.time_step_s
        if self.fluid_bin_s is not None:
            changes["fluid_bin_s"] = self.fluid_bin_s
        return dataclasses.replace(base, **changes) if changes else base

    # ------------------------------------------------------------------
    @property
    def key(self) -> str:
        """Unique, human-readable identifier within a grid."""
        parts = [self.policy_name, self.trace_key]
        if self.model is not None:
            model = self.model_spec()
            parts.append(model.name if model is not None else str(self.model))
        if self.slo_scale is not None:
            parts.append(f"slo{self.slo_scale:g}")
        if self.predictor_accuracy is not None:
            parts.append(f"acc{self.predictor_accuracy:g}")
        if self.pool_count is not None:
            parts.append(f"pools{self.pool_count}")
        if self.fluid_bin_s is not None:
            parts.append(f"bin{self.fluid_bin_s:g}")
        if self.backend != "event":
            parts.append(self.backend)
        if self.label:
            parts.append(self.label)
        return "/".join(parts)

    def with_(self, **changes) -> "Scenario":
        """A copy of this scenario with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_trace(self, **changes) -> "Scenario":
        """A copy with fields of the *trace spec* replaced."""
        if isinstance(self.trace, Trace):
            raise TypeError(
                "with_trace() needs a TraceSpec; this scenario carries a "
                "concrete Trace — replace it with .with_(trace=...)"
            )
        return dataclasses.replace(self, trace=self.trace.with_(**changes))


# ----------------------------------------------------------------------
# Grid
# ----------------------------------------------------------------------
class ScenarioGrid:
    """An ordered collection of scenarios with unique keys."""

    def __init__(self, scenarios: Iterable[Scenario]) -> None:
        self.scenarios: Tuple[Scenario, ...] = tuple(scenarios)
        seen: Dict[str, Scenario] = {}
        for scenario in self.scenarios:
            if scenario.key in seen:
                raise ValueError(
                    f"duplicate scenario key {scenario.key!r}; "
                    "disambiguate with Scenario.label"
                )
            seen[scenario.key] = scenario
        self._by_key = seen

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __getitem__(self, item: Union[int, str]) -> Scenario:
        if isinstance(item, str):
            return self._by_key[item]
        return self.scenarios[item]

    def keys(self) -> Tuple[str, ...]:
        return tuple(s.key for s in self.scenarios)

    def filter(self, predicate: Callable[[Scenario], bool]) -> "ScenarioGrid":
        return ScenarioGrid(s for s in self.scenarios if predicate(s))

    def with_(self, **changes) -> "ScenarioGrid":
        """Apply the same field replacement to every member."""
        return ScenarioGrid(s.with_(**changes) for s in self.scenarios)

    def __add__(self, other: "ScenarioGrid") -> "ScenarioGrid":
        return ScenarioGrid(tuple(self.scenarios) + tuple(other.scenarios))

    def __repr__(self) -> str:
        return f"ScenarioGrid({len(self)} scenarios)"


def sweep(
    policies: Sequence[Union[str, PolicySpec]] = ("DynamoLLM",),
    traces: Sequence[Union[TraceSpec, Trace, BinnedTrace]] = (TraceSpec(),),
    slo_scales: Sequence[Optional[float]] = (None,),
    accuracies: Sequence[Optional[float]] = (None,),
    pool_counts: Sequence[Optional[int]] = (None,),
    models: Sequence[Optional[Union[str, ModelSpec]]] = (None,),
    backends: Sequence[str] = ("event",),
    base_config=None,
) -> ScenarioGrid:
    """Cartesian product over the paper's sweep dimensions.

    Every combination of policy x trace x SLO scale x predictor accuracy
    x pool count x model x backend becomes one :class:`Scenario`.
    Dimensions left at their defaults contribute a single ``None``
    (inherit) entry and do not appear in the scenario keys.
    """
    scenarios = [
        Scenario(
            policy=policy,
            trace=trace,
            slo_scale=slo_scale,
            predictor_accuracy=accuracy,
            pool_count=pool_count,
            model=model,
            backend=backend,
            base_config=base_config,
        )
        for policy, trace, slo_scale, accuracy, pool_count, model, backend in itertools.product(
            policies, traces, slo_scales, accuracies, pool_counts, models, backends
        )
    ]
    return ScenarioGrid(scenarios)
