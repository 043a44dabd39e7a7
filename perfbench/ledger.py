"""Span tracing from outside the program, and the per-layer ledger.

:class:`Tracer` wraps each layer's public entry points at the attribute
its callers look them up (a class attribute for methods, the module
global for functions imported by name), records one span per call --
name, start, end, parent -- in flat in-memory arrays, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

:func:`layer_metrics` turns one traced iteration into the per-layer
metrics named in ``BENCHMARK.json``.  A layer's busy time is the sum of
its spans' self times (duration minus the time direct children cover),
so nested layers are never counted twice and the layer shares of one
iteration add up to at most 100%.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from benchmath import self_times, supported_percentile


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``owner`` is ``module`` or ``module:Class``."""

    layer: str
    span: str
    owner: str
    attr: str


#: The root span every traced iteration runs under.
ROOT_SPAN = "harness.iteration"

#: Wrapped entry points, by layer.  ``plan_sharding`` is wrapped in every
#: module that calls it, because those modules imported it by name.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("workload", "TraceSpec.build", "repro.api.scenario:TraceSpec", "build"),
    EntryPoint("workload", "TraceSpec.build_bins", "repro.api.scenario:TraceSpec", "build_bins"),
    EntryPoint("plan", "resolve_static_servers", "repro.experiments.runner", "resolve_static_servers"),
    EntryPoint("plan", "pool_loads_from_trace", "repro.experiments.runner", "pool_loads_from_trace"),
    EntryPoint("plan", "load_fractions_from_trace", "repro.experiments.runner", "load_fractions_from_trace"),
    EntryPoint("plan", "FluidRunner.static_budgets", "repro.experiments.fluid:FluidRunner", "static_budgets"),
    EntryPoint("engine", "SimulationEngine.__init__", "repro.api.engine:SimulationEngine", "__init__"),
    EntryPoint("engine", "SimulationEngine.step", "repro.api.engine:SimulationEngine", "step"),
    EntryPoint("fluid", "FluidEngine.step", "repro.api.fluid_engine:FluidEngine", "step"),
    EntryPoint("route", "DynamoLLM.route", "repro.core.framework:DynamoLLM", "route"),
    EntryPoint("route", "PoolManager.select_instance", "repro.core.pool_manager:PoolManager", "select_instance"),
    EntryPoint("ctrl", "DynamoLLM.on_step", "repro.core.framework:DynamoLLM", "on_step"),
    EntryPoint("ctrl", "ClusterManager.scale_epoch", "repro.core.cluster_manager:ClusterManager", "scale_epoch"),
    EntryPoint("ctrl", "PoolManager.shard_epoch", "repro.core.pool_manager:PoolManager", "shard_epoch"),
    EntryPoint("ctrl", "InstanceManager.frequency_epoch", "repro.core.instance_manager:InstanceManager", "frequency_epoch"),
    EntryPoint("cluster", "GPUCluster.step", "repro.cluster.cluster:GPUCluster", "step"),
    EntryPoint("cluster", "InferenceInstance.step", "repro.cluster.instance:InferenceInstance", "step"),
    EntryPoint("sink", "RunSummary.compact", "repro.metrics.summary:RunSummary", "compact"),
    EntryPoint("sink", "JsonlSink.write", "repro.api.sinks:JsonlSink", "write"),
    EntryPoint("optimizer", "plan_sharding", "repro.core.optimizer", "plan_sharding"),
    EntryPoint("optimizer", "plan_sharding", "repro.core.pool_manager", "plan_sharding"),
    EntryPoint("optimizer", "plan_sharding", "repro.experiments.fluid", "plan_sharding"),
    EntryPoint("profile", "EnergyPerformanceProfile.best_frequency", "repro.perf.profile:EnergyPerformanceProfile", "best_frequency"),
)

#: Layers in report order (``harness`` is the root's own self time).
LAYERS = (
    "workload", "plan", "engine", "route", "ctrl", "cluster", "observer",
    "sink", "fluid", "optimizer", "profile", "harness",
)


def _observer_entry_points() -> Tuple[EntryPoint, ...]:
    """``on_step_completed`` of every built-in observer class overriding it."""
    from repro.api import observers

    found = []
    for name, value in sorted(vars(observers).items()):
        if (
            isinstance(value, type)
            and issubclass(value, observers.Observer)
            and value is not observers.Observer
            and "on_step_completed" in vars(value)
        ):
            found.append(
                EntryPoint(
                    "observer",
                    f"{name}.on_step_completed",
                    f"repro.api.observers:{name}",
                    "on_step_completed",
                )
            )
    return tuple(found)


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.entry_points = ENTRY_POINTS + _observer_entry_points()
        self.span_names: List[str] = [ROOT_SPAN]
        self.span_layers: List[str] = ["harness"]
        for entry in self.entry_points:
            if entry.span not in self.span_names:
                self.span_names.append(entry.span)
                self.span_layers.append(entry.layer)
        self._originals: List[Tuple[object, str, object]] = []
        # The wrappers close over these containers, so reset() empties
        # them in place instead of rebinding them.
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.items = array("q")
        self._stack = [-1]
        self.tokens = {"prefill": 0, "decode": 0, "batch": 0, "busy_steps": 0}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans and counters (keeps the wrappers installed)."""
        for column in (self.names, self.parents, self.starts, self.ends, self.items):
            del column[:]
        self._stack[:] = [-1]
        for key in self.tokens:
            self.tokens[key] = 0

    def _open(self, name_id: int) -> int:
        index = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.items.append(0)
        self._stack.append(index)
        return index

    def _wrap(self, fn, name_id: int, after: Optional[Callable[[int, object], None]]):
        clock = self.clock
        ends, starts, stack = self.ends, self.starts, self._stack
        open_span = self._open

        def traced(*args, **kwargs):
            index = open_span(name_id)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(index, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def _after_hook(self, span: str):
        items = self.items
        tokens = self.tokens
        if span == "TraceSpec.build":
            return lambda index, trace: items.__setitem__(index, len(trace.requests))
        if span == "TraceSpec.build_bins":
            return lambda index, bins: items.__setitem__(index, len(bins))
        if span == "FluidEngine.step":
            return lambda index, stepped: items.__setitem__(index, int(bool(stepped)))
        if span == "InferenceInstance.step":

            def read_step_stats(index, stats):
                worked = stats.prefill_tokens + stats.decode_tokens
                tokens["prefill"] += stats.prefill_tokens
                tokens["decode"] += stats.decode_tokens
                if worked:
                    tokens["busy_steps"] += 1
                    tokens["batch"] += stats.batch_size

            return read_step_stats
        return None

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in place (idempotent per tracer)."""
        if self._originals:
            return
        for entry in self.entry_points:
            owner = _resolve_owner(entry.owner)
            original = vars(owner)[entry.attr]
            name_id = self.span_names.index(entry.span)
            wrapper = self._wrap(original, name_id, self._after_hook(entry.span))
            setattr(owner, entry.attr, wrapper)
            self._originals.append((owner, entry.attr, original))

    def uninstall(self) -> None:
        """Restore every original callable, in reverse order."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """One root span around a traced iteration."""
        index = self._open(0)
        self.starts[index] = self.clock()
        try:
            yield
        finally:
            self.ends[index] = self.clock()
            self._stack.pop()

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the recorded spans to ``path`` (numpy ``.npz``)."""
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            span_layers=np.array(self.span_layers),
            name=np.array(self.names, dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int32),
            start=np.array(self.starts, dtype=np.float64),
            end=np.array(self.ends, dtype=np.float64),
            items=np.array(self.items, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, sink_bytes: int) -> Dict[str, float]:
    """The per-layer ledger of one traced iteration (everything but setup)."""
    names = np.array(tracer.names, dtype=np.int32)
    parents = np.array(tracer.parents, dtype=np.int32)
    starts = np.array(tracer.starts, dtype=np.float64)
    ends = np.array(tracer.ends, dtype=np.float64)
    items = np.array(tracer.items, dtype=np.int64)
    durations = ends - starts
    selfs = self_times(parents, starts, ends)
    span_ids = {name: index for index, name in enumerate(tracer.span_names)}
    layer_of_name = np.array(
        [LAYERS.index(layer) for layer in tracer.span_layers], dtype=np.int64
    )
    layer_of_span = layer_of_name[names]
    busy = np.bincount(layer_of_span, weights=selfs, minlength=len(LAYERS))
    root_wall = float(durations[names == 0].sum())

    def mask(*span_names: str) -> np.ndarray:
        ids = [span_ids[name] for name in span_names]
        return np.isin(names, ids)

    def count(*span_names: str) -> int:
        return int(mask(*span_names).sum())

    def inclusive(*span_names: str) -> float:
        return float(durations[mask(*span_names)].sum())

    def layer_busy(layer: str) -> float:
        return float(busy[LAYERS.index(layer)])

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    parent_layer = np.where(parents >= 0, layer_of_span[np.maximum(parents, 0)], -1)

    def outermost(layer: str) -> np.ndarray:
        index = LAYERS.index(layer)
        return (layer_of_span == index) & (parent_layer != index)

    metrics: Dict[str, float] = {}

    # workload --------------------------------------------------------
    top_workload = outermost("workload")
    workload_calls = int(top_workload.sum())
    workload_items = int(items[top_workload].sum())
    metrics["workload.calls"] = workload_calls
    metrics["workload.busy_s"] = layer_busy("workload")
    metrics["workload.items"] = workload_items
    metrics["workload.us_per_item"] = per(layer_busy("workload"), workload_items, 1e6)

    # plan ------------------------------------------------------------
    metrics["plan.calls"] = int(outermost("plan").sum())
    metrics["plan.busy_s"] = layer_busy("plan")
    bin_passes = count("pool_loads_from_trace", "FluidRunner.static_budgets")
    metrics["plan.bin_passes_per_trace"] = per(bin_passes, workload_calls)

    # engine ----------------------------------------------------------
    step_mask = mask("SimulationEngine.step", "FluidEngine.step")
    step_ms = durations[step_mask] * 1e3
    metrics["engine.init_s"] = float(selfs[mask("SimulationEngine.__init__")].sum())
    metrics["engine.steps"] = int(step_mask.sum())
    metrics["engine.step_ms_p50"] = (
        float(np.percentile(step_ms, 50.0)) if len(step_ms) else 0.0
    )
    tail = supported_percentile(len(step_ms), 99.0)
    metrics["engine.step_ms_p99"] = (
        float(np.percentile(step_ms, tail)) if tail is not None else 0.0
    )
    metrics["engine.self_s"] = layer_busy("engine")

    # route -----------------------------------------------------------
    routes = count("DynamoLLM.route")
    route_ids = np.flatnonzero(mask("DynamoLLM.route"))
    selects = mask("PoolManager.select_instance")
    selects_in_route = int(np.isin(parents[selects], route_ids).sum())
    metrics["route.calls"] = routes
    metrics["route.busy_s"] = layer_busy("route")
    metrics["route.us_per_call"] = per(layer_busy("route"), routes, 1e6)
    metrics["route.select_per_route"] = per(selects_in_route, routes)

    # ctrl ------------------------------------------------------------
    metrics["ctrl.busy_s"] = layer_busy("ctrl")
    metrics["ctrl.scale_epochs"] = count("ClusterManager.scale_epoch")
    metrics["ctrl.shard_epochs"] = count("PoolManager.shard_epoch")
    metrics["ctrl.frequency_epochs"] = count("InstanceManager.frequency_epoch")
    metrics["ctrl.scale_s"] = inclusive("ClusterManager.scale_epoch")
    metrics["ctrl.shard_s"] = inclusive("PoolManager.shard_epoch")
    metrics["ctrl.frequency_s"] = inclusive("InstanceManager.frequency_epoch")

    # cluster: batch_mean averages the batch over instance steps that
    # processed tokens; idle_step_share counts the steps that processed none.
    instance_steps = count("InferenceInstance.step")
    tokens = tracer.tokens
    worked = tokens["prefill"] + tokens["decode"]
    metrics["cluster.busy_s"] = layer_busy("cluster")
    metrics["cluster.instance_steps"] = instance_steps
    metrics["cluster.us_per_instance_step"] = per(
        inclusive("InferenceInstance.step"), instance_steps, 1e6
    )
    metrics["cluster.batch_mean"] = per(tokens["batch"], tokens["busy_steps"])
    metrics["cluster.prefill_share"] = per(tokens["prefill"], worked)
    metrics["cluster.idle_step_share"] = per(
        instance_steps - tokens["busy_steps"], instance_steps
    )

    # observer --------------------------------------------------------
    metrics["observer.calls"] = int((layer_of_span == LAYERS.index("observer")).sum())
    metrics["observer.busy_s"] = layer_busy("observer")

    # sink ------------------------------------------------------------
    metrics["summary.compact_s"] = inclusive("RunSummary.compact")
    metrics["sink.writes"] = count("JsonlSink.write")
    metrics["sink.write_s"] = inclusive("JsonlSink.write")
    metrics["sink.bytes"] = sink_bytes

    # fluid / optimizer / profile --------------------------------------
    bins = int(items[mask("FluidEngine.step")].sum())
    metrics["fluid.bins"] = bins
    metrics["fluid.busy_s"] = layer_busy("fluid")
    metrics["fluid.us_per_bin"] = per(inclusive("FluidEngine.step"), bins, 1e6)
    metrics["optimizer.calls"] = count("plan_sharding")
    metrics["optimizer.busy_s"] = layer_busy("optimizer")
    metrics["profile.lookups"] = count("EnergyPerformanceProfile.best_frequency")
    metrics["profile.busy_s"] = layer_busy("profile")

    # shares of the iteration's wall time ------------------------------
    for layer in LAYERS:
        metrics[f"share.{layer}_pct"] = per(layer_busy(layer), root_wall, 100.0)
    return metrics
