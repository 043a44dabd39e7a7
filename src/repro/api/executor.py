"""Scenario executors: serial and parallel sweep running.

``run_scenario`` runs one :class:`~repro.api.scenario.Scenario` on the
engine its ``backend`` selects (the per-request
:class:`~repro.api.engine.SimulationEngine` or the binned
:class:`~repro.api.fluid_engine.FluidEngine`).  ``runs`` and
``run_grid`` execute many scenarios; results come back in input order
(``runs``) or keyed by :attr:`Scenario.key` (``run_grid``) and are
identical whether they ran serially or in parallel: every engine owns
its RNG streams, and no run writes to the requests of its trace, so
jobs that share one trace need no private copies.

``workers`` of ``None``, 0 or 1 runs the scenarios one after another in
the calling process.  ``workers > 1`` runs them on a
:class:`~concurrent.futures.ProcessPoolExecutor`: true multi-core
parallelism, at the price of a fork/spawn per worker and pickled
scenarios and summaries (everything in-tree pickles), so it pays off
once individual scenarios run for seconds, not milliseconds.
Event-backend traces are not pickled per job: the executor encodes each
shared trace once into numpy columns in POSIX shared memory
(:mod:`multiprocessing.shared_memory`) and ships only the segment name;
every worker rehydrates the trace once per process from the segment,
however many grid members reuse it.  Rehydrated requests are
field-identical to the originals (ids, services and SLO scales
included), so parallel results equal serial ones.

Passing ``sink=`` (a :class:`~repro.api.sinks.ResultSink`) switches the
executors to *streaming* mode: each summary is handed to the sink as it
completes — in input order serially, in completion order on pools — and
is **not** accumulated, so a 1000+-scenario sweep holds one summary at
a time.  The executor returns the sink itself in that case, with a
:class:`SweepReport` (ran / skipped / failed counts) attached as
``sink.report``.

Streamed sweeps are *fault-tolerant* and *resumable*:

* a scenario that raises is recorded in the sink as a structured error
  record (:meth:`~repro.api.sinks.ResultSink.write_error`) and the
  remaining scenarios keep running — one bad scenario cannot abort a
  1000-scenario sweep;
* ``resume=True`` skips every scenario whose key the sink already
  records successfully (:meth:`~repro.api.sinks.ResultSink.scan_keys`),
  *before* traces are materialised — rerunning an interrupted sweep
  executes exactly the missing scenarios and appends their records.
  Scenario keys are therefore a durability contract: streamed sweeps
  reject duplicate keys up front instead of silently collapsing them,
  and a resume against a file whose records name keys *outside* the
  current grid raises :class:`~repro.api.sinks.ResultsMismatchError` —
  the file was written by a different grid and must not be mixed with
  this one.

``run_policies`` runs several policies over one trace exactly as grid
members — every policy gets the same static-server budget, applied to
a copy of the caller's config — and returns the summaries in memory,
keyed by policy name.  Streamed records carry :attr:`Scenario.key`
only, so a resumable comparison is a grid (``run_grid(..., sink=)``).
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.engine import SimulationEngine
from repro.api.fluid_engine import FluidEngine
from repro.api.scenario import Scenario, ScenarioGrid
from repro.api.sinks import ResultsMismatchError, ResultSink
from repro.metrics.summary import RunSummary
from repro.policies.base import PolicySpec
from repro.workload.request import Request
from repro.workload.traces import BinnedTrace, Trace


@dataclasses.dataclass(frozen=True)
class SweepReport:
    """Outcome counts of one streamed sweep (attached as ``sink.report``).

    ``total`` is the full sweep size; ``skipped`` scenarios were already
    recorded in the sink and not rerun (``resume``), ``ran`` completed
    and wrote a summary record, ``failed`` raised and wrote an error
    record.  ``skipped + ran + failed == total`` unless the sweep itself
    was interrupted again.
    """

    total: int
    skipped: int
    ran: int
    failed: int


def _check_no_stale_records(recorded: set, keys: Sequence[str]) -> None:
    """Refuse to resume a results file written by a different grid.

    ``recorded`` keys missing from the current sweep's ``keys`` mean the
    sink already holds another grid's records (stale file, edited sweep
    arguments, wrong output path).  Skipping "nothing" and appending
    this sweep's records would silently mix the two grids in one file —
    and present the stale rows as this sweep's output — so resume
    raises instead.
    """
    stale = set(recorded) - set(keys)
    if stale:
        shown = ", ".join(repr(key) for key in sorted(stale)[:5])
        if len(stale) > 5:
            shown += f", ... ({len(stale)} total)"
        raise ResultsMismatchError(
            f"cannot resume: the sink already records key(s) {shown} that "
            "this sweep does not contain, so its records belong to a "
            "different grid — resume with the grid that wrote the file, or "
            "stream this sweep into a fresh output file"
        )


def _duplicate_keys(keys: Sequence[str]) -> List[str]:
    seen: set = set()
    duplicates: List[str] = []
    for key in keys:
        if key in seen and key not in duplicates:
            duplicates.append(key)
        seen.add(key)
    return duplicates


@dataclasses.dataclass
class _Job:
    """One scenario with its shared inputs materialised.

    Event-backend jobs carry the built request-level trace plus the
    cached capacity-planning maps; fluid-backend jobs carry the binned
    trace and the cached per-bucket static budgets.  On process pools
    the trace travels as a :class:`_SharedTrace` handle instead
    (``trace`` is then ``None``) and workers rehydrate it from shared
    memory.
    """

    scenario: Scenario
    config: object  # resolved ExperimentConfig
    trace: Optional[Trace] = None
    fractions: Optional[dict] = None
    warm_loads: Optional[dict] = None
    bins: Optional[list] = None
    trace_name: Optional[str] = None
    fine_budgets: Optional[dict] = None
    shared_trace: Optional["_SharedTrace"] = None


#: Column layout of a trace in shared memory.  ``service`` holds an index
#: into the handle's unique-service table; everything else round-trips
#: the Request fields exactly (float64/int64 are lossless for the values
#: Request validation admits).
_TRACE_DTYPE = np.dtype(
    [
        ("arrival_time", np.float64),
        ("input_tokens", np.int64),
        ("output_tokens", np.int64),
        ("request_id", np.int64),
        ("service", np.int32),
        ("slo_scale", np.float64),
    ]
)


@dataclasses.dataclass(frozen=True)
class _SharedTrace:
    """Pickle-cheap handle to a trace encoded in a shared-memory segment.

    The handle carries only the segment name, the row count, the trace
    name and the unique service strings — a few hundred bytes — while
    the request columns live in the named segment.  The parent process
    owns the segment (see :class:`_SharedTraceArena`); workers attach,
    copy, and close.
    """

    shm_name: str
    count: int
    name: str
    services: Tuple[str, ...]


def _encode_trace(trace: Trace) -> Tuple["_SharedTrace", shared_memory.SharedMemory]:
    """Write a trace's request columns into a new shared-memory segment."""
    requests = trace.requests
    services: Dict[str, int] = {}
    array = np.empty(len(requests), dtype=_TRACE_DTYPE)
    for row, request in enumerate(requests):
        index = services.setdefault(request.service, len(services))
        array[row] = (
            request.arrival_time,
            request.input_tokens,
            request.output_tokens,
            request.request_id,
            index,
            request.slo_scale,
        )
    segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=_TRACE_DTYPE, buffer=segment.buf)
    view[:] = array
    handle = _SharedTrace(
        shm_name=segment.name,
        count=len(requests),
        name=trace.name,
        services=tuple(services),
    )
    return handle, segment


#: Per-worker-process rehydration cache: segment name -> decoded Trace.
#: Grid members sharing a trace decode it once per worker instead of
#: unpickling a request list per job.  A run never writes to its
#: trace's requests, so jobs in one worker share the cached requests
#: exactly like serial jobs share the caller's.
_WORKER_TRACES: Dict[str, Trace] = {}


def _materialise_shared(shared: "_SharedTrace") -> Trace:
    """Rebuild (or fetch the cached) Trace behind a shared-memory handle."""
    cached = _WORKER_TRACES.get(shared.shm_name)
    if cached is not None:
        return cached
    segment = shared_memory.SharedMemory(name=shared.shm_name)
    try:
        view = np.ndarray((shared.count,), dtype=_TRACE_DTYPE, buffer=segment.buf)
        columns = view.copy()
    finally:
        segment.close()
    # tolist() yields Python floats/ints bit-identical to the encoded
    # values, so rehydrated requests compare equal field-for-field.
    arrivals = columns["arrival_time"].tolist()
    inputs = columns["input_tokens"].tolist()
    outputs = columns["output_tokens"].tolist()
    request_ids = columns["request_id"].tolist()
    service_indices = columns["service"].tolist()
    slo_scales = columns["slo_scale"].tolist()
    services = shared.services
    trace = Trace(
        name=shared.name,
        requests=[
            Request(
                arrival_time=arrivals[row],
                input_tokens=inputs[row],
                output_tokens=outputs[row],
                request_id=request_ids[row],
                service=services[service_indices[row]],
                slo_scale=slo_scales[row],
            )
            for row in range(shared.count)
        ],
    )
    _WORKER_TRACES[shared.shm_name] = trace
    return trace


class _SharedTraceArena:
    """Owner of the shared-memory segments backing one pool's traces.

    ``adopt`` rewrites an event-backend job to carry a
    :class:`_SharedTrace` handle instead of its request list, encoding
    each distinct trace exactly once however many jobs share it.
    ``close`` unlinks every segment — call it only after the pool has
    shut down, so no worker is still attaching.  If the platform cannot
    provide shared memory the arena degrades gracefully: jobs keep
    their picklable trace and run exactly as before.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._by_trace: Dict[int, "_SharedTrace"] = {}
        self._disabled = False

    def adopt(self, job: _Job) -> _Job:
        if self._disabled or job.trace is None:
            return job
        handle = self._by_trace.get(id(job.trace))
        if handle is None:
            try:
                handle, segment = _encode_trace(job.trace)
            except OSError:
                self._disabled = True
                return job
            self._segments.append(segment)
            self._by_trace[id(job.trace)] = handle
        return dataclasses.replace(job, trace=None, shared_trace=handle)

    def close(self) -> None:
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()
        self._by_trace.clear()


def run_scenario(
    scenario: Scenario,
    lean: bool = False,
    trace: Optional[Trace] = None,
) -> RunSummary:
    """Run one scenario to completion and return its summary.

    ``trace`` short-circuits :meth:`TraceSpec.build` when the caller has
    already materialised (and can share) the trace.
    """
    config = scenario.resolved_config()
    if scenario.backend == "fluid":
        # An explicit ``trace`` is used as-is (FluidEngine accepts a
        # Trace, BinnedTrace or raw TraceBin sequence); only a TraceSpec
        # carried by the scenario itself needs materialising here.
        source = trace if trace is not None else scenario.trace
        if trace is None and not isinstance(source, (Trace, BinnedTrace)):
            source = scenario.build_bins()
        engine = FluidEngine(
            scenario.policy_spec(),
            source,
            config,
            # A caller-supplied trace names itself; the scenario's key
            # would mislabel it.
            trace_name=None if trace is not None else scenario.trace_key,
        )
        return engine.run()
    trace = trace if trace is not None else scenario.build_trace()
    engine = SimulationEngine(scenario.policy_spec(), trace, config, lean=lean)
    return engine.run()


def _prepared(scenarios: Sequence[Scenario]) -> List[_Job]:
    """Materialise shared inputs once: traces, profiles, capacity planning.

    Grid members sharing a trace reuse one built ``Trace`` (or, on the
    fluid backend, one binned trace and one set of per-bucket static
    budgets); the static server budget (trace x profile) and the
    per-pool load fractions / warm loads (trace x scheme) are each
    computed once instead of per scenario.  Doing this serially up front
    also spares every worker process the duplicated work.
    """
    from repro.experiments.fluid import FluidRunner
    from repro.experiments.runner import (
        load_fractions_from_trace,
        pool_loads_from_trace,
        resolve_static_servers,
    )
    from repro.workload.classification import DEFAULT_SCHEME

    traces: Dict[object, Trace] = {}
    bins_cache: Dict[object, tuple] = {}
    static_cache: Dict[object, int] = {}
    budget_cache: Dict[object, dict] = {}
    capacity_cache: Dict[object, tuple] = {}
    jobs: List[_Job] = []
    for scenario in scenarios:
        shareable = isinstance(scenario.trace, (Trace, BinnedTrace))
        key = id(scenario.trace) if shareable else scenario.trace
        config = scenario.resolved_config()
        if config.profile is None:
            config = dataclasses.replace(config, profile=config.resolved_profile())

        if scenario.backend == "fluid":
            from repro.api.scenario import BINNED_TRACE_KINDS
            from repro.workload.traces import bin_trace

            bins_key = (key, config.fluid_bin_s)
            if bins_key not in bins_cache:
                if isinstance(scenario.trace, BinnedTrace) or (
                    getattr(scenario.trace, "kind", None) in BINNED_TRACE_KINDS
                ):
                    bins = scenario.build_bins(config.fluid_bin_s)
                else:
                    # Request-level trace: share one built Trace with
                    # any event-backend members of the same grid, then
                    # bin it — mixed-backend grids build it once.
                    if key not in traces:
                        traces[key] = scenario.build_trace()
                    bins = bin_trace(traces[key], config.fluid_bin_s)
                bins_cache[bins_key] = (bins, scenario.trace_key)
            bins, trace_name = bins_cache[bins_key]
            scheme = config.scheme or DEFAULT_SCHEME
            budget_key = (bins_key, id(config.profile), scheme.name)
            if budget_key not in budget_cache:
                runner = FluidRunner(
                    model=config.model, scheme=scheme, profile=config.profile
                )
                budget_cache[budget_key] = runner.static_budgets(bins)
            jobs.append(
                _Job(
                    scenario=scenario,
                    config=config,
                    bins=bins,
                    trace_name=trace_name,
                    fine_budgets=budget_cache[budget_key],
                )
            )
            continue

        if key not in traces:
            traces[key] = scenario.build_trace()
        trace = traces[key]
        if config.static_servers is None:
            static_key = (key, id(config.profile))
            if static_key not in static_cache:
                static_cache[static_key] = resolve_static_servers(
                    config, trace, config.profile
                )
            config = dataclasses.replace(
                config, static_servers=static_cache[static_key]
            )
        scheme = scenario.policy_spec().scheme(config.scheme)
        capacity_key = (key, scheme.name)
        if capacity_key not in capacity_cache:
            capacity_cache[capacity_key] = (
                load_fractions_from_trace(trace, scheme),
                pool_loads_from_trace(trace, scheme),
            )
        fractions, warm_loads = capacity_cache[capacity_key]
        jobs.append(
            _Job(
                scenario=scenario,
                config=config,
                trace=trace,
                fractions=fractions,
                warm_loads=warm_loads,
            )
        )
    return jobs


def _run_job(job: _Job, lean: bool) -> RunSummary:
    scenario = job.scenario
    if scenario.backend == "fluid":
        engine = FluidEngine(
            scenario.policy_spec(),
            job.bins,
            job.config,
            fine_budgets=job.fine_budgets,
            trace_name=job.trace_name,
        )
        summary = engine.run()
        return summary.compact() if lean else summary
    trace = job.trace
    if trace is None and job.shared_trace is not None:
        # Process-pool job: rehydrate from shared memory (cached per
        # worker process).
        trace = _materialise_shared(job.shared_trace)
    engine = SimulationEngine(
        scenario.policy_spec(),
        trace,
        job.config,
        lean=lean,
        load_fractions=job.fractions,
        warm_loads=job.warm_loads,
    )
    summary = engine.run()
    # Lean sweeps only consume summary statistics; condense the
    # per-request payloads so process pools do not spend their speedup
    # pickling outcome objects back to the parent (every derived metric
    # is unchanged — see RunSummary.compact).  Applied serially too, so
    # serial and parallel results are identical.
    return summary.compact() if lean else summary


def _execute(jobs: List[_Job], workers: Optional[int], lean: bool) -> List[RunSummary]:
    if not workers or workers <= 1:
        return [_run_job(job, lean) for job in jobs]
    arena = _SharedTraceArena()
    jobs = [arena.adopt(job) for job in jobs]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_job, job, lean) for job in jobs]
            return [future.result() for future in futures]
    finally:
        # Unlink only after the pool context has joined its workers, so
        # no worker is still attaching to a segment being removed.
        arena.close()


def _stream(
    jobs: List[_Job],
    keys: Sequence[str],
    workers: Optional[int],
    lean: bool,
    sink: ResultSink,
    skipped: int = 0,
) -> SweepReport:
    """Run jobs and hand each summary to the sink as it completes.

    Summaries are never accumulated: serially they arrive in input
    order; on a pool, in completion order (every record names its
    scenario, so order carries no information).  The sink is opened
    before the first result and closed afterwards, also on error.

    A job that raises does not abort the sweep: the exception becomes a
    structured error record (``sink.write_error``) and every other job
    still runs.  Only a *sink* failure (or an interrupt) stops the
    sweep — pending pool futures are cancelled then, so the pool
    shutdown does not start queued jobs whose results nobody will
    write, and the ``with sink:`` exit closes the file after the last
    completed write.  The resulting :class:`SweepReport` is attached as
    ``sink.report`` (even on an interrupted sweep, with partial counts).
    """
    ran = failed = 0

    def _consume(key: str, run) -> None:
        nonlocal ran, failed
        try:
            summary = run()
        except BrokenExecutor:
            # A dead pool (e.g. an OOM-killed process worker) fails
            # every remaining future — that is infrastructure, not the
            # scenarios: recording it per scenario would fill the file
            # with bogus error records for work that never ran.  Abort
            # like a sink failure instead.
            raise
        except Exception as error:
            sink.write_error(key, error)
            failed += 1
        else:
            sink.write(key, summary)
            ran += 1

    with sink:
        try:
            if not workers or workers <= 1:
                for key, job in zip(keys, jobs):
                    _consume(key, lambda: _run_job(job, lean))
            else:
                arena = _SharedTraceArena()
                jobs = [arena.adopt(job) for job in jobs]
                try:
                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        futures = {
                            pool.submit(_run_job, job, lean): key
                            for key, job in zip(keys, jobs)
                        }
                        # as_completed snapshots the future set up
                        # front, so popping entries while iterating is
                        # safe — and necessary: holding the dict until
                        # the loop ends would keep every completed
                        # summary alive, defeating the sink's memory
                        # bound.
                        try:
                            for future in as_completed(futures):
                                key = futures.pop(future)
                                _consume(key, future.result)
                        except BaseException:
                            for pending in futures:
                                pending.cancel()
                            raise
                finally:
                    # The pool context has joined its workers by the
                    # time this runs, so unlinking the segments here
                    # cannot race a worker's attach.
                    arena.close()
        finally:
            sink.report = SweepReport(
                total=len(jobs) + skipped, skipped=skipped, ran=ran, failed=failed
            )
    return sink.report


def runs(
    scenarios: Iterable[Scenario],
    workers: Optional[int] = None,
    lean: bool = False,
    sink: Optional[ResultSink] = None,
    resume: bool = False,
) -> Union[List[RunSummary], ResultSink]:
    """Run many scenarios, returning summaries in input order.

    ``workers`` > 1 executes scenarios on a process pool (see the module
    docstring for the trade-off); ``None``, 0 or 1 runs them serially.
    Results are identical either way.  ``lean=True`` additionally
    returns *compact* summaries (condensed latency arrays instead of
    per-request outcome objects — identical derived metrics, far cheaper
    to transfer from process pools).

    With ``sink`` set, every summary is written to the sink as it
    completes (keyed by :attr:`Scenario.key`) instead of being
    accumulated, and the sink itself is returned with ``sink.report``
    counting ran/skipped/failed scenarios.  Scenario keys must then be
    unique — they are the records' identity.  ``resume=True`` skips
    scenarios the sink already records successfully, before their
    traces are built, so rerunning an interrupted sweep costs only the
    missing scenarios.
    """
    scenarios = list(scenarios)
    if sink is None:
        if resume:
            raise ValueError(
                "resume=True requires sink=; the sink's existing records "
                "define which scenarios to skip"
            )
        return _execute(_prepared(scenarios), workers, lean)
    keys = [s.key for s in scenarios]
    duplicates = _duplicate_keys(keys)
    if duplicates:
        raise ValueError(
            "duplicate scenario key(s) "
            + ", ".join(repr(key) for key in duplicates)
            + ": streamed records are keyed by Scenario.key, so duplicates "
            "would collide in the sink (and make resume skip work that "
            "never ran) — disambiguate with Scenario.label"
        )
    skipped = 0
    if resume:
        recorded, done = sink.scan_keys()
        _check_no_stale_records(recorded, keys)
        if done:
            kept = [
                (key, scenario)
                for key, scenario in zip(keys, scenarios)
                if key not in done
            ]
            skipped = len(scenarios) - len(kept)
            keys = [key for key, _ in kept]
            scenarios = [scenario for _, scenario in kept]
    _stream(_prepared(scenarios), keys, workers, lean, sink, skipped=skipped)
    return sink


def run_grid(
    grid: ScenarioGrid,
    workers: Optional[int] = None,
    lean: bool = False,
    sink: Optional[ResultSink] = None,
    resume: bool = False,
) -> Union[Dict[str, RunSummary], ResultSink]:
    """Run a scenario grid; summaries are keyed by :attr:`Scenario.key`.

    Duplicate keys are rejected by :class:`ScenarioGrid` construction —
    a silent dict collapse would lose results here and make ``resume``
    skip scenarios that never ran.

    With ``sink`` set, results stream into the sink as they complete
    (nothing is accumulated) and the sink is returned; ``resume=True``
    skips scenarios the sink already records (see :func:`runs`).
    """
    if not isinstance(grid, ScenarioGrid):
        grid = ScenarioGrid(grid)
    if sink is not None or resume:
        return runs(grid, workers=workers, lean=lean, sink=sink, resume=resume)
    summaries = runs(grid, workers=workers, lean=lean)
    return {scenario.key: summary for scenario, summary in zip(grid, summaries)}


def run_policies(
    trace: Union[Trace, BinnedTrace],
    specs: Iterable[PolicySpec],
    config=None,
    workers: Optional[int] = None,
    lean: bool = False,
    backend: str = "event",
) -> Dict[str, RunSummary]:
    """Run several policies on one trace with a shared static budget.

    The scenarios run exactly as grid members would (:func:`runs`), so
    the static server budget is sized once from the trace with 9-pool
    peak accounting, as the paper provisions every baseline with the
    same peak-capable cluster, whatever ``config.scheme`` is.  It is
    applied through a *copy* of the config — the caller's
    ``ExperimentConfig`` is never mutated.  On the fluid backend
    (``backend="fluid"``, required for pre-binned traces) the budget
    sizing happens inside the fluid runner from the binned peaks
    instead.

    Results are keyed by policy name, in ``specs`` order, so duplicate
    :attr:`PolicySpec.name` entries are rejected — a silent dict
    collapse would lose results.
    """
    specs = list(specs)
    duplicates = _duplicate_keys([spec.name for spec in specs])
    if duplicates:
        raise ValueError(
            "duplicate policy name(s) "
            + ", ".join(repr(name) for name in duplicates)
            + ": run_policies keys results by PolicySpec.name, so duplicates "
            "would silently collide"
        )
    scenarios = [
        Scenario(policy=spec, trace=trace, backend=backend, base_config=config)
        for spec in specs
    ]
    summaries = runs(scenarios, workers=workers, lean=lean)
    return {spec.name: summary for spec, summary in zip(specs, summaries)}
