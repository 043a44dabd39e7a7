"""Manifest-driven campaigns: declarative 1000+-scenario sensitivity grids.

A *campaign* is a sweep described by data instead of code: a JSON (or
TOML) manifest names the grid dimensions (policies x traces x seeds x
SLO scales x accuracies x pool counts x models x backends), an output
file, shard/parallelism settings and a report recipe.  The
:class:`CampaignRunner` turns that manifest into the paper's
sensitivity studies end to end:

* **expand** — every grid block goes through
  :func:`repro.api.scenario.sweep`; the resulting
  :class:`~repro.api.scenario.ScenarioGrid` is validated up front
  (unknown manifest keys, fluid-vs-event dimension rules, duplicate
  scenario keys) so a 1000-scenario campaign cannot die on scenario 937;
* **shard** — :func:`shard_scenarios` deals the grid round-robin over
  ``n`` shards (disjoint, covering, stable across runs — pinned by the
  property suite), each shard streaming into its own
  :func:`shard_path` results file, so ``--shard i/n`` splits one
  campaign across processes or hosts with no coordination beyond the
  shared manifest;
* **run** — scenarios stream through the append-only JSON Lines
  :mod:`repro.api.sinks`, resumed by default: a killed shard rerun
  executes exactly its missing scenarios, and a results file written by
  a *different* grid raises
  :class:`~repro.api.sinks.ResultsMismatchError` instead of being
  silently mixed with this campaign's records;
* **status** — :meth:`CampaignRunner.status` rolls every discovered
  results file up into a :class:`CampaignStatus` (completed / failed /
  pending per shard and campaign-wide);
* **report** — :meth:`CampaignRunner.report` pivots the records into
  the paper's sensitivity tables (:class:`ReportTable`): one metric per
  cell, aggregated over the residual dimensions (seeds, usually) and
  optionally compared against a baseline policy (energy *savings* per
  scheme / SLO-scale / accuracy cell, as in Figures 11-16).

Surfaced as ``python -m repro campaign run|status|report|validate
<manifest>``; the bundled manifests under
:mod:`repro.experiments.manifests` reproduce the Figure 11/15/16 grids
plus wider-than-paper sensitivity campaigns.
"""

from __future__ import annotations

import glob
import json
import os
import re
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.api.executor import SweepReport, runs
from repro.api.scenario import (
    BINNED_TRACE_KINDS,
    FILE_TRACE_KINDS,
    Scenario,
    ScenarioGrid,
    TraceSpec,
    sweep,
)
from repro.api.sinks import (
    InMemorySink,
    ResultsMismatchError,
    ResultSink,
    read_records,
    sink_for_path,
)


class ManifestError(ValueError):
    """A campaign manifest that cannot be parsed, validated or expanded.

    Always carries enough context (manifest name/path, grid block index,
    offending key) to fix the manifest without reading the code.
    """


# ----------------------------------------------------------------------
# Manifest schema
# ----------------------------------------------------------------------
#: Grid-block keys :func:`sweep` dimensions map onto, in expansion order.
GRID_KEYS = (
    "policies",
    "traces",
    "seeds",
    "slo_scales",
    "accuracies",
    "pool_counts",
    "models",
    "backends",
    "fluid_bin_s",
    "label",
)

#: Report pivot dimensions: Scenario fields plus the TraceSpec knobs the
#: paper sweeps.  ``trace`` is the full trace key; ``service`` /
#: ``rate_scale`` / ``seed`` / ``level`` are only available when the
#: scenario carries a :class:`TraceSpec` (concrete traces report None).
REPORT_DIMENSIONS = (
    "policy",
    "trace",
    "backend",
    "model",
    "slo_scale",
    "predictor_accuracy",
    "pool_count",
    "fluid_bin_s",
    "seed",
    "service",
    "rate_scale",
    "level",
    "label",
)

#: Ways a report cell can relate to the baseline cell.
COMPARE_MODES = ("raw", "saving", "ratio")

#: Ways a report cell aggregates its residual-dimension values.
AGGREGATES = ("mean", "sum", "min", "max")


@dataclass(frozen=True)
class ReportSpec:
    """How :meth:`CampaignRunner.report` pivots records into a table.

    ``value`` names a numeric record column (``energy_kwh``,
    ``carbon_kg``, ``slo_attainment``, ...); ``rows`` / ``cols`` name
    :data:`REPORT_DIMENSIONS` that span the table; every remaining
    dimension (seeds, usually) is aggregated away per cell with
    ``aggregate``.  ``compare="saving"`` / ``"ratio"`` divides each cell
    by the matching cell of the ``baseline`` policy — ``saving`` is the
    paper's ``1 - value/baseline``.
    """

    value: str = "energy_kwh"
    rows: Tuple[str, ...] = ("policy",)
    cols: Tuple[str, ...] = ()
    compare: str = "raw"
    baseline: Optional[str] = None
    aggregate: str = "mean"

    def __post_init__(self) -> None:
        for dim in tuple(self.rows) + tuple(self.cols):
            if dim not in REPORT_DIMENSIONS:
                raise ManifestError(
                    f"unknown report dimension {dim!r}; known dimensions: "
                    + ", ".join(REPORT_DIMENSIONS)
                )
        duplicated = set(self.rows) & set(self.cols)
        if duplicated:
            raise ManifestError(
                f"report dimension(s) {sorted(duplicated)} appear in both "
                "rows and cols"
            )
        if self.compare not in COMPARE_MODES:
            raise ManifestError(
                f"unknown report compare mode {self.compare!r}; known: "
                + ", ".join(COMPARE_MODES)
            )
        if self.aggregate not in AGGREGATES:
            raise ManifestError(
                f"unknown report aggregate {self.aggregate!r}; known: "
                + ", ".join(AGGREGATES)
            )
        if self.compare != "raw" and not self.baseline:
            raise ManifestError(
                f"report compare={self.compare!r} needs a baseline policy "
                "(report.baseline)"
            )


@dataclass(frozen=True)
class CampaignManifest:
    """One parsed campaign manifest (see :func:`load_manifest`).

    ``grids`` holds the raw grid blocks — expansion is deferred to
    :func:`expand_manifest` so a manifest can be loaded, listed and
    introspected cheaply.  ``base_dir`` anchors relative trace paths
    (the manifest's own directory); ``output`` is resolved against the
    *working* directory, because bundled manifests live inside the
    installed package.
    """

    name: str
    grids: Tuple[Mapping[str, object], ...]
    output: str
    description: str = ""
    workers: Optional[int] = None
    shards: int = 1
    lean: bool = True
    report: ReportSpec = field(default_factory=ReportSpec)
    base_dir: Optional[str] = None
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ManifestError("manifest needs a non-empty string 'name'")
        if not self.grids:
            raise ManifestError(
                f"manifest {self.name!r} describes no grid — add a 'grid' "
                "object or a 'grids' list"
            )
        try:
            # Validates the extension without touching the filesystem.
            sink_for_path(self.output)
        except ValueError as error:
            raise ManifestError(
                f"manifest {self.name!r}: bad output {self.output!r}: {error}"
            ) from None
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ManifestError(
                f"manifest {self.name!r}: shards must be a positive integer, "
                f"got {self.shards!r}"
            )
        if self.workers is not None and (
            not isinstance(self.workers, int) or self.workers < 1
        ):
            raise ManifestError(
                f"manifest {self.name!r}: workers must be a positive integer "
                f"or null, got {self.workers!r}"
            )


_EXECUTION_KEYS = ("workers", "shards", "lean")
_TOP_LEVEL_KEYS = ("name", "description", "grid", "grids", "output", "execution", "report")


def manifest_from_dict(
    data: Mapping[str, object],
    source: Optional[str] = None,
    base_dir: Optional[str] = None,
) -> CampaignManifest:
    """Build a validated :class:`CampaignManifest` from parsed data.

    Unknown keys raise :class:`ManifestError` — a declarative layer that
    ignored typos (``accuracys``, ``slo_scale``) would silently run the
    wrong grid.
    """
    where = source or "<manifest>"
    if not isinstance(data, Mapping):
        raise ManifestError(f"{where}: manifest must be a mapping/object")
    unknown = set(data) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise ManifestError(
            f"{where}: unknown manifest key(s) {sorted(unknown)}; known keys: "
            + ", ".join(_TOP_LEVEL_KEYS)
        )
    if "grid" in data and "grids" in data:
        raise ManifestError(f"{where}: give either 'grid' or 'grids', not both")
    raw_grids = data.get("grids", [data["grid"]] if "grid" in data else [])
    if isinstance(raw_grids, Mapping):
        raw_grids = [raw_grids]
    grids: List[Mapping[str, object]] = []
    for index, block in enumerate(raw_grids):
        if not isinstance(block, Mapping):
            raise ManifestError(f"{where}: grid block {index} must be a mapping")
        unknown = set(block) - set(GRID_KEYS)
        if unknown:
            raise ManifestError(
                f"{where}: grid block {index} has unknown key(s) "
                f"{sorted(unknown)}; known keys: " + ", ".join(GRID_KEYS)
            )
        for key, value in block.items():
            # A scalar where a list belongs either iterates per
            # character ("DynamoLLM" -> policy 'D') or dies with
            # "'int' object is not iterable"; name the fix instead of
            # surfacing the shrapnel.  fluid_bin_s and label are the
            # schema's only scalar keys.
            if key not in ("fluid_bin_s", "label") and not isinstance(
                value, (list, tuple)
            ):
                raise ManifestError(
                    f"{where}: grid block {index}: {key!r} must be a "
                    f"list, got {value!r} — write \"{key}\": [{value!r}]"
                )
        grids.append(dict(block))
    execution = data.get("execution", {})
    if not isinstance(execution, Mapping):
        raise ManifestError(f"{where}: 'execution' must be a mapping")
    unknown = set(execution) - set(_EXECUTION_KEYS)
    if unknown:
        raise ManifestError(
            f"{where}: unknown execution key(s) {sorted(unknown)}; known "
            "keys: " + ", ".join(_EXECUTION_KEYS)
        )
    report_data = data.get("report", {})
    if not isinstance(report_data, Mapping):
        raise ManifestError(f"{where}: 'report' must be a mapping")
    for key in ("rows", "cols"):
        if isinstance(report_data.get(key), str):
            # tuple("policy") would expand to per-character "dimensions".
            raise ManifestError(
                f"{where}: report {key!r} must be a list of dimension "
                f"names, got the string {report_data[key]!r} — write "
                f'"{key}": [{report_data[key]!r}]'
            )
    try:
        report = ReportSpec(
            value=report_data.get("value", "energy_kwh"),
            rows=tuple(report_data.get("rows", ("policy",))),
            cols=tuple(report_data.get("cols", ())),
            compare=report_data.get("compare", "raw"),
            baseline=report_data.get("baseline"),
            aggregate=report_data.get("aggregate", "mean"),
        )
    except TypeError as error:
        raise ManifestError(f"{where}: bad report spec: {error}") from None
    unknown = set(report_data) - {
        "value", "rows", "cols", "compare", "baseline", "aggregate"
    }
    if unknown:
        raise ManifestError(
            f"{where}: unknown report key(s) {sorted(unknown)}"
        )
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ManifestError(f"{where}: manifest needs a non-empty string 'name'")
    output = data.get("output", f"{name}.jsonl")
    if not isinstance(output, str):
        raise ManifestError(f"{where}: 'output' must be a string path")
    return CampaignManifest(
        name=name,
        description=str(data.get("description", "")),
        grids=tuple(grids),
        output=output,
        workers=execution.get("workers"),
        shards=execution.get("shards", 1),
        lean=bool(execution.get("lean", True)),
        report=report,
        base_dir=base_dir,
        source=source,
    )


def _open_manifest(path: str, mode: str = "r", **kwargs):
    """Open a manifest file, normalising raw OSError into ManifestError.

    The CLI shows ValueError text without a traceback, so the message
    must name the offending path and say what to do.
    """
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError:
        raise ManifestError(
            f"manifest {path!r} does not exist — check the path"
        ) from None
    except OSError as error:
        reason = error.strerror or str(error)
        raise ManifestError(
            f"cannot read manifest {path!r} ({reason}) — check the path "
            "points at a readable .json or .toml file"
        ) from None


def load_manifest(path: str) -> CampaignManifest:
    """Parse a campaign manifest from a ``.json`` or ``.toml`` file."""
    lowered = path.lower()
    if lowered.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python < 3.11
            raise ManifestError(
                f"{path}: TOML manifests need Python 3.11+ (tomllib); "
                "use the JSON form on older interpreters"
            ) from None
        with _open_manifest(path, "rb") as handle:
            try:
                data = tomllib.load(handle)
            except tomllib.TOMLDecodeError as error:
                raise ManifestError(f"{path}: invalid TOML: {error}") from None
    elif lowered.endswith(".json"):
        with _open_manifest(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise ManifestError(f"{path}: invalid JSON: {error}") from None
    else:
        raise ManifestError(
            f"cannot infer manifest format from {path!r}; use a .json or "
            ".toml extension"
        )
    return manifest_from_dict(
        data, source=path, base_dir=os.path.dirname(os.path.abspath(path))
    )


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def _trace_from_spec(
    spec: object, base_dir: Optional[str], where: str
) -> TraceSpec:
    if isinstance(spec, TraceSpec):
        return spec
    if not isinstance(spec, Mapping):
        raise ManifestError(
            f"{where}: each trace must be a mapping of TraceSpec fields, "
            f"got {spec!r}"
        )
    fields = dict(spec)
    path = fields.get("path")
    if path and base_dir and not os.path.isabs(path):
        # Trace files ship next to the manifest that names them.
        fields["path"] = os.path.join(base_dir, path)
    if fields.get("path") and not os.path.exists(fields["path"]):
        # TraceSpec reads the file lazily; a campaign validates it now —
        # a 1000-scenario run must not die on the first file scenario.
        raise ManifestError(
            f"{where}: bad trace {dict(spec)!r}: trace file "
            f"{fields['path']!r} does not exist (relative paths resolve "
            "against the manifest's directory)"
        )
    try:
        return TraceSpec(**fields)
    except (TypeError, ValueError) as error:
        raise ManifestError(f"{where}: bad trace {dict(spec)!r}: {error}") from None


def _expand_block(
    block: Mapping[str, object],
    index: int,
    manifest: CampaignManifest,
) -> ScenarioGrid:
    where = f"{manifest.source or manifest.name}: grid block {index}"
    traces = [
        _trace_from_spec(spec, manifest.base_dir, where)
        for spec in block.get("traces", ({},))
    ]
    seeds = block.get("seeds")
    if seeds:
        file_kinds = [t.kind for t in traces if t.kind in FILE_TRACE_KINDS]
        if file_kinds:
            raise ManifestError(
                f"{where}: 'seeds' cannot cross file-replay traces "
                f"({'/'.join(file_kinds)}) — a replayed file has no "
                "generation seed, so every seed would produce the same "
                "scenario key"
            )
        traces = [trace.with_(seed=int(seed)) for trace in traces for seed in seeds]
    backends = tuple(block.get("backends", ("event",)))
    binned_kinds = sorted({t.kind for t in traces if t.kind in BINNED_TRACE_KINDS})
    if binned_kinds and "event" in backends:
        raise ManifestError(
            f"{where}: trace kind(s) {'/'.join(binned_kinds)} only exist in "
            "binned form and cannot run on the per-request event backend — "
            "set backends to ['fluid'] for this block"
        )
    try:
        # Resolve policy and model names now: a 1000-scenario campaign
        # must learn about a typo at validation, not at scenario 937.
        from repro.llm.catalog import get_model
        from repro.policies.base import get_policy_spec

        for policy in block.get("policies", ("DynamoLLM",)):
            if isinstance(policy, str):
                get_policy_spec(policy)
        for model in block.get("models", ()):
            if isinstance(model, str):
                get_model(model)
        grid = sweep(
            policies=tuple(block.get("policies", ("DynamoLLM",))),
            traces=tuple(traces),
            slo_scales=tuple(
                float(v) for v in block["slo_scales"]
            ) if "slo_scales" in block else (None,),
            accuracies=tuple(
                float(v) for v in block["accuracies"]
            ) if "accuracies" in block else (None,),
            pool_counts=tuple(
                int(v) for v in block["pool_counts"]
            ) if "pool_counts" in block else (None,),
            models=tuple(block.get("models", (None,))),
            backends=backends,
        )
        if block.get("fluid_bin_s") is not None:
            grid = grid.with_(fluid_bin_s=float(block["fluid_bin_s"]))
        if block.get("label"):
            grid = grid.with_(label=str(block["label"]))
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise ManifestError(f"{where}: {message}") from None
    return grid


def expand_manifest(manifest: CampaignManifest) -> ScenarioGrid:
    """Expand every grid block and validate the combined grid.

    Scenario-level rules (fluid-vs-event dimensions, unknown trace
    kinds) surface here with manifest context; duplicate keys within or
    across blocks are rejected — they would collide in the results file
    and corrupt resume.
    """
    grids = [
        _expand_block(block, index, manifest)
        for index, block in enumerate(manifest.grids)
    ]
    combined = grids[0]
    try:
        for grid in grids[1:]:
            combined = combined + grid
    except ValueError as error:
        raise ManifestError(
            f"{manifest.source or manifest.name}: {error} (grid blocks "
            "overlap — give the blocks distinct 'label's)"
        ) from None
    return combined


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
def shard_scenarios(
    grid: Union[ScenarioGrid, Sequence[Scenario]], index: int, count: int
) -> List[Scenario]:
    """Deterministic round-robin shard ``index`` of ``count``.

    Scenario ``i`` of the expanded grid belongs to shard ``i % count``:
    shards are disjoint, cover the grid, balance to within one scenario
    and — because expansion order is itself deterministic — are stable
    across processes and hosts sharing the manifest.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} outside 0..{count - 1}")
    return [s for position, s in enumerate(grid) if position % count == index]


_SHARD_SUFFIX = re.compile(r"\.shard(\d+)of(\d+)$")


def shard_path(output: str, index: int, count: int) -> str:
    """The results file of shard ``index``/``count`` for ``output``.

    A single-shard campaign streams straight into ``output``; shard
    ``i`` of ``n`` inserts ``.shard<i>of<n>`` before the extension, so
    concurrent shards never contend on one file and
    :meth:`CampaignRunner.status` can discover and attribute them.
    """
    if count == 1:
        return output
    root, extension = os.path.splitext(output)
    return f"{root}.shard{index}of{count}{extension}"


def discover_result_paths(output: str) -> List[Tuple[str, Optional[Tuple[int, int]]]]:
    """Results files on disk for ``output``: the base file and any shards.

    Returns ``(path, (index, count))`` pairs — ``None`` for the
    unsharded base file — ordered base first, then shards by
    ``(count, index)``, so roll-ups are deterministic.
    """
    paths: List[Tuple[str, Optional[Tuple[int, int]]]] = []
    if os.path.exists(output):
        paths.append((output, None))
    root, extension = os.path.splitext(output)
    shards: List[Tuple[int, int, str]] = []
    for candidate in glob.glob(f"{glob.escape(root)}.shard*of*{extension}"):
        candidate_root = candidate[: len(candidate) - len(extension)] if extension else candidate
        match = _SHARD_SUFFIX.search(candidate_root)
        if match:
            index, count = int(match.group(1)), int(match.group(2))
            if 0 <= index < count:
                shards.append((count, index, candidate))
    paths.extend((path, (index, count)) for count, index, path in sorted(shards))
    return paths


# ----------------------------------------------------------------------
# Status
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardStatus:
    """Progress of one results file (the whole grid, or one shard of it)."""

    path: str
    index: Optional[int]  # None for the unsharded base file
    count: Optional[int]
    expected: int  # scenarios this file is responsible for
    completed: int
    failed: int

    @property
    def pending(self) -> int:
        return self.expected - self.completed - self.failed


@dataclass(frozen=True)
class CampaignStatus:
    """Roll-up of every discovered results file of a campaign.

    ``completed`` counts grid scenarios with a successful record in any
    file; ``failed`` counts scenarios whose only records are errors
    (a resumed run retries them); ``pending`` is the rest.  The per-run
    :class:`~repro.api.executor.SweepReport` objects live on the
    :class:`ShardRun` values :meth:`CampaignRunner.run` returns.
    """

    name: str
    total: int
    completed: int
    failed: int
    shards: Tuple[ShardStatus, ...]

    @property
    def pending(self) -> int:
        return self.total - self.completed - self.failed

    @property
    def done(self) -> bool:
        return self.pending == 0 and self.failed == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "total": self.total,
            "completed": self.completed,
            "failed": self.failed,
            "pending": self.pending,
            "done": self.done,
            "shards": [
                {
                    "path": shard.path,
                    "shard": None
                    if shard.index is None
                    else f"{shard.index}/{shard.count}",
                    "expected": shard.expected,
                    "completed": shard.completed,
                    "failed": shard.failed,
                    "pending": shard.pending,
                }
                for shard in self.shards
            ],
        }


@dataclass(frozen=True)
class ShardRun:
    """Outcome of one :meth:`CampaignRunner.run` invocation."""

    path: Optional[str]  # None when streaming into a caller-supplied sink
    index: Optional[int]
    count: Optional[int]
    report: SweepReport


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def scenario_dimensions(scenario: Scenario) -> Dict[str, object]:
    """The :data:`REPORT_DIMENSIONS` values of one scenario."""
    spec = scenario.trace if isinstance(scenario.trace, TraceSpec) else None
    model = scenario.model_spec()
    return {
        "policy": scenario.policy_name,
        "trace": scenario.trace_key,
        "backend": scenario.backend,
        "model": model.name if model is not None else None,
        "slo_scale": scenario.slo_scale,
        "predictor_accuracy": scenario.predictor_accuracy,
        "pool_count": scenario.pool_count,
        "fluid_bin_s": scenario.fluid_bin_s,
        "seed": spec.seed if spec is not None else None,
        "service": spec.service if spec is not None else None,
        "rate_scale": spec.rate_scale if spec is not None else None,
        "level": spec.level if spec is not None and spec.kind == "poisson" else None,
        "label": scenario.label,
    }


def _dimension_label(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _sort_token(value: object) -> Tuple[int, object]:
    # None sorts first, then numbers, then strings — mixed-type cells
    # (e.g. predictor_accuracy None on the baseline) stay orderable.
    if value is None:
        return (0, 0.0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return (2, str(value))
    return (1, float(value))


@dataclass(frozen=True)
class ReportTable:
    """One pivoted sensitivity table (see :class:`ReportSpec`).

    ``columns`` lists the row-dimension names followed by one label per
    column cell; ``rows`` holds the matching values — dimension values
    first, then the (possibly compared) metric per column cell, ``None``
    where the campaign has no records yet.
    """

    name: str
    value: str
    compare: str
    baseline: Optional[str]
    row_dims: Tuple[str, ...]
    col_dims: Tuple[str, ...]
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "value": self.value,
            "compare": self.compare,
            "baseline": self.baseline,
            "row_dims": list(self.row_dims),
            "col_dims": list(self.col_dims),
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }

    def format(self) -> str:
        """Fixed-width text rendering for the terminal."""
        header = list(self.columns)
        body = [
            [
                _dimension_label(cell)
                if position < len(self.row_dims)
                else ("-" if cell is None else f"{cell:.4f}")
                for position, cell in enumerate(row)
            ]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(name.ljust(widths[i]) for i, name in enumerate(header)),
            "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        for row in body:
            lines.append(
                "  ".join(
                    cell.ljust(widths[i]) if i < len(self.row_dims) else cell.rjust(widths[i])
                    for i, cell in enumerate(row)
                )
            )
        title = f"{self.name}: {self.value}"
        if self.compare != "raw":
            title += f" ({self.compare} vs {self.baseline})"
        return title + "\n" + "\n".join(lines)


def _aggregate(values: Sequence[float], how: str) -> float:
    if how == "mean":
        return sum(values) / len(values)
    if how == "sum":
        return sum(values)
    if how == "min":
        return min(values)
    return max(values)


def build_report(
    spec: ReportSpec,
    grid: ScenarioGrid,
    records: Mapping[str, Mapping[str, object]],
) -> ReportTable:
    """Pivot successful records into the manifest's sensitivity table.

    ``records`` maps scenario keys to their result records (the merged,
    grid-validated output of :meth:`CampaignRunner.records`).  Each
    record contributes its ``spec.value`` column to the (rows x cols)
    cell its scenario's dimensions select; with ``compare`` set, the
    contribution is first divided by the matching baseline record —
    matched per record on every dimension the baseline scenario pins
    (its ``None`` dimensions are wildcards, so the paper's
    accuracy-less ``SinglePool`` baseline matches every accuracy cell of
    the same trace/seed).
    """
    pivot = tuple(spec.rows) + tuple(spec.cols)
    cells: Dict[Tuple, Dict[Tuple, List[float]]] = {}
    baselines_by_trace: Dict[str, List[Tuple[Dict[str, object], float]]] = {}

    contributions: List[Tuple[Tuple, Tuple, Dict[str, object], float]] = []
    for key, record in records.items():
        scenario = grid[key]
        dims = scenario_dimensions(scenario)
        raw = record.get(spec.value)
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            available = sorted(
                name
                for name, cell in record.items()
                if isinstance(cell, (int, float)) and not isinstance(cell, bool)
            )
            raise ManifestError(
                f"report value {spec.value!r} is not a numeric column of the "
                f"records (scenario {key!r}); numeric columns: "
                + ", ".join(available)
            )
        value = float(raw)
        if spec.baseline is not None and dims["policy"] == spec.baseline:
            baselines_by_trace.setdefault(dims["trace"], []).append((dims, value))
        row_id = tuple(dims[d] for d in spec.rows)
        col_id = tuple(dims[d] for d in spec.cols)
        contributions.append((row_id, col_id, dims, value))

    if spec.compare != "raw" and not baselines_by_trace:
        raise ManifestError(
            f"report compare={spec.compare!r} found no records of the "
            f"baseline policy {spec.baseline!r} — has the campaign run it?"
        )

    def baseline_for(dims: Mapping[str, object]) -> float:
        # "label" is excluded from the match: it disambiguates grid
        # blocks (a baseline block may carry one precisely because it
        # overlaps another block), it does not describe the simulation.
        candidates = [
            value
            for base_dims, value in baselines_by_trace.get(dims["trace"], ())
            if all(
                base_dims[d] is None or base_dims[d] == dims[d]
                for d in REPORT_DIMENSIONS
                if d not in ("policy", "trace", "label")
            )
        ]
        if not candidates:
            raise ManifestError(
                f"no baseline ({spec.baseline!r}) record matches the "
                f"scenario dimensions {dict(dims)!r}; the baseline grid "
                "block must cover every trace/seed the compared scenarios "
                "use"
            )
        return _aggregate(candidates, spec.aggregate)

    for row_id, col_id, dims, value in contributions:
        if spec.compare != "raw":
            base = baseline_for(dims)
            if base == 0.0:
                # 1 - x/0 would fabricate a perfect saving (and 0/0 a
                # perfect one for the baseline row itself); a zero-valued
                # baseline makes relative comparison meaningless.
                raise ManifestError(
                    f"the {spec.baseline!r} baseline records "
                    f"{spec.value} == 0 for scenario dimensions "
                    f"{dict(dims)!r}, so compare={spec.compare!r} is "
                    "undefined — pick a different value column or "
                    "compare='raw'"
                )
            ratio = value / base
            value = 1.0 - ratio if spec.compare == "saving" else ratio
        cells.setdefault(row_id, {}).setdefault(col_id, []).append(value)

    col_ids = sorted(
        {col_id for row in cells.values() for col_id in row},
        key=lambda col_id: tuple(_sort_token(v) for v in col_id),
    )
    row_ids = sorted(
        cells, key=lambda row_id: tuple(_sort_token(v) for v in row_id)
    )
    if spec.cols:
        col_labels = [
            " ".join(
                f"{d}={_dimension_label(v)}" for d, v in zip(spec.cols, col_id)
            )
            for col_id in col_ids
        ]
    else:
        col_labels = [spec.value if spec.compare == "raw" else spec.compare]
        col_ids = col_ids or [()]
    rows = tuple(
        tuple(row_id)
        + tuple(
            _aggregate(cells[row_id][col_id], spec.aggregate)
            if col_id in cells[row_id]
            else None
            for col_id in col_ids
        )
        for row_id in row_ids
    )
    return ReportTable(
        name="report",
        value=spec.value,
        compare=spec.compare,
        baseline=spec.baseline,
        row_dims=tuple(spec.rows),
        col_dims=tuple(spec.cols),
        columns=tuple(spec.rows) + tuple(col_labels),
        rows=rows,
    )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class CampaignRunner:
    """Drives one campaign manifest end to end: run, status, report.

    ``out`` overrides the manifest's output path (bundled manifests name
    a working-directory-relative default).  The expanded grid is cached;
    construction itself stays cheap.
    """

    def __init__(self, manifest: CampaignManifest, out: Optional[str] = None) -> None:
        self.manifest = manifest
        self.out = out or manifest.output
        self._grid: Optional[ScenarioGrid] = None

    @classmethod
    def from_grid(
        cls,
        name: str,
        grid: Union[ScenarioGrid, Iterable[Scenario]],
        output: Optional[str] = None,
        report: Optional[ReportSpec] = None,
        workers: Optional[int] = None,
        shards: int = 1,
        lean: bool = True,
    ) -> "CampaignRunner":
        """A programmatic campaign over an already-built grid.

        The declarative layer's substrate for in-code drivers (the
        sensitivity figures): sharding, resume, status and report all
        behave exactly as for a manifest-loaded campaign.
        """
        if not isinstance(grid, ScenarioGrid):
            grid = ScenarioGrid(grid)
        manifest = CampaignManifest(
            name=name,
            grids=({},),  # placeholder; expansion is pre-empted below
            output=output or f"{name}.jsonl",
            workers=workers,
            shards=shards,
            lean=lean,
            report=report or ReportSpec(),
        )
        runner = cls(manifest)
        runner._grid = grid
        return runner

    # ------------------------------------------------------------------
    def grid(self) -> ScenarioGrid:
        """The expanded, validated scenario grid (cached)."""
        if self._grid is None:
            self._grid = expand_manifest(self.manifest)
        return self._grid

    def validate(self) -> ScenarioGrid:
        """Expand and validate; raises :class:`ManifestError` on problems."""
        return self.grid()

    # ------------------------------------------------------------------
    def run(
        self,
        shard: Optional[Tuple[int, int]] = None,
        workers: Optional[int] = None,
        resume: bool = True,
        sink: Optional[ResultSink] = None,
    ) -> List[ShardRun]:
        """Run the campaign (or one shard of it) and return shard reports.

        ``shard=(i, n)`` runs only that shard into its
        :func:`shard_path` results file — the multi-host entry point.
        Without ``shard``, the manifest's ``shards`` setting applies:
        every shard runs in sequence locally (one results file each), so
        a single host still produces the sharded layout a fleet would.
        Scenarios stream through an append-only JSON Lines sink with
        ``resume=True`` (default): rerunning after a kill executes
        exactly the missing scenarios; ``resume=False`` refuses an
        existing non-empty results file instead of appending to it.  A
        caller-supplied ``sink`` (e.g. :class:`InMemorySink`) bypasses
        the file layout and runs the whole grid — or the given shard —
        into it, skipping what it already holds unless ``resume=False``.
        """
        grid = self.grid()
        workers = workers if workers is not None else self.manifest.workers
        if sink is not None:
            scenarios = (
                shard_scenarios(grid, *shard) if shard is not None else list(grid)
            )
            result = runs(
                scenarios,
                workers=workers,
                lean=self.manifest.lean,
                sink=sink,
                resume=resume,
            )
            return [
                ShardRun(
                    path=None,
                    index=shard[0] if shard else None,
                    count=shard[1] if shard else None,
                    report=result.report,
                )
            ]
        if shard is not None:
            pairs = [shard]
        elif self.manifest.shards > 1:
            pairs = [(index, self.manifest.shards) for index in range(self.manifest.shards)]
        else:
            pairs = [(0, 1)]
        shard_runs: List[ShardRun] = []
        for index, count in pairs:
            scenarios = shard_scenarios(grid, index, count)
            path = shard_path(self.out, index, count)
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            if not resume and os.path.exists(path) and os.path.getsize(path) > 0:
                raise ValueError(
                    f"{path} already holds results; campaigns resume by "
                    "default (resume=True) — pass resume only after removing "
                    "the file for a genuinely fresh run (it is never "
                    "truncated)"
                )
            result = runs(
                scenarios,
                workers=workers,
                lean=self.manifest.lean,
                sink=sink_for_path(path),
                resume=resume,
            )
            shard_runs.append(
                ShardRun(
                    path=path,
                    index=index if count > 1 else None,
                    count=count if count > 1 else None,
                    report=result.report,
                )
            )
        return shard_runs

    # ------------------------------------------------------------------
    def result_paths(self) -> List[Tuple[str, Optional[Tuple[int, int]]]]:
        return discover_result_paths(self.out)

    def records(self) -> Dict[str, Mapping[str, object]]:
        """Merged successful records across every discovered results file.

        Keys are validated against the expanded grid: a record naming a
        scenario the manifest does not describe means the file belongs
        to a different campaign and raises
        :class:`~repro.api.sinks.ResultsMismatchError` (the campaign
        counterpart of the executors' resume check).  Later files win on
        duplicate keys (a scenario legitimately appears in both an
        unsharded and a sharded results file after re-sharding).
        """
        known: Set[str] = set(self.grid().keys())
        merged: Dict[str, Mapping[str, object]] = {}
        for path, _ in self.result_paths():
            for record in read_records(path):
                key = record.get("scenario")
                if key in (None, ""):
                    continue
                key = str(key)
                if key not in known:
                    raise ResultsMismatchError(
                        f"{path} records scenario {key!r}, which campaign "
                        f"{self.manifest.name!r} does not describe — the "
                        "file belongs to a different grid/manifest; point "
                        "--out at this campaign's results (or remove the "
                        "stale file)"
                    )
                if not record.get("error"):
                    merged[key] = record
        return merged

    def status(self) -> CampaignStatus:
        """Per-shard and campaign-wide completion roll-up."""
        grid = self.grid()
        all_keys = set(grid.keys())
        completed: Set[str] = set()
        failed: Set[str] = set()
        shards: List[ShardStatus] = []
        for path, shard in self.result_paths():
            succeeded: Set[str] = set()
            errored: Set[str] = set()
            for record in read_records(path):
                key = record.get("scenario")
                if key in (None, ""):
                    continue
                key = str(key)
                if key not in all_keys:
                    raise ResultsMismatchError(
                        f"{path} records scenario {key!r}, which campaign "
                        f"{self.manifest.name!r} does not describe — the "
                        "file belongs to a different grid/manifest"
                    )
                (errored if record.get("error") else succeeded).add(key)
            errored -= succeeded  # a later success supersedes the error
            completed |= succeeded
            failed |= errored
            expected = (
                len(shard_scenarios(grid, *shard)) if shard is not None else len(grid)
            )
            shards.append(
                ShardStatus(
                    path=path,
                    index=shard[0] if shard else None,
                    count=shard[1] if shard else None,
                    expected=expected,
                    completed=len(succeeded),
                    failed=len(errored),
                )
            )
        failed -= completed
        return CampaignStatus(
            name=self.manifest.name,
            total=len(grid),
            completed=len(completed),
            failed=len(failed),
            shards=tuple(shards),
        )

    def report(self) -> ReportTable:
        """Pivot the campaign's records into its sensitivity table."""
        records = self.records()
        if not records:
            raise ManifestError(
                f"campaign {self.manifest.name!r} has no successful records "
                f"under {self.out!r} yet — run it first "
                "(python -m repro campaign run ...)"
            )
        return build_report(self.manifest.report, self.grid(), records)

    def run_in_memory(self, workers: Optional[int] = None) -> InMemorySink:
        """Run the whole grid into an :class:`InMemorySink` and return it.

        The in-process path the ported figure drivers use: full
        :class:`~repro.metrics.summary.RunSummary` objects, no files.
        """
        sink = InMemorySink()
        self.run(workers=workers, sink=sink, resume=False)
        return sink
