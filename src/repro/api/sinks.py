"""Streamed result sinks for large scenario sweeps.

A 1000+-scenario grid should not hold every
:class:`~repro.metrics.summary.RunSummary` in memory until the sweep
ends.  A :class:`ResultSink` receives each summary *as it completes*:
the executors (:func:`repro.api.executor.runs` /
:func:`~repro.api.executor.run_grid`) and the CLI
(``python -m repro sweep --out results.jsonl``) thread one through and
flush results incrementally instead of accumulating them.

Three built-in sinks:

* :class:`JsonlSink` — one JSON object per line, flushed per result.
  Crash-safe for long sweeps (every completed scenario is already on
  disk) and trivially streamable (``tail -f results.jsonl``).
* :class:`CsvSink` — one row per result; nested values (the per-pool
  attainment map) are JSON-encoded into their cell.
* :class:`InMemorySink` — keeps summaries keyed like ``run_grid``; the
  in-process default the streaming paths are measured against.

Every record is a flat :func:`summary_record` dict, so files written by
either file sink round-trip through :func:`read_jsonl` /
:func:`read_csv` (pinned by the property suite).

Durability contract
-------------------
The file sinks are restart-safe: opening one on an existing results
file **appends** — it never truncates — so a sweep killed 900 scenarios
into a 1000-scenario grid keeps its first 900 records.  ``count`` seeds
from the records already on disk, :class:`CsvSink` reuses the existing
header instead of writing a second one, and a *torn* final line left by
a crash mid-write is repaired on open (the partial record is dropped;
:func:`read_jsonl` / :func:`read_csv` tolerate it too).  The scenario
keys stored in the ``scenario`` column are the resume identity:
:func:`completed_keys` lists the keys already recorded successfully,
and the executors' ``resume=True`` (or a sink constructed with
``resume=True``) skips exactly those, so the rerun executes only the
missing scenarios.  A scenario that *raises* is recorded as a
structured :func:`error_record` (``error`` is non-``None``) via
:meth:`ResultSink.write_error`; error records do not count as
completed, so a resumed sweep retries them.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Dict, IO, List, Optional, Set

from repro.metrics.summary import RunSummary


def _open_error(path: str, error: OSError, verb: str) -> ValueError:
    """Normalise a raw :class:`OSError` into a short actionable message.

    The CLI surfaces ``ValueError`` text directly (no traceback), so the
    message must stand alone: it names the offending path, the OS
    reason, and what to do about it.
    """
    reason = error.strerror or str(error)
    if isinstance(error, FileNotFoundError):
        hint = (
            "check the path exists"
            if verb == "read"
            else "create the parent directory first"
        )
    elif isinstance(error, IsADirectoryError):
        hint = "pass a file path, not a directory"
    elif isinstance(error, PermissionError):
        hint = "check the file permissions"
    else:
        hint = "check the path"
    return ValueError(f"cannot {verb} results file {path!r} ({reason}) — {hint}")


class ResultsMismatchError(ValueError):
    """A results file does not belong to the sweep trying to resume it.

    Raised when a resume finds scenario keys on disk that the current
    grid does not contain: the file was written by a *different* grid
    (stale manifest, edited sweep arguments, wrong ``--out`` path).
    Silently ignoring the unknown keys used to mix two sweeps' records
    in one file and present the stale rows as this sweep's output —
    resume now refuses instead, pointing at a fresh output file.
    """


def summary_record(key: str, summary: RunSummary) -> Dict[str, object]:
    """Flatten one run summary into a JSON/CSV-serialisable record.

    The scoreboard fields come from :meth:`RunSummary.headline` (the one
    flattening of a summary — fields added there reach every sink and
    the CLI automatically); this wraps them with identity columns and
    the streaming carbon/cost totals (post-hoc accounting is the
    fallback for summaries produced without the default observer set).
    ``error`` is ``None`` on every successful record — it is the column
    :func:`error_record` fills (error records carry only the identity
    and error columns; the metric columns exist in the CSV header but
    stay empty for them).
    """
    record: Dict[str, object] = {
        "scenario": key,
        "policy": summary.policy,
        "trace": summary.trace,
        "duration_s": summary.duration_s,
    }
    record.update(summary.headline())
    # headline() reports counters as floats for its numeric scoreboard;
    # records keep them as the integers they are.
    record["requests"] = int(record["requests"])
    record["squashed"] = int(record["squashed"])
    record["reconfigurations"] = summary.reconfigurations
    record["carbon_kg"] = (
        summary.carbon.total_kg if summary.carbon is not None else summary.carbon_kg()
    )
    record["cost_usd"] = (
        summary.cost.total_usd if summary.cost is not None else summary.cost_usd()
    )
    record["pool_slo_attainment"] = dict(summary.pool_slo_attainment)
    record["error"] = None
    return record


def error_record(key: str, error: BaseException) -> Dict[str, object]:
    """The structured record of a scenario that raised instead of completing.

    Shares the ``scenario`` identity and ``error`` columns with
    :func:`summary_record` but carries no metric fields (there is no
    summary) — consumers should filter on ``record.get("error")``
    before indexing metric columns.  ``error`` holds
    ``"ExceptionType: message"`` with whitespace runs collapsed: a raw
    newline inside a CSV cell would leave a torn-row crash ambiguous
    (see ``CsvSink._repair``).  Records with a non-empty ``error`` are
    excluded from :func:`completed_keys`, so a resumed sweep reruns the
    failed scenario — its fresh record appends after the stale error
    record.
    """
    message = " ".join(f"{type(error).__name__}: {error}".split())
    return {
        "scenario": key,
        "error": message,
    }


#: Lazily-computed canonical column set of :func:`summary_record` (the
#: schema is static — identity columns + the headline scoreboard).
_RECORD_FIELDNAMES: Optional[List[str]] = None


def record_fieldnames() -> List[str]:
    """The canonical column order of :func:`summary_record`.

    Derived from an empty :class:`RunSummary`, so any field added to
    ``RunSummary.headline`` appears here automatically.  Lets
    :class:`CsvSink` write its header up front — before the first
    result, even if that result is an error record — keeping one schema
    across interrupted, failed and resumed sweeps.
    """
    global _RECORD_FIELDNAMES
    if _RECORD_FIELDNAMES is None:
        from repro.metrics.energy import EnergyAccount
        from repro.metrics.latency import LatencyStats
        from repro.metrics.power import PowerTimeSeries

        dummy = RunSummary(
            policy="", trace="", duration_s=0.0,
            energy=EnergyAccount(), latency=LatencyStats(),
            power=PowerTimeSeries(),
        )
        _RECORD_FIELDNAMES = list(summary_record("", dummy))
    return list(_RECORD_FIELDNAMES)


class ResultSink:
    """Receives one result at a time from a sweep executor.

    Subclasses implement :meth:`write`; :meth:`open` / :meth:`close`
    bracket the sweep (the executors call them via the context-manager
    protocol, so sinks are usable in ``with`` blocks directly).
    """

    #: Executors treat a truthy ``resume`` as ``resume=True``: scenarios
    #: whose keys :meth:`completed_keys` reports are skipped.
    resume: bool = False
    #: The executors attach a :class:`repro.api.executor.SweepReport`
    #: (ran / skipped / failed counts) here after a streamed sweep.
    report = None

    def open(self) -> None:  # pragma: no cover - hook
        """Called once before the first result."""

    def write(self, key: str, summary: RunSummary) -> None:
        """Called once per completed scenario, in completion order."""
        raise NotImplementedError

    def write_error(self, key: str, error: BaseException) -> None:
        """Called for a scenario that raised instead of completing.

        The default records nothing (the executor still counts the
        failure in its report); sinks that persist records should write
        an :func:`error_record` so the failure is visible in the file
        and the scenario is retried on resume.
        """

    def completed_keys(self) -> Set[str]:
        """Scenario keys already recorded successfully (for ``resume``)."""
        return set()

    def recorded_keys(self) -> Set[str]:
        """Every scenario key with *any* record in the sink — errors too.

        The superset :meth:`completed_keys` draws from: error records
        count here (their scenario was attempted and is part of the
        sink's grid) even though they do not count as completed.  The
        executors compare this against the sweep's own keys when
        resuming, so a results file written by a different grid raises
        :class:`ResultsMismatchError` instead of silently mixing two
        sweeps' records in one file.
        """
        return self.completed_keys()

    def scan_keys(self):
        """``(recorded, completed)`` key sets in one scan.

        What the executors' resume path calls: file sinks derive both
        sets from a single read of the results file instead of parsing
        it once per set.
        """
        return self.recorded_keys(), self.completed_keys()

    def close(self) -> None:  # pragma: no cover - hook
        """Called once after the last result (also on error)."""

    def __enter__(self) -> "ResultSink":
        self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InMemorySink(ResultSink):
    """Accumulates summaries in memory, keyed like ``run_grid`` results."""

    def __init__(self) -> None:
        self.results: Dict[str, RunSummary] = {}
        self.errors: Dict[str, BaseException] = {}

    def write(self, key: str, summary: RunSummary) -> None:
        self.results[key] = summary

    def write_error(self, key: str, error: BaseException) -> None:
        self.errors[key] = error

    def completed_keys(self) -> Set[str]:
        return set(self.results)

    def recorded_keys(self) -> Set[str]:
        return set(self.results) | set(self.errors)

    def __len__(self) -> int:
        return len(self.results)


class _FileSink(ResultSink):
    """Append-only file sink base: restart seeding and torn-tail repair.

    Subclasses provide ``_repair(data)`` — given the file's current
    bytes, return ``(bytes_to_keep, record_count)``.  ``bytes_to_keep``
    below ``len(data)`` truncates a torn final record a crash mid-write
    left behind; ``len(data) + 1`` appends the newline a complete final
    record is missing.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = path
        self.resume = resume
        #: Records in the file: seeded from disk on open, then
        #: incremented per write (success or error), so it always
        #: matches the file's record count.
        self.count = 0
        #: Successful / error records written by *this* sink instance.
        self.written = 0
        self.failed = 0
        self._handle: Optional[IO[str]] = None
        self._seeded = False

    def completed_keys(self) -> Set[str]:
        # Seed (and so repair a torn tail) *before* reading: a torn CSV
        # row can look complete to the reader while the repair is about
        # to truncate it — counting it as done would skip its scenario
        # and then delete its record.
        if not self._seeded:
            self._seed_from_disk()
        return completed_keys(self.path)

    def recorded_keys(self) -> Set[str]:
        # Same repair-before-read ordering as completed_keys.
        if not self._seeded:
            self._seed_from_disk()
        return recorded_keys(self.path)

    def scan_keys(self):
        # One repaired read serves both key sets.
        if not self._seeded:
            self._seed_from_disk()
        records = read_records(self.path)
        return (
            _keys_of(records, completed_only=False),
            _keys_of(records, completed_only=True),
        )

    def open(self) -> None:
        if self._handle is not None:
            return
        if not self._seeded:
            self._seed_from_disk()
        try:
            self._handle = open(self.path, "a", newline="", encoding="utf-8")
        except OSError as error:
            raise _open_error(self.path, error, "write") from None

    def _seed_from_disk(self) -> None:
        self._seeded = True
        try:
            handle = open(self.path, "rb+")
        except FileNotFoundError:
            return
        except OSError as error:
            raise _open_error(self.path, error, "open") from None
        with handle:
            data = handle.read()
            keep, self.count = self._repair(data)
            if keep < len(data):
                # Drop the torn final record a crash mid-write left
                # behind (never a complete record — those stay intact).
                handle.seek(keep)
                handle.truncate()
            elif keep > len(data):
                # A complete final record merely missing its newline
                # separator (written by another tool): terminate it so
                # the append starts on a fresh line.
                handle.write(b"\n")

    def _repair(self, data: bytes):  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class JsonlSink(_FileSink):
    """Appends one JSON line per result, flushed as soon as it completes.

    Opening the sink on an existing results file appends after the
    records already there (``count`` seeds from them); it never
    truncates.  With ``resume=True`` the executors additionally skip
    scenarios the file already records successfully.
    """

    def write(self, key: str, summary: RunSummary) -> None:
        if self._handle is None:
            self.open()
        self._write_line(summary_record(key, summary))
        self.written += 1

    def write_error(self, key: str, error: BaseException) -> None:
        if self._handle is None:
            self.open()
        self._write_line(error_record(key, error))
        self.failed += 1

    def _write_line(self, record: Dict[str, object]) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        self.count += 1

    def _repair(self, data: bytes):
        keep = len(data)
        if data and not data.endswith(b"\n"):
            tail = data.rpartition(b"\n")[2]
            try:
                json.loads(tail.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                # Torn final line: keep everything before it.
                keep = len(data) - len(tail)
                data = data[:keep]
            else:
                # Complete record merely missing its newline: keep it
                # and have the base class write the separator.
                keep = len(data) + 1
        elif data:
            # A newline-terminated final line can still be torn (a
            # truncation landing exactly on the terminator).  The
            # readers tolerate it only while it is *last* — appending
            # after it would turn it into a hard read error — so the
            # repair must drop exactly what the readers drop.
            start = data[:-1].rfind(b"\n") + 1
            last = data[start:].strip()
            if last:
                try:
                    json.loads(last.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    keep = start
                    data = data[:keep]
        count = sum(1 for line in data.split(b"\n") if line.strip())
        return keep, count


class CsvSink(_FileSink):
    """Appends one CSV row per result; nested values are JSON-encoded.

    The header is the canonical :func:`record_fieldnames` schema,
    written up front on a fresh file — before the first result, so an
    error record arriving first (or an error-only sweep) leaves the
    same schema a successful sweep would.  Opening the sink on an
    existing results file reuses the header already there — ``count``
    seeds from the data rows and no second header is written; the file
    is never truncated.  Error records (:meth:`write_error`) fill the
    shared ``error`` column and leave the metric cells empty; columns
    the header does not name are dropped (an older file keeps its own
    schema consistently rather than gaining misaligned cells).
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        super().__init__(path, resume=resume)
        self._writer = None
        self._fieldnames: Optional[List[str]] = None
        self._has_header = False

    def open(self) -> None:
        super().open()
        if self._writer is None:
            if self._fieldnames is None:
                self._fieldnames = record_fieldnames()
            self._writer = csv.DictWriter(
                self._handle, fieldnames=self._fieldnames, restval=""
            )
            if not self._has_header:
                self._writer.writeheader()
                self._handle.flush()
                self._has_header = True

    def write(self, key: str, summary: RunSummary) -> None:
        if self._handle is None:
            self.open()
        self._write_row(summary_record(key, summary))
        self.written += 1

    def write_error(self, key: str, error: BaseException) -> None:
        if self._handle is None:
            self.open()
        if "error" not in self._fieldnames:
            # A header without the error column predates error records.
            # Writing the row anyway would strip the message, leaving a
            # record that reads as a *success* — the failed scenario
            # would never be retried.  Refuse loudly instead.
            raise ValueError(
                f"{self.path} has no 'error' column (written before error "
                f"records existed), so the failure of {key!r} cannot be "
                "recorded — rerun into a fresh results file"
            ) from error
        self._write_row(error_record(key, error))
        self.failed += 1

    def _write_row(self, record: Dict[str, object]) -> None:
        self._writer.writerow(
            {
                name: json.dumps(value) if isinstance(value, (dict, list)) else value
                for name, value in record.items()
                if name in self._writer.fieldnames
            }
        )
        self._handle.flush()
        self.count += 1

    def _repair(self, data: bytes):
        if data and not data.endswith(b"\n"):
            # The csv writer terminates every row (and error_record
            # keeps raw newlines out of cells), so a file not ending in
            # a newline was torn mid-row — keep the complete rows only.
            tail = data.rpartition(b"\n")[2]
            data = data[: len(data) - len(tail)]
        text = data.decode("utf-8")
        rows = list(csv.reader(io.StringIO(text))) if text.strip() else []
        if len(rows) > 1 and len(rows[-1]) < len(rows[0]):
            # A newline-terminated final row short of columns is the
            # other torn-write shape (truncation landing on the row
            # terminator).  ``read_csv`` tolerates it only while it is
            # last; drop it so appended records cannot strand it as a
            # corrupt middle row.
            start = data[:-1].rfind(b"\n") + 1
            data = data[:start]
            rows.pop()
        if rows:
            self._fieldnames = rows[0]
            self._has_header = True
        return len(data), max(0, len(rows) - 1)

    def close(self) -> None:
        super().close()
        self._writer = None


def sink_for_path(path: str, resume: bool = False) -> ResultSink:
    """The file sink matching ``path``'s extension (.jsonl/.ndjson or .csv).

    ``.json`` is rejected: the sink writes one JSON object per line
    (JSON Lines), and many objects on separate lines is not a valid
    ``.json`` document.
    """
    lowered = path.lower()
    if lowered.endswith(".csv"):
        return CsvSink(path, resume=resume)
    if lowered.endswith((".jsonl", ".ndjson")):
        return JsonlSink(path, resume=resume)
    if lowered.endswith(".json"):
        raise ValueError(
            f"refusing to write {path!r}: the sink streams one JSON object "
            "per line (JSON Lines), which is not a valid .json document — "
            "use a .jsonl or .ndjson extension"
        )
    raise ValueError(
        f"cannot infer sink format from {path!r}; use a .jsonl, .ndjson or "
        ".csv extension"
    )


# ----------------------------------------------------------------------
# Readers (round-trip counterparts of the file sinks)
# ----------------------------------------------------------------------
def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Records written by a :class:`JsonlSink`, in file order.

    A torn *final* line — the partial record a killed sweep leaves
    behind — is tolerated and dropped; an unparsable line anywhere else
    means the file is corrupt and raises ``ValueError``.
    """
    records: List[Dict[str, object]] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as error:
        raise _open_error(path, error, "read") from None
    with handle:
        lines = [
            (number, line.strip())
            for number, line in enumerate(handle, start=1)
            if line.strip()
        ]
    for index, (number, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if index == len(lines) - 1:
                break  # torn final record from a crash mid-write
            raise ValueError(
                f"{path}:{number}: unparsable JSONL record: {error}"
            ) from None
    return records


#: Identity columns of :func:`summary_record` — always strings, never
#: JSON-decoded on readback (a trace named "2024" must stay a string).
_STRING_COLUMNS = frozenset({"scenario", "policy", "trace"})


def read_csv(path: str) -> List[Dict[str, object]]:
    """Records written by a :class:`CsvSink`, in file order.

    Non-identity cells are decoded as JSON where possible (numbers,
    nested maps — Python float reprs round-trip exactly); identity
    columns and anything undecodable stay strings, and empty cells
    (``None`` values, or columns an :func:`error_record` left blank)
    decode to ``None``.  A short *final* row — torn by a crash
    mid-write — is dropped.
    """
    records: List[Dict[str, object]] = []
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as error:
        raise _open_error(path, error, "read") from None
    with handle:
        rows = list(csv.DictReader(handle, restval=None))
    for index, row in enumerate(rows):
        if any(value is None for value in row.values()):
            if index == len(rows) - 1:
                break  # torn final row from a crash mid-write
            raise ValueError(f"{path}: row {index + 1} is missing columns")
        record: Dict[str, object] = {}
        for name, cell in row.items():
            if name in _STRING_COLUMNS:
                record[name] = cell
                continue
            if cell == "":
                record[name] = None
                continue
            try:
                record[name] = json.loads(cell)
            except (json.JSONDecodeError, TypeError):
                record[name] = cell
        records.append(record)
    return records


def read_records(path: str) -> List[Dict[str, object]]:
    """Records from either file-sink format, dispatched on extension.

    The one reader every consumer (resume scans, campaign status /
    report roll-ups) goes through, so format dispatch and torn-line
    tolerance have a single home.  Missing files read as empty — a
    resumed sweep that never started is just a fresh sweep.
    """
    if not os.path.exists(path):
        return []
    if path.lower().endswith(".csv"):
        return read_csv(path)
    return read_jsonl(path)


def _keys_of(records: List[Dict[str, object]], completed_only: bool) -> Set[str]:
    return {
        str(record["scenario"])
        for record in records
        if record.get("scenario") not in (None, "")
        and (not completed_only or not record.get("error"))
    }


def completed_keys(path: str) -> Set[str]:
    """Scenario keys with a successful record already in ``path``.

    Records whose ``error`` column is non-empty do **not** count: a
    resumed sweep retries scenarios that previously raised.
    """
    return _keys_of(read_records(path), completed_only=True)


def recorded_keys(path: str) -> Set[str]:
    """Every scenario key with *any* record in ``path`` — errors included.

    The superset of :func:`completed_keys` the resume mismatch check
    compares against a sweep's own keys: an error record still names a
    scenario of the grid that wrote the file, so a key unknown to the
    current grid — errored or not — means the file belongs to a
    different sweep.
    """
    return _keys_of(read_records(path), completed_only=False)
