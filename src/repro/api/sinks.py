"""Streamed result sinks for large scenario sweeps.

A 1000+-scenario grid should not hold every
:class:`~repro.metrics.summary.RunSummary` in memory until the sweep
ends.  A :class:`ResultSink` receives each summary *as it completes*:
the executors (:func:`repro.api.executor.runs` /
:func:`~repro.api.executor.run_grid`) and the CLI
(``python -m repro sweep --out results.jsonl``) thread one through and
flush results incrementally instead of accumulating them.

Two built-in sinks:

* :class:`JsonlSink` — one JSON object per line (JSON Lines, the one
  results-file format), flushed per result.  Crash-safe for long sweeps
  (every completed scenario is already on disk) and trivially
  streamable (``tail -f results.jsonl``).
* :class:`InMemorySink` — keeps summaries keyed like ``run_grid``; the
  in-process default the streaming paths are measured against.

Every record is a flat :func:`summary_record` dict, so a results file
round-trips through :func:`read_jsonl` (pinned by the property suite);
a table export is a :class:`csv.DictWriter` over those records.

Durability contract
-------------------
:class:`JsonlSink` is restart-safe: opening one on an existing results
file **appends** — it never truncates — so a sweep killed 900 scenarios
into a 1000-scenario grid keeps its first 900 records.  ``count`` seeds
from the records already on disk, and a *torn* final line left by a
crash mid-write is repaired on open (the partial record is dropped;
:func:`read_jsonl` tolerates it too).  The scenario keys stored in the
``scenario`` field are the resume identity: :func:`completed_keys`
lists the keys already recorded successfully, and the executors'
``resume=True`` skips exactly those, so the rerun executes only the
missing scenarios.  A scenario that *raises* is recorded as a
structured :func:`error_record` (``error`` is non-``None``) via
:meth:`ResultSink.write_error`; error records do not count as
completed, so a resumed sweep retries them.
"""

from __future__ import annotations

import json
import os
from typing import Dict, IO, List, Optional, Set, Tuple

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
    """Flatten one run summary into a JSON-serialisable record.

    The scoreboard fields come from :meth:`RunSummary.headline` (the one
    flattening of a summary — fields added there reach every sink and
    the CLI automatically); this wraps them with identity fields and
    the streaming carbon/cost totals (post-hoc accounting is the
    fallback for summaries produced without the default observer set).
    ``error`` is ``None`` on every successful record — it is the field
    :func:`error_record` fills (error records carry only the identity
    and error fields).
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

    Shares the ``scenario`` identity and ``error`` fields with
    :func:`summary_record` but carries no metric fields (there is no
    summary) — consumers should filter on ``record.get("error")``
    before indexing metric fields.  ``error`` holds
    ``"ExceptionType: message"`` with whitespace runs collapsed to
    single spaces, so a multi-line exception message stays on one line
    wherever the record is printed or tabulated.  Records with a
    non-empty ``error`` are excluded from :func:`completed_keys`, so a
    resumed sweep reruns the failed scenario — its fresh record appends
    after the stale error record.
    """
    message = " ".join(f"{type(error).__name__}: {error}".split())
    return {
        "scenario": key,
        "error": message,
    }


class ResultSink:
    """Receives one result at a time from a sweep executor.

    Subclasses implement :meth:`write`; :meth:`open` / :meth:`close`
    bracket the sweep (the executors call them via the context-manager
    protocol, so sinks are usable in ``with`` blocks directly).
    """

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

    def scan_keys(self) -> Tuple[Set[str], Set[str]]:
        """``(recorded, completed)`` scenario keys already in the sink.

        ``completed`` holds the keys recorded successfully — what a
        resumed sweep skips.  ``recorded`` adds the keys of error
        records (their scenario was attempted and is part of the sink's
        grid).  The executors' resume path compares ``recorded`` against
        the sweep's own keys, so a results file written by a different
        grid raises :class:`ResultsMismatchError` instead of silently
        mixing two sweeps' records in one file.
        """
        return set(), set()

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

    def scan_keys(self) -> Tuple[Set[str], Set[str]]:
        return set(self.results) | set(self.errors), set(self.results)

    def __len__(self) -> int:
        return len(self.results)


class JsonlSink(ResultSink):
    """Appends one JSON line per result, flushed as soon as it completes.

    Opening the sink on an existing results file appends after the
    records already there (``count`` seeds from them); it never
    truncates.  A torn final line a crash mid-write left behind is
    dropped on open, and a complete final record merely missing its
    newline is terminated.  The executors' ``resume=True`` additionally
    skips scenarios the file already records successfully.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Records in the file: seeded from disk on open, then
        #: incremented per write (success or error), so it always
        #: matches the file's record count.
        self.count = 0
        self._handle: Optional[IO[str]] = None
        self._seeded = False

    def scan_keys(self) -> Tuple[Set[str], Set[str]]:
        # Seed (and so repair a torn tail) *before* reading: a record
        # the repair is about to truncate must not count as done, or
        # its scenario would be skipped and its record then deleted.
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

    def write(self, key: str, summary: RunSummary) -> None:
        if self._handle is None:
            self.open()
        self._write_line(summary_record(key, summary))

    def write_error(self, key: str, error: BaseException) -> None:
        if self._handle is None:
            self.open()
        self._write_line(error_record(key, error))

    def _write_line(self, record: Dict[str, object]) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        self.count += 1

    def _repair(self, data: bytes):
        """``(bytes_to_keep, record_count)`` for the file's current bytes.

        ``bytes_to_keep`` below ``len(data)`` truncates a torn final
        record; ``len(data) + 1`` appends the newline a complete final
        record is missing.
        """
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
                # and have _seed_from_disk write the separator.
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

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def sink_for_path(path: str) -> JsonlSink:
    """The results-file sink for ``path`` (a .jsonl or .ndjson extension).

    Results files are JSON Lines only.  ``.json`` gets its own message:
    the sink writes one JSON object per line, and many objects on
    separate lines is not a valid ``.json`` document.
    """
    lowered = path.lower()
    if lowered.endswith((".jsonl", ".ndjson")):
        return JsonlSink(path)
    if lowered.endswith(".json"):
        raise ValueError(
            f"refusing to write {path!r}: the sink streams one JSON object "
            "per line (JSON Lines), which is not a valid .json document — "
            "use a .jsonl or .ndjson extension"
        )
    raise ValueError(
        f"cannot infer sink format from {path!r}: results files are JSON "
        "Lines — use a .jsonl or .ndjson extension"
    )


# ----------------------------------------------------------------------
# Readers (round-trip counterparts of JsonlSink)
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


def read_records(path: str) -> List[Dict[str, object]]:
    """Records of a results file; a missing file reads as empty.

    The one reader every consumer (resume scans, campaign status /
    report roll-ups) goes through, so torn-line tolerance has a single
    home.  A resumed sweep that never started is just a fresh sweep.
    """
    if not os.path.exists(path):
        return []
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

    Records whose ``error`` field is non-empty do **not** count: a
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
