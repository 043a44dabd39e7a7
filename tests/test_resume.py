"""Resumable, fault-tolerant sweeps: restart semantics end to end.

The durability contract pinned here:

* the JSON Lines sink **appends** to an existing results file — a fresh
  sink on a half-written file preserves the prior records and seeds
  ``count`` from disk; a torn final line (crash mid-write) is repaired
  on open and tolerated by the readers;
* ``resume=True`` executes exactly the scenarios missing from the sink
  (counted here from the sweep report and the records the resumed run
  appends, serially and on process pools) and the resumed file's record
  content equals an uninterrupted run's;
* a scenario that raises mid-sweep becomes a structured error record —
  the other scenarios complete, pool futures are not leaked, and a
  resumed sweep retries the failure;
* scenario keys are the record identity, so streamed sweeps reject
  duplicates instead of silently collapsing them.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    BinnedTrace,
    InMemorySink,
    JsonlSink,
    Scenario,
    ScenarioGrid,
    SweepReport,
    completed_keys,
    error_record,
    read_jsonl,
    run_grid,
    run_policies,
    runs,
    sink_for_path,
    sweep,
)
from repro.policies import SINGLE_POOL
from repro.policies.base import PolicySpec
from repro.workload.synthetic import make_week_trace

POLICY_NAMES = ("SinglePool", "MultiPool", "ScaleInst", "ScaleShard", "ScaleFreq", "DynamoLLM")


class ExplodingSpec(PolicySpec):
    """A policy that raises when the fluid runner asks for its scheme.

    ``_prepared`` does not touch ``scheme()`` on the fluid backend, so
    the failure happens inside the job — mid-sweep, exactly like a
    scenario whose simulation blows up.
    """

    def scheme(self, override=None):
        raise RuntimeError("simulated mid-sweep failure")


EXPLODING = ExplodingSpec(
    name="Exploding", multi_pool=True, scale_instances=True,
    scale_sharding=True, scale_frequency=True,
)


@pytest.fixture(scope="module")
def mini_trace():
    """Eight half-hour bins — seconds of fluid simulation per policy."""
    bins = make_week_trace("conversation", seed=7, rate_scale=10.0, bin_seconds=1800.0)
    return BinnedTrace(name="mini", bins=bins[:8])


@pytest.fixture(scope="module")
def mini_grid(mini_trace):
    return sweep(policies=POLICY_NAMES, traces=(mini_trace,), backends=("fluid",))


def _truncate_jsonl(path, keep):
    """Keep the first ``keep`` records, simulating a killed sweep."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:keep])
    return lines


# ----------------------------------------------------------------------
# Sink restart semantics: a *new* sink instance on a half-written file
# ----------------------------------------------------------------------
class TestSinkRestart:
    def test_fresh_jsonl_sink_appends_and_seeds_count(self, mini_grid, mini_trace, tmp_path):
        path = tmp_path / "restart.jsonl"
        run_grid(mini_grid, sink=JsonlSink(str(path)))
        _truncate_jsonl(path, 3)

        sink = JsonlSink(str(path))  # fresh instance, like a new process
        extra = sweep(policies=("SinglePool",), traces=(mini_trace,),
                      backends=("fluid",)).with_(label="again")
        run_grid(extra, sink=sink)
        records = read_jsonl(str(path))
        assert len(records) == sink.count == 4  # 3 preserved + 1 appended
        assert records[:3] == read_jsonl(str(path))[:3]
        assert sink.report.ran == 1

    def test_jsonl_torn_final_line_repaired_on_open(self, mini_grid, tmp_path):
        path = tmp_path / "torn.jsonl"
        run_grid(mini_grid, sink=JsonlSink(str(path)))
        whole = path.read_text()
        lines = whole.splitlines(keepends=True)
        path.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])

        sink = JsonlSink(str(path))
        sink.open()
        assert sink.count == 2  # the torn half-record does not count
        sink.close()
        assert path.read_text() == "".join(lines[:2])  # partial record dropped

    def test_jsonl_complete_final_line_missing_newline_is_kept(self, tmp_path):
        path = tmp_path / "no-newline.jsonl"
        path.write_text('{"scenario": "a", "error": null}')  # no trailing \n
        sink = JsonlSink(str(path))
        sink.open()
        sink.close()
        assert sink.count == 1
        assert path.read_text().endswith("}\n")
        assert completed_keys(str(path)) == {"a"}

    def test_read_jsonl_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"scenario": "a", "error": null}\n{"scenario": "b", "ene')
        records = read_jsonl(str(path))
        assert [r["scenario"] for r in records] == ["a"]
        assert completed_keys(str(path)) == {"a"}

    def test_read_jsonl_rejects_corrupt_middle_line(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"scenario": "a"}\nnot json at all\n{"scenario": "b"}\n')
        with pytest.raises(ValueError, match="unparsable"):
            read_jsonl(str(path))

    @pytest.mark.parametrize("suffix", ["jsonl", "ndjson"])
    def test_newline_terminated_torn_record_is_repaired(self, mini_trace, tmp_path, suffix):
        """A truncation landing exactly on the line terminator leaves a
        short-but-newline-terminated final record.  The readers tolerate
        it only while it is last, so the repair must drop it — otherwise
        a resumed append strands it as a corrupt *middle* record and
        every later read hard-fails."""
        path = tmp_path / f"torn-terminated.{suffix}"
        grid = sweep(policies=("SinglePool", "DynamoLLM"), traces=(mini_trace,),
                     backends=("fluid",))
        run_grid(grid, sink=sink_for_path(str(path)))
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        # Chop characters out of the final record but keep its newline.
        path.write_text("".join(lines[:-1]) + lines[-1][:-12] + "\n")

        sink = run_grid(grid, sink=sink_for_path(str(path)), resume=True)
        assert sink.report.skipped == 1 and sink.report.ran == 1
        records = read_jsonl(str(path))  # parses cleanly end to end
        assert sorted(r["scenario"] for r in records) == sorted(grid.keys())
        assert all(not r.get("error") for r in records)

    def test_completed_keys_of_missing_file_is_empty(self, tmp_path):
        assert completed_keys(str(tmp_path / "nope.jsonl")) == set()

    def test_error_records_do_not_count_as_completed(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        sink = JsonlSink(str(path))
        with sink:
            sink.write_error("bad/one", RuntimeError("boom"))
        record = read_jsonl(str(path))[0]
        assert record == error_record("bad/one", RuntimeError("boom"))
        assert "RuntimeError: boom" in record["error"]
        assert completed_keys(str(path)) == set()


# ----------------------------------------------------------------------
# Resume: interrupted sweeps rerun exactly the missing scenarios
# ----------------------------------------------------------------------
class TestResume:
    @pytest.mark.parametrize("workers", [None, 3])
    def test_interrupted_sweep_resumes_missing_scenarios_only(
        self, mini_grid, tmp_path, workers
    ):
        n, k = len(mini_grid), 4
        baseline = tmp_path / "full.jsonl"
        run_grid(mini_grid, sink=JsonlSink(str(baseline)))
        uninterrupted = {r["scenario"]: r for r in read_jsonl(str(baseline))}

        path = tmp_path / "interrupted.jsonl"
        run_grid(mini_grid, sink=JsonlSink(str(path)))
        _truncate_jsonl(path, k)
        kept = {r["scenario"] for r in read_jsonl(str(path))}

        sink = run_grid(
            mini_grid, workers=workers, sink=JsonlSink(str(path)), resume=True
        )
        assert sink.report == SweepReport(total=n, skipped=k, ran=n - k, failed=0)
        # Exactly the missing scenarios ran: one appended record each.
        appended = [r["scenario"] for r in read_jsonl(str(path))[k:]]
        assert sorted(appended) == sorted(set(mini_grid.keys()) - kept)
        resumed = {r["scenario"]: r for r in read_jsonl(str(path))}
        assert resumed == uninterrupted  # record content equals one pass
        assert sink.count == n

    def test_resume_on_complete_file_runs_nothing(self, mini_grid, tmp_path):
        path = tmp_path / "done.jsonl"
        run_grid(mini_grid, sink=JsonlSink(str(path)))
        sink = run_grid(mini_grid, sink=JsonlSink(str(path)), resume=True)
        assert sink.report == SweepReport(
            total=len(mini_grid), skipped=len(mini_grid), ran=0, failed=0
        )
        assert len(read_jsonl(str(path))) == len(mini_grid)

    def test_resume_skips_before_traces_materialise(self, tmp_path, monkeypatch):
        """Completed scenarios must not even build their traces."""
        from repro.api import TraceSpec

        spec = TraceSpec(kind="week", service="conversation", rate_scale=10.0,
                         duration_s=4 * 3600.0)
        grid = sweep(policies=("SinglePool", "DynamoLLM"), traces=(spec,),
                     backends=("fluid",))
        path = tmp_path / "lazy.jsonl"
        run_grid(grid, sink=JsonlSink(str(path)))

        def explode(self, *args, **kwargs):
            raise AssertionError("trace rebuilt despite resume")

        monkeypatch.setattr(TraceSpec, "build_bins", explode)
        sink = run_grid(grid, sink=JsonlSink(str(path)), resume=True)
        assert sink.report.skipped == 2

    def test_resume_without_sink_raises(self, mini_grid):
        with pytest.raises(ValueError, match="requires sink="):
            runs(list(mini_grid), resume=True)
        with pytest.raises(ValueError, match="requires sink="):
            run_grid(mini_grid, resume=True)

    def test_resume_with_in_memory_sink(self, mini_grid):
        sink = InMemorySink()
        run_grid(mini_grid, sink=sink)
        report = run_grid(mini_grid, sink=sink, resume=True).report
        assert report.skipped == len(mini_grid) and report.ran == 0

# ----------------------------------------------------------------------
# Fault tolerance: a raising scenario cannot abort the sweep
# ----------------------------------------------------------------------
class TestFaultTolerance:
    def _grid_with_failure(self, mini_trace):
        return ScenarioGrid(
            [Scenario(policy="SinglePool", trace=mini_trace, backend="fluid"),
             Scenario(policy=EXPLODING, trace=mini_trace, backend="fluid"),
             Scenario(policy="DynamoLLM", trace=mini_trace, backend="fluid")]
        )

    @pytest.mark.parametrize("workers", [None, 3])
    def test_raising_scenario_yields_error_record(self, mini_trace, tmp_path, workers):
        grid = self._grid_with_failure(mini_trace)
        path = tmp_path / "fail.jsonl"
        sink = run_grid(grid, workers=workers, sink=JsonlSink(str(path)))
        assert sink.report == SweepReport(total=3, skipped=0, ran=2, failed=1)
        records = read_jsonl(str(path))
        assert len(records) == 3
        by_key = {r["scenario"]: r for r in records}
        failure = by_key["Exploding/mini/fluid"]
        assert failure["error"] == "RuntimeError: simulated mid-sweep failure"
        for key in ("SinglePool/mini/fluid", "DynamoLLM/mini/fluid"):
            assert by_key[key]["error"] is None
            assert by_key[key]["energy_kwh"] > 0

    def test_resume_retries_failed_scenarios(self, mini_trace, tmp_path):
        grid = self._grid_with_failure(mini_trace)
        path = tmp_path / "retry.jsonl"
        run_grid(grid, sink=JsonlSink(str(path)))
        sink = run_grid(grid, sink=JsonlSink(str(path)), resume=True)
        # The two successes are skipped; the failure is retried (and
        # fails again, appending a second error record).
        assert sink.report == SweepReport(total=3, skipped=2, ran=0, failed=1)
        records = read_jsonl(str(path))
        assert sum(1 for r in records if r.get("error")) == 2

    def test_error_message_newlines_are_collapsed(self, mini_trace, tmp_path):
        """Raw newlines in exception text are collapsed, so the error
        message stays on one line wherever a record is shown."""

        class MultilineBoom(PolicySpec):
            def scheme(self, override=None):
                raise RuntimeError("line one\nline two\r\nline three")

        spec = MultilineBoom(name="Multiline", multi_pool=True, scale_instances=True,
                             scale_sharding=True, scale_frequency=True)
        grid = ScenarioGrid([Scenario(policy=spec, trace=mini_trace, backend="fluid")])
        path = tmp_path / "multiline.jsonl"
        run_grid(grid, sink=JsonlSink(str(path)))
        (record,) = read_jsonl(str(path))
        assert record["error"] == "RuntimeError: line one line two line three"
        # Every physical line is a complete record: reader and repair agree.
        sink = JsonlSink(str(path))
        sink.open()
        assert sink.count == 1
        sink.close()

    def test_in_memory_sink_collects_errors(self, mini_trace):
        grid = self._grid_with_failure(mini_trace)
        sink = run_grid(grid, sink=InMemorySink())
        assert set(sink.results) == {"SinglePool/mini/fluid", "DynamoLLM/mini/fluid"}
        assert set(sink.errors) == {"Exploding/mini/fluid"}
        assert isinstance(sink.errors["Exploding/mini/fluid"], RuntimeError)

    def test_sink_failure_cancels_pending_and_keeps_file_valid(self, mini_grid, tmp_path):
        """A broken *sink* stops the sweep without leaking futures, and
        the file still parses up to the last completed write."""

        class BrokenAfterOne(JsonlSink):
            def write(self, key, summary):
                if self.count >= 1:
                    raise OSError("disk full")
                super().write(key, summary)

        path = tmp_path / "broken.jsonl"
        sink = BrokenAfterOne(str(path))
        with pytest.raises(OSError, match="disk full"):
            run_grid(mini_grid, workers=3, sink=sink)
        assert sink._handle is None  # closed despite the error
        records = read_jsonl(str(path))  # file integrity: parses cleanly
        assert len(records) == 1 and records[0]["error"] is None
        assert sink.report.ran == 1  # partial report still attached

    def test_broken_pool_aborts_instead_of_faking_error_records(
        self, mini_grid, tmp_path, monkeypatch
    ):
        """A dead executor pool fails every remaining future with
        BrokenExecutor — infrastructure failure, not the scenarios'.
        The sweep must abort rather than fill the file with bogus
        per-scenario error records."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.api import executor

        class DeadPool:
            """A process pool whose workers all died (e.g. OOM-killed)."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

        monkeypatch.setattr(executor, "ProcessPoolExecutor", DeadPool)
        path = tmp_path / "broken-pool.jsonl"
        with pytest.raises(BrokenProcessPool):
            run_grid(mini_grid, workers=3, sink=JsonlSink(str(path)))
        assert read_jsonl(str(path)) == []

    def test_serial_job_failure_keeps_streaming(self, mini_trace, tmp_path):
        grid = self._grid_with_failure(mini_trace)
        sink = run_grid(grid, sink=JsonlSink(str(tmp_path / "serial.jsonl")))
        records = read_jsonl(sink.path)
        # Serial streaming preserves input order, error record included.
        assert [bool(r.get("error")) for r in records] == [False, True, False]


# ----------------------------------------------------------------------
# Key collisions: the durability contract rejects them up front
# ----------------------------------------------------------------------
class TestKeyCollisions:
    def test_runs_with_sink_rejects_duplicate_keys(self, mini_trace, tmp_path):
        scenario = Scenario(policy="SinglePool", trace=mini_trace, backend="fluid")
        with pytest.raises(ValueError, match="SinglePool/mini/fluid"):
            runs([scenario, scenario], sink=JsonlSink(str(tmp_path / "dup.jsonl")))
        assert not (tmp_path / "dup.jsonl").exists()  # rejected before opening

    def test_scenario_grid_rejects_duplicate_keys(self, mini_trace):
        scenario = Scenario(policy="SinglePool", trace=mini_trace, backend="fluid")
        with pytest.raises(ValueError, match="duplicate scenario key"):
            ScenarioGrid([scenario, scenario])

    def test_run_policies_rejects_duplicate_names(self, mini_trace):
        with pytest.raises(ValueError, match="'SinglePool'"):
            run_policies(mini_trace, (SINGLE_POOL, SINGLE_POOL), backend="fluid")

    def test_runs_without_sink_allows_duplicates(self, mini_trace):
        # List output has no key identity; duplicates are fine there.
        scenario = Scenario(policy="SinglePool", trace=mini_trace, backend="fluid")
        summaries = runs([scenario, scenario])
        assert len(summaries) == 2


# ----------------------------------------------------------------------
# sink_for_path: JSON Lines only, with the .json and .csv refusals
# ----------------------------------------------------------------------
class TestSinkForPath:
    def test_json_extension_rejected(self):
        for name in ("results.json", "results.csv"):
            with pytest.raises(ValueError, match=r"\.jsonl or \.ndjson"):
                sink_for_path(name)

    def test_ndjson_maps_to_jsonl_sink(self):
        assert isinstance(sink_for_path("results.ndjson"), JsonlSink)


# ----------------------------------------------------------------------
# OSError normalisation: raw OS failures become actionable ValueErrors
# ----------------------------------------------------------------------
class TestSinkOpenErrors:
    """File-system failures must surface as short actionable messages
    naming the offending path — the CLI shows ValueError text without a
    traceback, so raw OSError reprs are useless there."""

    def test_missing_parent_directory_names_path_and_fix(self, tmp_path):
        path = str(tmp_path / "no" / "such" / "dir" / "out.jsonl")
        sink = sink_for_path(path)
        with pytest.raises(ValueError) as excinfo:
            sink.open()
        message = str(excinfo.value)
        assert path in message
        assert "parent directory" in message

    def test_directory_target_names_path_and_fix(self, tmp_path):
        sink = sink_for_path(str(tmp_path) + "/dir.jsonl")
        (tmp_path / "dir.jsonl").mkdir()
        with pytest.raises(ValueError, match="not a directory"):
            sink.open()

    def test_reader_on_directory_is_actionable(self, tmp_path):
        target = tmp_path / "dir.jsonl"
        target.mkdir()
        with pytest.raises(ValueError) as excinfo:
            read_jsonl(str(target))
        assert str(target) in str(excinfo.value)

    def test_reader_on_missing_file_says_check_path(self, tmp_path):
        missing = str(tmp_path / "gone.jsonl")
        with pytest.raises(ValueError, match="check the path exists"):
            read_jsonl(missing)

    def test_cli_surfaces_sink_error_without_traceback(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "missing-dir" / "out.jsonl")
        code = main(
            ["sweep", "--backend", "fluid", "--trace", "week",
             "--rate-scale", "10", "--duration", "3600",
             "--policies", "SinglePool", "--out", out]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert out in err

    def test_campaign_manifest_missing_file_is_actionable(self, tmp_path):
        from repro.api.campaign import ManifestError, load_manifest

        missing = str(tmp_path / "nope.json")
        with pytest.raises(ManifestError) as excinfo:
            load_manifest(missing)
        message = str(excinfo.value)
        assert missing in message
        assert "check the path" in message

    def test_campaign_manifest_directory_is_actionable(self, tmp_path):
        from repro.api.campaign import ManifestError, load_manifest

        target = tmp_path / "dir.json"
        target.mkdir()
        with pytest.raises(ManifestError, match="cannot read manifest"):
            load_manifest(str(target))


# ----------------------------------------------------------------------
# CLI: python -m repro sweep --out ... --resume
# ----------------------------------------------------------------------
class TestCliResume:
    ARGS = ["sweep", "--backend", "fluid", "--trace", "week",
            "--rate-scale", "10", "--duration", str(6 * 3600),
            "--policies", "SinglePool,ScaleInst,DynamoLLM"]

    def _sweep(self, out, *extra):
        from repro.__main__ import main

        return main(self.ARGS + ["--out", str(out)] + list(extra))

    def test_interrupt_and_resume_round_trip(self, tmp_path, capsys):
        out = tmp_path / "cli.jsonl"
        assert self._sweep(out) == 0
        full = read_jsonl(str(out))
        assert len(full) == 3

        _truncate_jsonl(out, 1)
        assert self._sweep(out, "--resume") == 0
        report = capsys.readouterr().err
        assert "2 ran, 1 skipped, 0 failed" in report
        resumed = read_jsonl(str(out))
        assert len(resumed) == 3
        assert {json.dumps(r, sort_keys=True) for r in resumed} == {
            json.dumps(r, sort_keys=True) for r in full
        }

    def test_existing_file_without_resume_is_refused(self, tmp_path, capsys):
        out = tmp_path / "cli.jsonl"
        assert self._sweep(out) == 0
        assert self._sweep(out) == 2
        assert "pass --resume" in capsys.readouterr().err
        assert len(read_jsonl(str(out))) == 3  # untouched

    def test_resume_requires_out(self, capsys):
        from repro.__main__ import main

        assert main(self.ARGS + ["--resume"]) == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_json_out_rejected(self, tmp_path, capsys):
        for name in ("cli.json", "cli.csv"):
            assert self._sweep(tmp_path / name) == 2
            assert ".jsonl or .ndjson" in capsys.readouterr().err

    def test_resume_on_fresh_path_is_a_fresh_sweep(self, tmp_path):
        out = tmp_path / "fresh.jsonl"
        assert self._sweep(out, "--resume") == 0
        assert len(read_jsonl(str(out))) == 3
