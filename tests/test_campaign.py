"""Manifest-driven campaigns: expansion, sharding, crash recovery, reports.

The campaign contract pinned here:

* a manifest parses, validates and expands **deterministically** —
  property-tested over seeded random manifests (same file, same keys,
  every time), with typos and invalid dimension combinations rejected
  up front with manifest context;
* :func:`~repro.api.campaign.shard_scenarios` partitions are disjoint,
  cover the grid, balance to within one scenario and are stable across
  runs — the invariants multi-host campaigns rely on;
* a campaign killed mid-run (SIGKILL, torn final record and all)
  resumes to results **byte-equivalent** to an uninterrupted run, and a
  4-way-sharded run with one shard killed and resumed reports a table
  identical to a single-shard uninterrupted run — exercised on the
  bundled 1008-scenario ``sensitivity_grid`` manifest (the acceptance
  grid);
* results files written by a *different* grid raise
  :class:`~repro.api.sinks.ResultsMismatchError` on resume, status and
  report instead of being silently skipped or mixed in;
* the golden ``campaign report`` tables of the bundled Figure 11/15/16
  manifests are pinned schema-exactly (floats at rel 1e-6) against
  ``tests/golden/``.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.api import (
    BinnedTrace,
    CampaignRunner,
    InMemorySink,
    JsonlSink,
    ManifestError,
    ReportSpec,
    ResultsMismatchError,
    Scenario,
    ScenarioGrid,
    build_report,
    expand_manifest,
    load_manifest,
    manifest_from_dict,
    read_jsonl,
    recorded_keys,
    runs,
    shard_path,
    shard_scenarios,
)
from repro.api.campaign import discover_result_paths, scenario_dimensions
from repro.experiments.manifests import (
    list_manifests,
    manifest_path,
    resolve_manifest,
)
from repro.policies.base import PolicySpec
from repro.workload.synthetic import make_week_trace

POLICY_NAMES = ("SinglePool", "MultiPool", "ScaleInst", "ScaleShard", "ScaleFreq", "DynamoLLM")

#: Environment for CLI subprocesses: the test process's import path.
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(*args):
    from repro.__main__ import main

    return main([str(a) for a in args])


def _smoke_manifest_data(output="smoke.jsonl", shards=2):
    """An in-test copy of the bundled smoke grid: 12 fluid scenarios."""
    return {
        "name": "test-smoke",
        "grid": {
            "policies": list(POLICY_NAMES),
            "traces": [
                {
                    "kind": "week",
                    "service": "conversation",
                    "rate_scale": 10.0,
                    "duration_s": 7200,
                }
            ],
            "seeds": [3, 5],
            "backends": ["fluid"],
            "fluid_bin_s": 1800,
        },
        "output": output,
        "execution": {"shards": shards, "lean": True},
        "report": {
            "value": "energy_kwh",
            "rows": ["policy"],
            "baseline": "SinglePool",
            "compare": "saving",
        },
    }


class ExplodingSpec(PolicySpec):
    """Raises when the fluid runner asks for its scheme — mid-sweep."""

    def scheme(self, override=None):
        raise RuntimeError("simulated mid-campaign failure")


EXPLODING = ExplodingSpec(
    name="Exploding", multi_pool=True, scale_instances=True,
    scale_sharding=True, scale_frequency=True,
)


@pytest.fixture(scope="module")
def mini_bins():
    bins = make_week_trace("conversation", seed=7, rate_scale=10.0, bin_seconds=1800.0)
    return BinnedTrace(name="mini", bins=bins[:4])


# ----------------------------------------------------------------------
# Manifest parsing and validation
# ----------------------------------------------------------------------
class TestManifest:
    def test_minimal_manifest_defaults(self):
        manifest = manifest_from_dict({"name": "m", "grid": {}})
        assert manifest.output == "m.jsonl"
        assert manifest.shards == 1 and manifest.lean is True
        grid = expand_manifest(manifest)
        assert len(grid) == 1  # default policy x default trace

    def test_json_file_round_trip(self, tmp_path):
        data = _smoke_manifest_data()
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        from_file = expand_manifest(load_manifest(str(path)))
        from_dict = expand_manifest(manifest_from_dict(data))
        assert from_file.keys() == from_dict.keys()
        assert len(from_file) == 12

    def test_toml_manifest(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # noqa: F841  (py3.11+)
        path = tmp_path / "m.toml"
        path.write_text(
            'name = "toml-smoke"\n'
            'output = "t.jsonl"\n'
            "[grid]\n"
            'policies = ["SinglePool", "DynamoLLM"]\n'
            "seeds = [3, 5]\n"
            'backends = ["fluid"]\n'
            "fluid_bin_s = 1800\n"
            "traces = [{kind = \"week\", rate_scale = 10.0, duration_s = 7200}]\n"
        )
        grid = expand_manifest(load_manifest(str(path)))
        assert len(grid) == 4

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="broken.json"):
            load_manifest(str(path))

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(ManifestError, match="yaml"):
            load_manifest(str(tmp_path / "m.yaml"))

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.update(outputs="x.jsonl"), "outputs"),
            (lambda d: d["grid"].update(accuracys=[1.0]), "accuracys"),
            (lambda d: d["execution"].update(worker=2), "worker"),
            (lambda d: d["report"].update(values="energy_kwh"), "values"),
        ],
    )
    def test_typos_are_rejected(self, mutate, needle):
        data = _smoke_manifest_data()
        mutate(data)
        with pytest.raises(ManifestError, match=needle):
            manifest_from_dict(data)

    def test_grid_and_grids_conflict(self):
        data = _smoke_manifest_data()
        data["grids"] = [data["grid"]]
        with pytest.raises(ManifestError, match="not both"):
            manifest_from_dict(data)

    def test_missing_name_rejected(self):
        with pytest.raises(ManifestError, match="name"):
            manifest_from_dict({"grid": {}})

    def test_missing_grid_rejected(self):
        with pytest.raises(ManifestError, match="grid"):
            manifest_from_dict({"name": "m"})

    def test_bad_output_extension_rejected(self):
        for output in ("results.json", "r.csv"):
            with pytest.raises(ManifestError, match="output"):
                manifest_from_dict({"name": "m", "grid": {}, "output": output})

    def test_bad_trace_field_rejected(self):
        data = {"name": "m", "grid": {"traces": [{"kindd": "week"}]}}
        with pytest.raises(ManifestError, match="kindd"):
            expand_manifest(manifest_from_dict(data))

    def test_trace_path_resolves_relative_to_manifest(self, tmp_path):
        from repro.workload.loaders import sample_trace_path

        sample = sample_trace_path("csv")
        data = {
            "name": "m",
            "grid": {"traces": [{"kind": "csv", "path": os.path.basename(sample)}]},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        manifest = load_manifest(str(path))
        with pytest.raises(ManifestError, match="bad trace"):
            # Resolved against the manifest's directory (file absent there).
            expand_manifest(manifest)
        # Copy the sample next to the manifest: now it resolves.
        import shutil

        shutil.copy(sample, tmp_path / os.path.basename(sample))
        grid = expand_manifest(load_manifest(str(path)))
        assert len(grid) == 1

    def test_seeds_with_file_traces_rejected(self):
        from repro.workload.loaders import sample_trace_path

        data = {
            "name": "m",
            "grid": {
                "traces": [{"kind": "csv", "path": sample_trace_path("csv")}],
                "seeds": [1, 2],
            },
        }
        with pytest.raises(ManifestError, match="seeds"):
            expand_manifest(manifest_from_dict(data))

    def test_event_dimensions_on_fluid_backend_rejected(self):
        data = {
            "name": "m",
            "grid": {
                "backends": ["fluid"],
                "traces": [{"kind": "week"}],
                "slo_scales": [1.0, 2.0],
            },
        }
        with pytest.raises(ManifestError, match="slo_scale"):
            expand_manifest(manifest_from_dict(data))

    def test_fluid_bin_on_event_backend_rejected(self):
        data = {"name": "m", "grid": {"fluid_bin_s": 300}}
        with pytest.raises(ManifestError, match="fluid_bin_s"):
            expand_manifest(manifest_from_dict(data))

    def test_week_trace_on_event_backend_rejected_up_front(self):
        # Binned-only trace kinds cannot run on the per-request event
        # backend; a 1000-scenario campaign must learn that at
        # validation, not at scenario 937.
        data = {"name": "m", "grid": {"traces": [{"kind": "week"}]}}
        with pytest.raises(ManifestError, match="binned"):
            expand_manifest(manifest_from_dict(data))

    def test_duplicate_keys_across_blocks_need_labels(self):
        block = {"policies": ["DynamoLLM"], "backends": ["fluid"],
                 "traces": [{"kind": "week"}]}
        data = {"name": "m", "grids": [block, dict(block)]}
        with pytest.raises(ManifestError, match="label"):
            expand_manifest(manifest_from_dict(data))
        data["grids"][1] = dict(block, label="b")
        grid = expand_manifest(manifest_from_dict(data))
        assert len(grid) == 2

    def test_unknown_policy_is_a_manifest_error(self):
        data = {"name": "m", "grid": {"policies": ["NoSuchPolicy"]}}
        with pytest.raises((ManifestError, KeyError), match="NoSuchPolicy"):
            expand_manifest(manifest_from_dict(data))

    def test_report_spec_validation(self):
        with pytest.raises(ManifestError, match="unknown report dimension"):
            ReportSpec(rows=("nope",))
        with pytest.raises(ManifestError, match="both rows and cols"):
            ReportSpec(rows=("policy",), cols=("policy",))
        with pytest.raises(ManifestError, match="compare"):
            ReportSpec(compare="diff")
        with pytest.raises(ManifestError, match="baseline"):
            ReportSpec(compare="saving")
        with pytest.raises(ManifestError, match="aggregate"):
            ReportSpec(aggregate="median")

    def test_bad_execution_values_rejected(self):
        for execution in ({"shards": 0}, {"workers": 0}, {"mode": "greenlet"}):
            data = {"name": "m", "grid": {}, "execution": execution}
            with pytest.raises(ManifestError):
                manifest_from_dict(data)
        # workers > 1 always runs processes; there is no pool kind to pick.
        data = {"name": "m", "grid": {}, "execution": {"mode": "process"}}
        with pytest.raises(ManifestError, match=r"unknown execution key\(s\) \['mode'\]"):
            manifest_from_dict(data)

    def test_scalars_where_lists_belong_are_named(self):
        # tuple("DynamoLLM") would otherwise become per-character noise,
        # and tuple(int(v) for v in 4) an opaque "'int' object is not
        # iterable".
        data = {"name": "m", "grid": {"policies": "DynamoLLM"}}
        with pytest.raises(ManifestError, match=r"'policies' must be a list"):
            manifest_from_dict(data)
        data = {"name": "m", "grid": {"pool_counts": 4}}
        with pytest.raises(ManifestError, match=r"'pool_counts' must be a list"):
            manifest_from_dict(data)
        data = {"name": "m", "grid": {}, "report": {"rows": "policy"}}
        with pytest.raises(ManifestError, match=r"'rows' must be a list"):
            manifest_from_dict(data)
        # The schema's scalar keys stay scalars.
        data = {"name": "m", "grid": {"label": "a", "fluid_bin_s": 300,
                                      "backends": ["fluid"],
                                      "traces": [{"kind": "week"}]}}
        assert len(expand_manifest(manifest_from_dict(data))) == 1


# ----------------------------------------------------------------------
# Property tests: random manifests expand deterministically
# ----------------------------------------------------------------------
def _random_manifest(rng: random.Random):
    """A random valid manifest plus its expected expansion size."""
    backend = rng.choice(["event", "fluid"])
    kind = "week" if backend == "fluid" else "one_hour"
    traces = [
        {
            "kind": kind,
            "service": rng.choice(["conversation", "coding"]),
            "rate_scale": rng.choice([5.0, 10.0, 20.0]),
            "duration_s": 7200,
        }
    ]
    block = {
        "backends": [backend],
        "policies": rng.sample(POLICY_NAMES, rng.randint(1, 3)),
        "traces": traces,
    }
    size = len(block["policies"])
    if rng.random() < 0.8:
        block["seeds"] = rng.sample(range(1, 60), rng.randint(1, 4))
        size *= len(block["seeds"])
    if backend == "event":
        if rng.random() < 0.5:
            block["slo_scales"] = rng.sample([0.5, 1.0, 1.5, 2.0, 3.0], rng.randint(1, 3))
            size *= len(block["slo_scales"])
        if rng.random() < 0.5:
            block["accuracies"] = rng.sample([0.5, 0.6, 0.7, 0.8, 0.9, 1.0], rng.randint(1, 3))
            size *= len(block["accuracies"])
    else:
        block["fluid_bin_s"] = rng.choice([900, 1800, 3600])
    if rng.random() < 0.4:
        block["pool_counts"] = rng.sample([2, 4, 6, 9], rng.randint(1, 2))
        size *= len(block["pool_counts"])
    data = {"name": f"prop-{rng.randint(0, 10**6)}", "grid": block,
            "output": "prop.jsonl"}
    return data, size


class TestManifestProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_expansion_size_uniqueness_and_determinism(self, seed, tmp_path):
        rng = random.Random(1000 + seed)
        data, size = _random_manifest(rng)
        grid = expand_manifest(manifest_from_dict(data))
        assert len(grid) == size
        keys = grid.keys()
        assert len(set(keys)) == len(keys)  # unique
        # Deterministic: a fresh parse of the same data expands identically.
        assert expand_manifest(manifest_from_dict(data)).keys() == keys
        # And a file round trip preserves the grid exactly.
        path = tmp_path / "prop.json"
        path.write_text(json.dumps(data))
        assert expand_manifest(load_manifest(str(path))).keys() == keys

    @pytest.mark.parametrize("seed", range(8))
    def test_shard_partition_invariants(self, seed):
        rng = random.Random(2000 + seed)
        data, _ = _random_manifest(rng)
        grid = expand_manifest(manifest_from_dict(data))
        count = rng.randint(1, 7)
        shards = [shard_scenarios(grid, i, count) for i in range(count)]
        shard_keys = [tuple(s.key for s in shard) for shard in shards]
        flat = [key for keys in shard_keys for key in keys]
        # Disjoint and covering.
        assert len(flat) == len(set(flat)) == len(grid)
        assert set(flat) == set(grid.keys())
        # Balanced to within one scenario.
        sizes = sorted(len(keys) for keys in shard_keys)
        assert sizes[-1] - sizes[0] <= 1
        # Stable across runs: a fresh expansion shards identically.
        regrid = expand_manifest(manifest_from_dict(data))
        assert [
            tuple(s.key for s in shard_scenarios(regrid, i, count))
            for i in range(count)
        ] == shard_keys

    def test_shard_arguments_validated(self, mini_bins):
        grid = ScenarioGrid([Scenario(policy="SinglePool", trace=mini_bins, backend="fluid")])
        with pytest.raises(ValueError, match="outside"):
            shard_scenarios(grid, 2, 2)
        with pytest.raises(ValueError, match=">= 1"):
            shard_scenarios(grid, 0, 0)

    def test_shard_paths_round_trip_through_discovery(self, tmp_path):
        out = str(tmp_path / "c.jsonl")
        assert shard_path(out, 0, 1) == out
        paths = [shard_path(out, i, 3) for i in range(3)]
        assert len(set(paths)) == 3
        for path in paths:
            with open(path, "w", encoding="utf-8"):
                pass
        discovered = discover_result_paths(out)
        assert [shard for _, shard in discovered] == [(0, 3), (1, 3), (2, 3)]
        assert [path for path, _ in discovered] == paths


# ----------------------------------------------------------------------
# Runner end to end (small fluid campaign)
# ----------------------------------------------------------------------
class TestCampaignRunner:
    def _runner(self, tmp_path, shards=2, stem="camp"):
        manifest = manifest_from_dict(_smoke_manifest_data(shards=shards))
        return CampaignRunner(manifest, out=str(tmp_path / f"{stem}.jsonl"))

    def test_run_status_report_round_trip(self, tmp_path):
        runner = self._runner(tmp_path, shards=1)
        (shard_run,) = runner.run()
        assert shard_run.report.ran == 12 and shard_run.report.failed == 0
        status = runner.status()
        assert status.done and status.completed == 12 and status.pending == 0
        table = runner.report()
        assert table.columns[0] == "policy"
        savings = dict(zip((row[0] for row in table.rows), (row[1] for row in table.rows)))
        assert savings["SinglePool"] == 0.0
        assert savings["DynamoLLM"] > 0.0

    def test_rerun_skips_everything(self, tmp_path):
        runner = self._runner(tmp_path, shards=1)
        runner.run()
        (rerun,) = runner.run()
        assert rerun.report.ran == 0 and rerun.report.skipped == 12

    def test_manifest_shards_run_locally_in_sequence(self, tmp_path):
        runner = self._runner(tmp_path, shards=2)
        shard_runs = runner.run()
        assert [run.index for run in shard_runs] == [0, 1]
        assert all(run.report.ran == 6 for run in shard_runs)
        assert runner.status().done

    def test_sharded_report_equals_unsharded_report(self, tmp_path):
        sharded = self._runner(tmp_path / "a", shards=3, stem="sharded")
        os.makedirs(tmp_path / "a")
        for index in range(3):
            sharded.run(shard=(index, 3))
        single = self._runner(tmp_path / "b", shards=1, stem="single")
        os.makedirs(tmp_path / "b")
        single.run()
        assert sharded.report().to_dict() == single.report().to_dict()

    def test_partial_campaign_status_counts_pending(self, tmp_path):
        runner = self._runner(tmp_path, shards=2)
        runner.run(shard=(0, 2))
        status = runner.status()
        assert not status.done
        assert status.completed == 6 and status.pending == 6
        (shard,) = status.shards
        assert (shard.index, shard.count) == (0, 2)
        assert shard.expected == 6 and shard.pending == 0

    def test_no_resume_refuses_existing_results(self, tmp_path):
        runner = self._runner(tmp_path, shards=1)
        runner.run()
        with pytest.raises(ValueError, match="already holds results"):
            runner.run(resume=False)

    def test_failed_scenarios_roll_up_and_retry(self, tmp_path, mini_bins):
        grid = ScenarioGrid(
            [
                Scenario(policy="SinglePool", trace=mini_bins, backend="fluid"),
                Scenario(policy=EXPLODING, trace=mini_bins, backend="fluid"),
            ]
        )
        runner = CampaignRunner.from_grid(
            "boom", grid, output=str(tmp_path / "boom.jsonl")
        )
        (shard_run,) = runner.run()
        assert shard_run.report.ran == 1 and shard_run.report.failed == 1
        status = runner.status()
        assert status.failed == 1 and not status.done
        # The failure is retried on resume (and fails again).
        (rerun,) = runner.run()
        assert rerun.report.skipped == 1 and rerun.report.failed == 1

    def test_report_before_any_run_raises(self, tmp_path):
        runner = self._runner(tmp_path, shards=1)
        with pytest.raises(ManifestError, match="no successful records"):
            runner.report()

    def test_foreign_results_file_is_a_mismatch(self, tmp_path, mini_bins):
        runner = self._runner(tmp_path, shards=1)
        other = CampaignRunner.from_grid(
            "other",
            ScenarioGrid([Scenario(policy="SinglePool", trace=mini_bins, backend="fluid")]),
            output=runner.out,
        )
        other.run()
        with pytest.raises(ResultsMismatchError, match="different grid"):
            runner.status()
        with pytest.raises(ResultsMismatchError, match="different grid"):
            runner.report()
        with pytest.raises(ResultsMismatchError, match="different grid"):
            runner.run()  # resume against the foreign file

    def test_in_memory_run_matches_plain_runs(self, tmp_path):
        runner = self._runner(tmp_path, shards=1)
        sink = runner.run_in_memory()
        grid = runner.grid()
        direct = runs(list(grid), lean=True)
        assert set(sink.results) == set(grid.keys())
        for scenario, summary in zip(grid, direct):
            assert sink.results[scenario.key].energy_kwh == summary.energy_kwh

    def test_shard_run_into_supplied_sink(self, tmp_path):
        runner = self._runner(tmp_path, shards=2)
        sink = InMemorySink()
        (shard_run,) = runner.run(shard=(1, 2), sink=sink)
        assert shard_run.path is None and shard_run.report.ran == 6
        assert set(sink.results) == {
            s.key for s in shard_scenarios(runner.grid(), 1, 2)
        }


# ----------------------------------------------------------------------
# Resume mismatch fix (executors + sinks)
# ----------------------------------------------------------------------
class TestResumeMismatch:
    def test_runs_resume_rejects_foreign_records(self, tmp_path, mini_bins):
        path = str(tmp_path / "r.jsonl")
        first = [Scenario(policy="SinglePool", trace=mini_bins, backend="fluid")]
        runs(first, sink=JsonlSink(path))
        other = [Scenario(policy="DynamoLLM", trace=mini_bins, backend="fluid")]
        with pytest.raises(ResultsMismatchError, match="SinglePool/mini/fluid"):
            runs(other, sink=JsonlSink(path), resume=True)
        # Without resume the same call is a plain (non-skipping) append
        # and stays allowed — only resume interprets the file's records.
        runs(other, sink=JsonlSink(path))
        assert len(read_jsonl(path)) == 2

    def test_runs_resume_accepts_superset_grid(self, tmp_path, mini_bins):
        path = str(tmp_path / "r.jsonl")
        first = [Scenario(policy="SinglePool", trace=mini_bins, backend="fluid")]
        runs(first, sink=JsonlSink(path))
        wider = first + [Scenario(policy="DynamoLLM", trace=mini_bins, backend="fluid")]
        sink = runs(wider, sink=JsonlSink(path), resume=True)
        assert sink.report.skipped == 1 and sink.report.ran == 1

    def test_error_records_also_trip_the_mismatch(self, tmp_path, mini_bins):
        path = str(tmp_path / "r.jsonl")
        runs(
            [Scenario(policy=EXPLODING, trace=mini_bins, backend="fluid")],
            sink=JsonlSink(path),
        )
        with pytest.raises(ResultsMismatchError, match="Exploding"):
            runs(
                [Scenario(policy="SinglePool", trace=mini_bins, backend="fluid")],
                sink=JsonlSink(path),
                resume=True,
            )

    def test_recorded_keys_includes_errors(self, tmp_path, mini_bins):
        path = str(tmp_path / "r.jsonl")
        runs(
            [
                Scenario(policy="SinglePool", trace=mini_bins, backend="fluid"),
                Scenario(policy=EXPLODING, trace=mini_bins, backend="fluid"),
            ],
            sink=JsonlSink(path),
        )
        from repro.api import completed_keys

        assert completed_keys(path) == {"SinglePool/mini/fluid"}
        assert recorded_keys(path) == {"SinglePool/mini/fluid", "Exploding/mini/fluid"}

    def test_in_memory_sink_recorded_keys(self, mini_bins):
        sink = InMemorySink()
        runs(
            [
                Scenario(policy="SinglePool", trace=mini_bins, backend="fluid"),
                Scenario(policy=EXPLODING, trace=mini_bins, backend="fluid"),
            ],
            sink=sink,
        )
        recorded, completed = sink.scan_keys()
        assert recorded == {
            "SinglePool/mini/fluid",
            "Exploding/mini/fluid",
        }
        assert completed == {"SinglePool/mini/fluid"}


# ----------------------------------------------------------------------
# Crash injection: the acceptance grid (1008 scenarios)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sensitivity_manifest():
    return load_manifest(manifest_path("sensitivity_grid"))


@pytest.fixture(scope="module")
def uninterrupted_run(sensitivity_manifest, tmp_path_factory):
    """One uninterrupted, single-shard, serial run of the 1008-grid."""
    out = str(tmp_path_factory.mktemp("uninterrupted") / "full.jsonl")
    runner = CampaignRunner(sensitivity_manifest, out=out)
    (shard_run,) = runner.run(shard=(0, 1))
    assert shard_run.report.ran == len(runner.grid())
    return runner


def _kill_mid_run(args, watch_path, min_records, cwd, max_wait_s=120.0):
    """Start a campaign CLI subprocess and SIGKILL it mid-stream.

    Waits until ``watch_path`` holds at least ``min_records`` lines
    (records flush per completion, so the file grows live), then kills
    the process group hard — mid-write torn records and all.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run", *map(str, args)],
        env=_subprocess_env(),
        cwd=cwd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # Harness wall-clock (subprocess kill deadline), not simulation state.
    deadline = time.monotonic() + max_wait_s  # repro-lint: disable=DET001
    try:
        while time.monotonic() < deadline:  # repro-lint: disable=DET001
            if process.poll() is not None:
                raise AssertionError(
                    "campaign subprocess finished before the kill landed — "
                    "raise min_records or enlarge the grid"
                )
            try:
                with open(watch_path, "rb") as handle:
                    if handle.read().count(b"\n") >= min_records:
                        break
            except FileNotFoundError:
                pass
            time.sleep(0.01)
        else:
            raise AssertionError("campaign subprocess produced no records in time")
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)


class TestCrashInjection:
    def test_acceptance_grid_expands_and_shards(self, sensitivity_manifest):
        grid = expand_manifest(sensitivity_manifest)
        assert len(grid) >= 1000
        assert sensitivity_manifest.shards == 4
        shards = [shard_scenarios(grid, i, 4) for i in range(4)]
        assert sum(len(s) for s in shards) == len(grid)
        assert {s.key for shard in shards for s in shard} == set(grid.keys())
        # Deterministic: a second expansion shards identically.
        again = expand_manifest(sensitivity_manifest)
        assert [
            [s.key for s in shard_scenarios(again, i, 4)] for i in range(4)
        ] == [[s.key for s in shard] for shard in shards]

    def test_sigkill_then_resume_is_byte_equivalent(
        self, sensitivity_manifest, uninterrupted_run, tmp_path
    ):
        """Kill a serial single-shard campaign mid-stream; the resumed
        file must equal an uninterrupted run's byte for byte."""
        out = str(tmp_path / "killed.jsonl")
        _kill_mid_run(
            ["sensitivity_grid", "--shard", "0/1", "--out", out],
            watch_path=out,
            min_records=40,
            cwd=str(tmp_path),
        )
        survivors = read_jsonl(out)
        total = len(uninterrupted_run.grid())
        assert 0 < len(survivors) < total  # the kill landed mid-run
        # Resume in-process (CLI default --resume) and compare bytes.
        assert _cli("campaign", "run", "sensitivity_grid", "--shard", "0/1", "--out", out) == 0
        with open(out, "rb") as handle:
            resumed = handle.read()
        with open(uninterrupted_run.out, "rb") as handle:
            reference = handle.read()
        assert resumed == reference

    def test_killed_shard_resumes_to_identical_report(
        self, sensitivity_manifest, uninterrupted_run, tmp_path
    ):
        """4-way sharded run with one shard SIGKILLed and resumed: the
        campaign report equals the uninterrupted single-shard run's."""
        out = str(tmp_path / "sharded.jsonl")
        runner = CampaignRunner(sensitivity_manifest, out=out)
        for index in (0, 2, 3):
            runner.run(shard=(index, 4))
        victim = shard_path(out, 1, 4)
        _kill_mid_run(
            ["sensitivity_grid", "--shard", "1/4", "--out", out],
            watch_path=victim,
            min_records=20,
            cwd=str(tmp_path),
        )
        status = runner.status()
        assert status.pending > 0  # the kill left work behind
        (resumed,) = runner.run(shard=(1, 4))
        assert resumed.report.skipped > 0  # the survivors were honoured
        status = runner.status()
        assert status.done and status.completed == len(runner.grid())
        assert runner.report().to_dict() == uninterrupted_run.report().to_dict()

    def test_truncated_tail_resumes_to_byte_equivalence(self, tmp_path):
        """A torn final record (crash landing mid-write) repairs and
        resumes to the uninterrupted bytes — campaign-level restatement
        of the sink durability contract."""
        manifest = manifest_from_dict(_smoke_manifest_data(shards=1))
        out = tmp_path / "torn.jsonl"
        runner = CampaignRunner(manifest, out=str(out))
        runner.run()
        reference = out.read_bytes()
        lines = reference.split(b"\n")
        torn = b"\n".join(lines[:8]) + b"\n" + lines[8][: len(lines[8]) // 2]
        out.write_bytes(torn)
        rerun_runner = CampaignRunner(manifest, out=str(out))
        (shard_run,) = rerun_runner.run()
        assert shard_run.report.skipped == 8 and shard_run.report.ran == 4
        assert out.read_bytes() == reference


# ----------------------------------------------------------------------
# Golden reports (bundled Figure 11/15/16 manifests)
# ----------------------------------------------------------------------
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_CAMPAIGNS = ("fig11_accuracy", "fig15_daily", "fig16_carbon")


def _assert_matches_golden(actual: dict, name: str) -> None:
    with open(os.path.join(GOLDEN_DIR, f"{name}.report.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    # Schema-exact: identical columns, dimensions and row labels.
    for field in ("name", "value", "compare", "baseline", "row_dims", "col_dims", "columns"):
        assert actual[field] == expected[field], field
    assert len(actual["rows"]) == len(expected["rows"])
    dims = len(expected["row_dims"])
    for actual_row, expected_row in zip(actual["rows"], expected["rows"]):
        assert actual_row[:dims] == expected_row[:dims]
        for position, (got, want) in enumerate(
            zip(actual_row[dims:], expected_row[dims:])
        ):
            if want is None:
                assert got is None, (expected_row, position)
            else:
                # Tolerant float compare: the aggregation must not
                # drift, but float formatting may.
                assert got == pytest.approx(want, rel=1e-6), (
                    expected_row,
                    position,
                )


class TestGoldenReports:
    @pytest.mark.parametrize("name", GOLDEN_CAMPAIGNS)
    def test_report_matches_golden(self, name):
        runner = CampaignRunner(
            load_manifest(manifest_path(name)),
            out=os.path.join(GOLDEN_DIR, f"{name}.results.jsonl"),
        )
        status = runner.status()
        assert status.done, f"golden results for {name} are incomplete"
        _assert_matches_golden(runner.report().to_dict(), name)

    @pytest.mark.parametrize(
        "experiment, name",
        (("campaign-fig15", "fig15_daily"), ("campaign-fig16", "fig16_carbon")),
    )
    def test_resimulated_report_matches_golden(self, experiment, name):
        """The registry re-simulates the fluid campaigns to the frozen reports."""
        from repro.experiments.registry import run_experiment

        _assert_matches_golden(run_experiment(experiment).to_dict(), name)

    def test_fig11_records_match_golden_exactly(self, tmp_path):
        """Re-simulated event records equal the frozen ones, every field."""
        out = str(tmp_path / "fig11.jsonl")
        CampaignRunner(load_manifest(manifest_path("fig11_accuracy")), out=out).run()

        def by_scenario(path):
            return {record["scenario"]: record for record in read_jsonl(path)}

        golden = by_scenario(os.path.join(GOLDEN_DIR, "fig11_accuracy.results.jsonl"))
        assert len(golden) == 6
        assert by_scenario(out) == golden

    def test_golden_results_do_not_satisfy_other_manifests(self):
        # The fig15 results file describes a different grid than fig16:
        # pointing a campaign at the wrong golden file is a mismatch.
        runner = CampaignRunner(
            load_manifest(manifest_path("fig16_carbon")),
            out=os.path.join(GOLDEN_DIR, "fig15_daily.results.jsonl"),
        )
        with pytest.raises(ResultsMismatchError):
            runner.report()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCampaignCLI:
    def test_run_bundled_campaign_shard_requires_out(self):
        from repro.experiments.manifests import run_bundled_campaign

        # A scratch-dir shard run would delete its records on return —
        # the campaign could never complete.
        with pytest.raises(ValueError, match="shard= requires out="):
            run_bundled_campaign("smoke", shard=(0, 2))

    def test_bundled_manifests_resolve(self):
        assert set(GOLDEN_CAMPAIGNS) <= set(list_manifests())
        assert os.path.exists(resolve_manifest("smoke"))
        with pytest.raises(KeyError, match="bundled"):
            resolve_manifest("no_such_manifest")

    def test_validate_and_list(self, capsys):
        assert _cli("campaign", "validate", "smoke", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenarios"] == 12 and payload["shards"] == 2
        assert _cli("campaign", "list") == 0
        assert "sensitivity_grid" in capsys.readouterr().out

    def test_run_status_report_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "cli.jsonl")
        assert _cli("campaign", "run", "smoke", "--out", out) == 0
        err = capsys.readouterr().err
        assert "6 ran" in err and "2 shard run(s)" in err
        assert _cli("campaign", "status", "smoke", "--out", out, "--json") == 0
        status = json.loads(capsys.readouterr().out)
        assert status["done"] and status["completed"] == 12
        assert _cli("campaign", "report", "smoke", "--out", out) == 0
        assert "saving vs SinglePool" in capsys.readouterr().out

    def test_single_shard_flag(self, tmp_path, capsys):
        out = str(tmp_path / "cli.jsonl")
        assert _cli("campaign", "run", "smoke", "--shard", "1/2", "--out", out) == 0
        capsys.readouterr()
        assert _cli("campaign", "status", "smoke", "--out", out) == 0
        assert "6/12 completed" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["3", "a/b", "2/2", "-1/2", "0/0"])
    def test_bad_shard_specs_rejected(self, tmp_path, capsys, spec):
        out = str(tmp_path / "cli.jsonl")
        # --shard=... form: argparse would read a bare "-1/2" as an option.
        assert _cli("campaign", "run", "smoke", f"--shard={spec}", "--out", out) == 2
        assert "shard" in capsys.readouterr().err

    def test_report_before_run_fails_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "cli.jsonl")
        assert _cli("campaign", "report", "smoke", "--out", out) == 2
        assert "no successful records" in capsys.readouterr().err

    def test_unknown_manifest_fails_cleanly(self, capsys):
        assert _cli("campaign", "validate", "no_such_manifest") == 2
        assert "bundled" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Report builder (pure aggregation, no simulation)
# ----------------------------------------------------------------------
def _fake_records(grid, values):
    return {
        scenario.key: {"scenario": scenario.key, "energy_kwh": value, "error": None}
        for scenario, value in zip(grid, values)
    }


class TestReportBuilder:
    def _grid(self, mini_bins):
        scenarios = [
            Scenario(policy="SinglePool", trace=mini_bins, backend="fluid"),
            Scenario(policy="DynamoLLM", trace=mini_bins, backend="fluid",
                     pool_count=2),
            Scenario(policy="DynamoLLM", trace=mini_bins, backend="fluid",
                     pool_count=4),
        ]
        return ScenarioGrid(scenarios)

    def test_raw_pivot(self, mini_bins):
        grid = self._grid(mini_bins)
        table = build_report(
            ReportSpec(value="energy_kwh", rows=("policy",), cols=("pool_count",)),
            grid,
            _fake_records(grid, [10.0, 6.0, 4.0]),
        )
        assert table.columns == ("policy", "pool_count=-", "pool_count=2", "pool_count=4")
        assert table.rows == (
            ("DynamoLLM", None, 6.0, 4.0),
            ("SinglePool", 10.0, None, None),
        )

    def test_saving_uses_wildcard_baseline(self, mini_bins):
        grid = self._grid(mini_bins)
        table = build_report(
            ReportSpec(
                value="energy_kwh", rows=("policy",), cols=("pool_count",),
                baseline="SinglePool", compare="saving",
            ),
            grid,
            _fake_records(grid, [10.0, 6.0, 4.0]),
        )
        by_policy = {row[0]: row[1:] for row in table.rows}
        # The pool-countless baseline matches every pool-count cell.
        assert by_policy["DynamoLLM"][1] == pytest.approx(0.4)
        assert by_policy["DynamoLLM"][2] == pytest.approx(0.6)
        assert by_policy["SinglePool"][0] == pytest.approx(0.0)

    def test_ratio_compare(self, mini_bins):
        grid = self._grid(mini_bins)
        table = build_report(
            ReportSpec(
                value="energy_kwh", rows=("policy",),
                baseline="SinglePool", compare="ratio",
            ),
            grid,
            _fake_records(grid, [10.0, 6.0, 4.0]),
        )
        by_policy = {row[0]: row[1] for row in table.rows}
        assert by_policy["DynamoLLM"] == pytest.approx((0.6 + 0.4) / 2)

    def test_seed_cells_aggregate(self, mini_bins):
        base = Scenario(policy="DynamoLLM", trace=mini_bins, backend="fluid")
        grid = ScenarioGrid(
            [base, base.with_(label="b")]
        )
        table = build_report(
            ReportSpec(value="energy_kwh", rows=("policy",), aggregate="mean"),
            grid,
            _fake_records(grid, [2.0, 4.0]),
        )
        assert table.rows == (("DynamoLLM", 3.0),)
        table = build_report(
            ReportSpec(value="energy_kwh", rows=("policy",), aggregate="max"),
            grid,
            _fake_records(grid, [2.0, 4.0]),
        )
        assert table.rows == (("DynamoLLM", 4.0),)

    def test_labeled_baseline_block_still_anchors_compares(self, mini_bins):
        # "label" disambiguates grid blocks; it must not pin the
        # baseline match (a labeled baseline anchors unlabeled cells).
        grid = ScenarioGrid(
            [
                Scenario(policy="SinglePool", trace=mini_bins, backend="fluid",
                         label="base"),
                Scenario(policy="DynamoLLM", trace=mini_bins, backend="fluid"),
            ]
        )
        table = build_report(
            ReportSpec(value="energy_kwh", rows=("policy",),
                       baseline="SinglePool", compare="saving"),
            grid,
            _fake_records(grid, [10.0, 4.0]),
        )
        by_policy = {row[0]: row[1] for row in table.rows}
        assert by_policy["DynamoLLM"] == pytest.approx(0.6)

    def test_zero_baseline_rejected_for_relative_compare(self, mini_bins):
        grid = self._grid(mini_bins)
        with pytest.raises(ManifestError, match="undefined"):
            build_report(
                ReportSpec(
                    value="energy_kwh", rows=("policy",),
                    baseline="SinglePool", compare="saving",
                ),
                grid,
                _fake_records(grid, [0.0, 6.0, 4.0]),
            )

    def test_missing_baseline_record_raises(self, mini_bins):
        grid = ScenarioGrid(
            [Scenario(policy="DynamoLLM", trace=mini_bins, backend="fluid")]
        )
        with pytest.raises(ManifestError, match="baseline"):
            build_report(
                ReportSpec(
                    value="energy_kwh", rows=("policy",),
                    baseline="SinglePool", compare="saving",
                ),
                grid,
                _fake_records(grid, [5.0]),
            )

    def test_unknown_value_column_lists_numeric_columns(self, mini_bins):
        grid = ScenarioGrid(
            [Scenario(policy="DynamoLLM", trace=mini_bins, backend="fluid")]
        )
        with pytest.raises(ManifestError, match="energy_kwh"):
            build_report(
                ReportSpec(value="joules", rows=("policy",)),
                grid,
                _fake_records(grid, [5.0]),
            )

    def test_scenario_dimensions_cover_trace_spec_fields(self):
        from repro.api import TraceSpec

        scenario = Scenario(
            policy="DynamoLLM",
            trace=TraceSpec(kind="week", service="coding", rate_scale=12.0, seed=9),
            backend="fluid",
            fluid_bin_s=900.0,
        )
        dims = scenario_dimensions(scenario)
        assert dims["policy"] == "DynamoLLM"
        assert dims["service"] == "coding"
        assert dims["rate_scale"] == 12.0
        assert dims["seed"] == 9
        assert dims["fluid_bin_s"] == 900.0
        assert dims["level"] is None  # not a poisson trace

    def test_figure_driver_summary_lookup_reraises_run_errors(self, mini_bins):
        # The in-memory campaign path keeps draining after a failure;
        # the figure drivers must surface the *original* exception, not
        # a bare KeyError on the missing summary.
        from repro.experiments.sensitivity import _summary_of

        sink = InMemorySink()
        scenario = Scenario(policy=EXPLODING, trace=mini_bins, backend="fluid")
        runs([scenario], sink=sink)
        with pytest.raises(RuntimeError, match="simulated mid-campaign failure"):
            _summary_of(sink, scenario)
        other = Scenario(policy="SinglePool", trace=mini_bins, backend="fluid")
        with pytest.raises(KeyError):
            _summary_of(sink, other)  # never ran at all: KeyError stands

    def test_table_format_renders(self, mini_bins):
        grid = self._grid(mini_bins)
        table = build_report(
            ReportSpec(value="energy_kwh", rows=("policy",), cols=("pool_count",)),
            grid,
            _fake_records(grid, [10.0, 6.0, 4.0]),
        )
        text = table.format()
        assert "policy" in text and "pool_count=2" in text
        assert "10.0000" in text and "-" in text
