"""Tests for ``repro lint``: engine, rules, fixtures, CLI.

Layers:

* golden fixtures — the deliberate violations under ``tests/lint_fixtures/``
  must produce exactly the findings pinned in ``expected.json`` (rule id,
  line, column, message);
* the repaired-tree regression — ``src`` (and ``tests``/``benchmarks``/
  ``examples``) lint clean, so any reintroduced violation fails here
  before CI;
* per-rule unit tests on inline snippets;
* seeded property tests that per-line suppressions and
  ``--select``/``--ignore`` filtering are honoured for arbitrary
  finding/rule subsets;
* CLI exit-code and format contracts.
"""

import json
import os
import random

import pytest

from repro.lint import Finding, lint_paths, lint_source, rule_catalog
from repro.lint.baseline import apply_baseline, load_baseline
from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    EXCLUDED_DIRS,
    PARSE_ERROR_ID,
    LintUsageError,
    iter_python_files,
    parse_suppressions,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
BASELINE_PATH = os.path.join(REPO_ROOT, "lint_baseline.json")


def _walk_fixture_files():
    found = []
    for dirpath, dirnames, filenames in os.walk(FIXTURE_DIR):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                found.append(os.path.join(dirpath, name))
    return found


#: Recursive: the whole-program fixtures live in a mini-package under
#: lint_fixtures/repro/ so they get layered module names (sim.*, ...).
FIXTURE_FILES = _walk_fixture_files()


def fixture_findings(**kwargs):
    return lint_paths(FIXTURE_FILES, **kwargs)


# ======================================================================
# Golden fixtures
# ======================================================================
class TestGoldenFixtures:
    def test_fixture_findings_match_golden(self):
        with open(os.path.join(FIXTURE_DIR, "expected.json")) as handle:
            expected = json.load(handle)
        report = fixture_findings()
        actual = [
            {
                "path": os.path.relpath(finding.path, FIXTURE_DIR).replace(
                    os.sep, "/"
                ),
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule,
                "message": finding.message,
            }
            for finding in report.findings
        ]
        assert actual == expected

    def test_all_five_families_are_exercised(self):
        rules = {finding.rule for finding in fixture_findings().findings}
        assert {rule[:3] for rule in rules} == {"DET", "UNT", "CNC", "IMM", "ARC"}
        # The whole-program ids specifically, not just their families.
        for rule_id in (
            "ARC001", "ARC002", "ARC003", "ARC004",
            "DET005", "UNT004", "UNT005",
        ):
            assert rule_id in rules

    def test_taint_fixture_pins_cross_file_chain(self):
        """DET005 catches what DET001 cannot: the call site of a clean-
        looking wrapper, with the full cross-file path in the message."""
        report = fixture_findings()
        engine_path = os.path.join("repro", "sim", "taint_engine.py")
        at_call_site = [
            f for f in report.findings if f.path.endswith(engine_path)
        ]
        assert [f.rule for f in at_call_site] == ["DET005"]
        (finding,) = at_call_site
        assert (
            "sim.taint_helpers.elapsed_s() -> "
            "sim.taint_helpers._read_clock() -> time.time()"
        ) in finding.message

    def test_clean_fixture_has_no_findings_but_one_suppression(self):
        report = lint_paths([os.path.join(FIXTURE_DIR, "clean_suppressed.py")])
        assert report.findings == []
        assert report.suppressed == 1
        assert report.exit_code == 0

    def test_findings_are_sorted_and_stable(self):
        findings = fixture_findings().findings
        assert findings == sorted(findings)
        assert findings == fixture_findings().findings


# ======================================================================
# Repaired-tree regression: the whole repo lints clean modulo the
# reviewed baseline (the ratchet: new findings fail here before CI)
# ======================================================================
class TestRepairedTree:
    def test_src_is_clean_modulo_reviewed_baseline(self):
        report = lint_paths([os.path.join(REPO_ROOT, "src")])
        result = apply_baseline(report, load_baseline(BASELINE_PATH))
        assert result.new_findings == (), "\n".join(
            finding.format() for finding in result.new_findings
        )
        assert result.stale == (), (
            "baselined finding fixed — prune lint_baseline.json with "
            "--update-baseline: " + repr(result.stale)
        )
        assert report.files_checked > 80

    def test_baseline_is_empty(self):
        """The core->cluster upward coupling was the only reviewed debt;
        the protocol layer (repro.core.interfaces) retired it.  The
        baseline must stay empty — new architectural debt needs a fix,
        not a baseline entry."""
        baseline = load_baseline(BASELINE_PATH)
        assert baseline.existed
        assert baseline.entries == {}

    def test_tests_benchmarks_examples_have_zero_findings(self):
        report = lint_paths(
            [
                os.path.join(REPO_ROOT, "tests"),
                os.path.join(REPO_ROOT, "benchmarks"),
                os.path.join(REPO_ROOT, "examples"),
            ]
        )
        assert report.findings == [], "\n".join(
            finding.format() for finding in report.findings
        )

    def test_fixture_directory_is_skipped_when_walking(self):
        walked = list(iter_python_files([os.path.join(REPO_ROOT, "tests")]))
        assert not any("lint_fixtures" in path for path in walked)
        assert "lint_fixtures" in EXCLUDED_DIRS

    def test_explicit_fixture_paths_are_still_linted(self):
        report = lint_paths([os.path.join(FIXTURE_DIR, "det_violations.py")])
        assert report.findings


# ======================================================================
# Determinism rules
# ======================================================================
class TestDeterminismRules:
    def lint(self, source, path="repro/sim/sample.py"):
        return lint_source(source, path=path)

    def test_wall_clock_calls_flagged(self):
        source = "import time\nstarted = time.time()\n"
        rules = [finding.rule for finding in self.lint(source)]
        assert rules == ["DET001"]

    def test_datetime_now_flagged_via_from_import(self):
        source = "from datetime import datetime\nstamp = datetime.now()\n"
        assert [f.rule for f in self.lint(source)] == ["DET001"]

    def test_aliased_import_resolved(self):
        source = "import time as clock\nvalue = clock.perf_counter()\n"
        assert [f.rule for f in self.lint(source)] == ["DET001"]

    def test_stdlib_random_functions_flagged(self):
        source = "import random\nvalue = random.random()\n"
        assert [f.rule for f in self.lint(source)] == ["DET002"]

    def test_seeded_random_instance_allowed(self):
        source = "import random\nrng = random.Random(7)\n"
        assert self.lint(source) == []

    def test_unseeded_random_instance_flagged(self):
        source = "import random\nrng = random.Random()\n"
        assert [f.rule for f in self.lint(source)] == ["DET002"]

    def test_numpy_legacy_global_rng_flagged(self):
        source = "import numpy as np\nnp.random.seed(3)\nx = np.random.rand()\n"
        assert [f.rule for f in self.lint(source)] == ["DET003", "DET003"]

    def test_default_rng_outside_rng_module_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng(11)\n"
        assert [f.rule for f in self.lint(source)] == ["DET004"]

    def test_rng_module_itself_exempt(self):
        source = "import numpy as np\nrng = np.random.default_rng(11)\n"
        assert lint_source(source, path="src/repro/sim/rng.py") == []

    def test_cli_and_benchmarks_exempt(self):
        source = "import time\nstarted = time.perf_counter()\n"
        assert lint_source(source, path="src/repro/__main__.py") == []
        assert lint_source(source, path="benchmarks/test_bench_x.py") == []
        assert lint_source(source, path="examples/quickstart.py") == []

    def test_unrelated_attribute_calls_not_flagged(self):
        source = "clock = object()\nvalue = clock.time()\n"
        assert self.lint(source) == []


# ======================================================================
# Unit-suffix rules
# ======================================================================
class TestUnitRules:
    def lint(self, source):
        return lint_source(source, path="repro/metrics/sample.py")

    def test_additive_mix_flagged(self):
        assert [f.rule for f in self.lint("total = a_kw + b_w\n")] == ["UNT001"]

    def test_comparison_mix_flagged(self):
        assert [f.rule for f in self.lint("ok = a_s > b_ms\n")] == ["UNT001"]

    def test_assignment_mix_flagged(self):
        assert [f.rule for f in self.lint("total_kwh = step_wh\n")] == ["UNT002"]

    def test_augmented_mix_flagged(self):
        assert [f.rule for f in self.lint("total_j += step_kwh\n")] == ["UNT003"]

    def test_keyword_argument_mix_flagged(self):
        assert [f.rule for f in self.lint("f(power_w=step_kw)\n")] == ["UNT002"]

    def test_cross_dimension_message_names_dimensions(self):
        (finding,) = self.lint("total_kg = spend_usd\n")
        assert "incompatible dimensions" in finding.message

    def test_same_suffix_passes(self):
        assert self.lint("total_wh = total_wh + step_wh\n") == []

    def test_conversion_expression_is_escape_hatch(self):
        assert self.lint("total_wh += step_kwh * 1000.0\n") == []
        assert self.lint("total_kwh = wh_to_kwh(step_wh)\n") == []

    def test_per_rate_suffixes_are_not_quantities(self):
        assert self.lint("cost_usd = price_per_kwh * 2\n") == []
        assert self.lint("x = price_per_kwh + cost_usd\n") == []

    def test_multiplication_changes_units_legitimately(self):
        assert self.lint("energy = power_kw * duration_s\n") == []

    def test_attribute_suffixes_checked(self):
        assert [f.rule for f in self.lint("self.total_wh += acc.step_kwh\n")] == [
            "UNT003"
        ]


# ======================================================================
# Concurrency rules
# ======================================================================
class TestConcurrencyRules:
    def lint(self, source):
        return lint_source(source, path="repro/api/sample.py")

    def test_mutable_default_flagged(self):
        for default in ("[]", "{}", "set()", "dict()", "list()"):
            findings = self.lint(f"def f(x={default}):\n    return x\n")
            assert [f.rule for f in findings] == ["CNC001"], default

    def test_none_default_passes(self):
        assert self.lint("def f(x=None, y=()):\n    return x, y\n") == []

    def test_lambda_submit_flagged(self):
        source = "def go(pool, job):\n    return pool.submit(lambda: job())\n"
        assert [f.rule for f in self.lint(source)] == ["CNC002"]

    def test_named_function_submit_passes(self):
        source = "def go(pool, run, job):\n    return pool.submit(run, job)\n"
        assert self.lint(source) == []

    def test_submitted_callable_writing_sink_flagged(self):
        source = (
            "def work(job, sink):\n"
            "    sink.write(job.key, job.run())\n"
            "def go(pool, jobs, sink):\n"
            "    return [pool.submit(work, job, sink) for job in jobs]\n"
        )
        assert [f.rule for f in self.lint(source)] == ["CNC003"]

    def test_consumer_side_sink_write_passes(self):
        source = (
            "def work(job):\n"
            "    return job.run()\n"
            "def go(pool, jobs, sink):\n"
            "    futures = [pool.submit(work, job) for job in jobs]\n"
            "    for future in futures:\n"
            "        sink.write('k', future.result())\n"
        )
        assert self.lint(source) == []


# ======================================================================
# Immutability rules
# ======================================================================
class TestImmutabilityRules:
    def lint(self, source):
        return lint_source(source, path="repro/api/sample.py")

    def test_setattr_outside_post_init_flagged(self):
        source = "def f(spec):\n    object.__setattr__(spec, 'x', 1)\n"
        assert [f.rule for f in self.lint(source)] == ["IMM001"]

    def test_setattr_inside_post_init_allowed(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Box:\n"
            "    x: int\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', abs(self.x))\n"
        )
        assert self.lint(source) == []

    def test_annotated_parameter_mutation_flagged(self):
        source = "def f(scenario: 'Scenario'):\n    scenario.policy = 'x'\n"
        assert [f.rule for f in self.lint(source)] == ["IMM002"]

    def test_constructed_local_mutation_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Box:\n"
            "    x: int\n"
            "def f():\n"
            "    box = Box(x=1)\n"
            "    box.x = 2\n"
        )
        assert [f.rule for f in self.lint(source)] == ["IMM002"]

    def test_self_mutation_in_frozen_class_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Box:\n"
            "    x: int\n"
            "    def bump(self):\n"
            "        self.x = self.x + 1\n"
        )
        assert [f.rule for f in self.lint(source)] == ["IMM002"]

    def test_rebinding_clears_tracked_type(self):
        source = (
            "def f(scenario: 'Scenario'):\n"
            "    scenario = scenario.with_(policy='x')\n"
            "    scenario.attr = 1\n"
        )
        assert self.lint(source) == []

    def test_unfrozen_dataclass_mutation_passes(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Bag:\n"
            "    x: int\n"
            "def f():\n"
            "    bag = Bag(x=1)\n"
            "    bag.x = 2\n"
        )
        assert self.lint(source) == []

    def test_frozen_classes_collected_across_files(self, tmp_path):
        defining = tmp_path / "defs.py"
        defining.write_text(
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class CrossFileSpec:\n"
            "    x: int\n"
        )
        mutating = tmp_path / "use.py"
        mutating.write_text(
            "def f(spec: 'CrossFileSpec'):\n    spec.x = 2\n"
        )
        report = lint_paths([str(defining), str(mutating)])
        assert [f.rule for f in report.findings] == ["IMM002"]


# ======================================================================
# Architecture rules (whole-program: layering, cycles, privacy)
# ======================================================================
class TestArchitectureRules:
    def lint(self, source, path):
        return lint_source(source, path=path)

    def test_upward_import_flagged(self):
        source = "from repro.api.scenario import Scenario\n"
        assert [f.rule for f in self.lint(source, "repro/sim/x.py")] == ["ARC001"]

    def test_downward_and_sideways_imports_pass(self):
        assert self.lint("from repro.sim.clock import Clock\n", "repro/api/x.py") == []
        assert self.lint("from repro.sim.rng import make_rng\n", "repro/llm/x.py") == []

    def test_unlayered_modules_exempt(self):
        source = "from repro.api.scenario import Scenario\n"
        assert self.lint(source, "tests/test_x.py") == []
        assert self.lint(source, "src/repro/__main__.py") == []

    def test_function_level_upward_import_still_flagged(self):
        source = (
            "def late():\n"
            "    from repro.experiments.grid import build\n"
            "    return build\n"
        )
        assert [f.rule for f in self.lint(source, "repro/metrics/x.py")] == ["ARC001"]

    def _construction_pair(self, tmp_path, consumer_pkg, consumer_src):
        provider = tmp_path / "repro" / "cluster"
        provider.mkdir(parents=True)
        (provider / "fleet.py").write_text("class Fleet:\n    pass\n")
        consumer = tmp_path / "repro" / consumer_pkg
        consumer.mkdir(parents=True, exist_ok=True)
        (consumer / "x.py").write_text(consumer_src)
        return lint_paths([str(provider / "fleet.py"), str(consumer / "x.py")])

    def test_upward_construction_flagged_even_when_deferred(self):
        """ARC004 rides the call graph: the deferred import draws ARC001,
        and the constructor call itself draws ARC004 on top."""
        report = fixture_findings()
        construct_path = os.path.join("repro", "core", "arc_construct.py")
        at_site = [f for f in report.findings if f.path.endswith(construct_path)]
        assert [f.rule for f in at_site] == ["ARC001", "ARC004"]
        assert "constructs 'cluster.accounting.GPUFleet'" in at_site[1].message
        assert "composition root" in at_site[1].message

    def test_aliased_upward_construction_flagged(self, tmp_path):
        report = self._construction_pair(
            tmp_path,
            "core",
            "def build():\n"
            "    from repro.cluster.fleet import Fleet as F\n"
            "    return F()\n",
        )
        assert "ARC004" in {f.rule for f in report.findings}

    def test_downward_construction_passes(self, tmp_path):
        report = self._construction_pair(
            tmp_path,
            "api",
            "from repro.cluster.fleet import Fleet\n"
            "def build():\n"
            "    return Fleet()\n",
        )
        assert report.findings == []

    def test_receiving_upward_object_is_not_construction(self, tmp_path):
        """Injection is the sanctioned pattern: calling methods on a
        received instance must not trip ARC004 (only building one does)."""
        report = self._construction_pair(
            tmp_path,
            "core",
            "def drive(fleet):\n"
            "    return fleet.scale_to(4)\n",
        )
        assert report.findings == []

    def test_cycle_flagged_in_both_modules(self, tmp_path):
        package = tmp_path / "repro" / "policies"
        package.mkdir(parents=True)
        (package / "a.py").write_text("from repro.policies.b import g\n")
        (package / "b.py").write_text("from repro.policies.a import f\n")
        report = lint_paths([str(package / "a.py"), str(package / "b.py")])
        assert [f.rule for f in report.findings] == ["ARC002", "ARC002"]

    def test_deferred_import_breaks_cycle(self, tmp_path):
        package = tmp_path / "repro" / "policies"
        package.mkdir(parents=True)
        (package / "a.py").write_text(
            "def f():\n    from repro.policies.b import g\n    return g\n"
        )
        (package / "b.py").write_text("from repro.policies.a import f\n")
        report = lint_paths([str(package / "a.py"), str(package / "b.py")])
        assert report.findings == []

    def test_type_checking_imports_never_cycle(self, tmp_path):
        package = tmp_path / "repro" / "policies"
        package.mkdir(parents=True)
        (package / "a.py").write_text(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.policies.b import G\n"
        )
        (package / "b.py").write_text("from repro.policies.a import f\n")
        report = lint_paths([str(package / "a.py"), str(package / "b.py")])
        assert report.findings == []

    def test_cross_package_private_name_flagged(self):
        source = "from repro.cluster.power_model import _budget\n"
        assert [f.rule for f in self.lint(source, "repro/api/x.py")] == ["ARC003"]

    def test_same_package_private_name_allowed(self):
        source = "from repro.cluster.power_model import _budget\n"
        assert self.lint(source, "repro/cluster/x.py") == []

    def test_dunder_names_are_not_private(self):
        source = "from repro.cluster.power_model import __version__\n"
        assert self.lint(source, "repro/api/x.py") == []


# ======================================================================
# Flow rules (whole-program: determinism taint, unit flow)
# ======================================================================
class TestFlowDeterminism:
    def test_wrapper_call_flagged_with_path(self):
        source = (
            "import time\n"
            "def _read_clock():\n"
            "    return time.time()\n"
            "def elapsed_s():\n"
            "    return _read_clock()\n"
        )
        findings = lint_source(source, path="repro/sim/x.py")
        assert [f.rule for f in findings] == ["DET001", "DET005"]
        assert "sim.x._read_clock() -> time.time()" in findings[1].message

    def test_suppressed_sink_still_taints(self):
        """A DET001 suppression is a waiver at the sink line, not a
        determinism proof: callers are still flagged by DET005."""
        source = (
            "import time\n"
            "def _read_clock():\n"
            "    return time.time()  # repro-lint: disable=DET001\n"
            "def elapsed_s():\n"
            "    return _read_clock()\n"
        )
        findings = lint_source(source, path="repro/sim/x.py")
        assert [f.rule for f in findings] == ["DET005"]

    def test_cross_file_taint_via_lint_paths(self, tmp_path):
        package = tmp_path / "repro" / "sim"
        package.mkdir(parents=True)
        (package / "helpers.py").write_text(
            "import time\n"
            "def elapsed_s():\n"
            "    return time.time()  # repro-lint: disable=DET001\n"
        )
        (package / "engine.py").write_text(
            "from repro.sim.helpers import elapsed_s\n"
            "def step():\n"
            "    return elapsed_s()\n"
        )
        report = lint_paths([str(package / "helpers.py"), str(package / "engine.py")])
        assert [f.rule for f in report.findings] == ["DET005"]
        (finding,) = report.findings
        assert finding.path.endswith("engine.py")
        assert "sim.helpers.elapsed_s() -> time.time()" in finding.message

    def test_global_rng_taints_too(self):
        source = (
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
            "def pick():\n"
            "    return draw()\n"
        )
        findings = lint_source(source, path="repro/workload/x.py")
        assert [f.rule for f in findings] == ["DET002", "DET005"]

    def test_seeded_rng_does_not_taint(self):
        source = (
            "import random\n"
            "def make(seed):\n"
            "    return random.Random(seed)\n"
            "def use(seed):\n"
            "    return make(seed).random()\n"
        )
        assert lint_source(source, path="repro/workload/x.py") == []

    def test_unlayered_call_sites_not_flagged(self):
        source = (
            "import time\n"
            "def elapsed_s():\n"
            "    return time.time()  # repro-lint: disable=DET001\n"
            "def probe():\n"
            "    return elapsed_s()\n"
        )
        assert lint_source(source, path="tests/test_x.py") == []
        assert lint_source(source, path="benchmarks/test_bench_x.py") == []


class TestFlowUnits:
    def lint(self, source):
        return lint_source(source, path="repro/metrics/sample.py")

    def test_positional_suffix_conflict_flagged(self):
        source = (
            "def record_power_kw(power_kw):\n"
            "    return power_kw\n"
            "def f(load_w):\n"
            "    record_power_kw(load_w)\n"
        )
        findings = self.lint(source)
        assert [f.rule for f in findings] == ["UNT004"]
        assert "'load_w'" in findings[0].message
        assert "'power_kw'" in findings[0].message

    def test_matching_positional_suffix_passes(self):
        source = (
            "def record_power_kw(power_kw):\n"
            "    return power_kw\n"
            "def f(load_kw):\n"
            "    record_power_kw(load_kw)\n"
        )
        assert self.lint(source) == []

    def test_unsuffixed_argument_or_parameter_passes(self):
        source = (
            "def record_power_kw(power_kw):\n"
            "    return power_kw\n"
            "def scale(value):\n"
            "    record_power_kw(value)\n"
        )
        assert self.lint(source) == []

    def test_star_args_skip_positional_binding(self):
        source = (
            "def record_power_kw(power_kw):\n"
            "    return power_kw\n"
            "def f(args_w):\n"
            "    record_power_kw(*args_w)\n"
        )
        assert self.lint(source) == []

    def test_method_call_binds_past_self(self):
        source = (
            "class Meter:\n"
            "    def add_wh(self, step_wh):\n"
            "        return step_wh\n"
            "    def tick(self, step_kwh):\n"
            "        self.add_wh(step_kwh)\n"
        )
        assert [f.rule for f in self.lint(source)] == ["UNT004"]

    def test_return_suffix_mismatch_flagged(self):
        source = (
            "def step_energy_wh():\n"
            "    return 1.0\n"
            "def f():\n"
            "    total_kwh = step_energy_wh()\n"
            "    return total_kwh\n"
        )
        assert [f.rule for f in self.lint(source)] == ["UNT005"]

    def test_conversion_helper_carries_result_suffix(self):
        source = (
            "def wh_to_kwh(value_wh):\n"
            "    return value_wh / 1000.0\n"
            "def f(step_wh):\n"
            "    total_kwh = wh_to_kwh(step_wh)\n"
            "    return total_kwh\n"
        )
        assert self.lint(source) == []

    def test_unsuffixed_function_name_passes(self):
        source = (
            "def compute():\n"
            "    return 1.0\n"
            "def f():\n"
            "    total_kwh = compute()\n"
            "    return total_kwh\n"
        )
        assert self.lint(source) == []


# ======================================================================
# Suppressions and filtering (seeded property tests)
# ======================================================================
def _suppress_lines(source: str, targets):
    """Append per-line disable comments for {line: rule} targets."""
    lines = source.splitlines()
    for line_number, rule in targets.items():
        lines[line_number - 1] += f"  # repro-lint: disable={rule}"
    return "\n".join(lines) + "\n"


class TestSuppressions:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_suppression_subsets_are_honoured(self, seed):
        rng = random.Random(seed)
        for path in FIXTURE_FILES:
            with open(path) as handle:
                source = handle.read()
            findings = lint_source(source, path=path)
            if not findings:
                continue
            chosen = rng.sample(findings, rng.randint(1, len(findings)))
            # One finding per line: comments attach per physical line.
            targets = {f.line: f.rule for f in chosen}
            kept = lint_source(
                _suppress_lines(source, targets), path=path
            )
            for finding in findings:
                expected_gone = targets.get(finding.line) == finding.rule
                still_there = any(
                    k.rule == finding.rule and k.line == finding.line
                    for k in kept
                )
                assert still_there != expected_gone

    def test_disable_all_suppresses_every_rule_on_the_line(self):
        source = "import time\nx = time.time()  # repro-lint: disable=all\n"
        assert lint_source(source, path="repro/sim/s.py") == []

    def test_suppression_is_per_line_not_per_file(self):
        source = (
            "import time\n"
            "x = time.time()  # repro-lint: disable=DET001\n"
            "y = time.time()\n"
        )
        findings = lint_source(source, path="repro/sim/s.py")
        assert [(f.rule, f.line) for f in findings] == [("DET001", 3)]

    def test_comma_separated_ids(self):
        source = "total_kwh = step_wh  # repro-lint: disable=UNT002,DET001\n"
        assert lint_source(source, path="repro/metrics/s.py") == []

    def test_parse_suppressions_shapes(self):
        parsed = parse_suppressions(
            "x = 1  # repro-lint: disable=A001, B002\ny = 2\n"
        )
        assert parsed == {1: {"A001", "B002"}}


class TestSelectIgnore:
    ALL_IDS = sorted(
        rule_id for rule_id in rule_catalog() if rule_id != PARSE_ERROR_ID
    )

    @pytest.mark.parametrize("seed", range(5))
    def test_select_keeps_exactly_matching_rules(self, seed):
        rng = random.Random(100 + seed)
        baseline = fixture_findings().findings
        subset = rng.sample(self.ALL_IDS, rng.randint(1, len(self.ALL_IDS)))
        report = fixture_findings(select=subset)
        expected = [f for f in baseline if f.rule in subset]
        assert report.findings == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_ignore_drops_exactly_matching_rules(self, seed):
        rng = random.Random(200 + seed)
        baseline = fixture_findings().findings
        subset = rng.sample(self.ALL_IDS, rng.randint(1, len(self.ALL_IDS)))
        report = fixture_findings(ignore=subset)
        expected = [f for f in baseline if f.rule not in subset]
        assert report.findings == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_ignore_wins_over_select(self, seed):
        rng = random.Random(300 + seed)
        baseline = fixture_findings().findings
        selected = set(rng.sample(self.ALL_IDS, rng.randint(1, len(self.ALL_IDS))))
        ignored = set(rng.sample(self.ALL_IDS, rng.randint(1, len(self.ALL_IDS))))
        report = fixture_findings(select=sorted(selected), ignore=sorted(ignored))
        expected = [
            f for f in baseline if f.rule in (selected - ignored)
        ]
        assert report.findings == expected

    def test_family_prefix_selects_whole_family(self):
        report = fixture_findings(select=["DET"])
        assert report.findings
        assert all(f.rule.startswith("DET") for f in report.findings)

    def test_comma_separated_entries(self):
        split = fixture_findings(select=["DET001,UNT001"]).findings
        listed = fixture_findings(select=["DET001", "UNT001"]).findings
        assert split == listed


# ======================================================================
# Parse errors and engine edges
# ======================================================================
class TestEngineEdges:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert [f.rule for f in findings] == [PARSE_ERROR_ID]

    def test_parse_error_survives_select_but_not_ignore(self):
        assert lint_source("def broken(:\n", select=["DET"])
        assert lint_source("def broken(:\n", ignore=[PARSE_ERROR_ID]) == []

    def test_missing_path_raises_with_path_in_message(self):
        with pytest.raises(FileNotFoundError, match="no/such/file"):
            lint_paths(["no/such/file.py"])

    def test_explicit_non_python_file_is_usage_error(self):
        with pytest.raises(LintUsageError, match="README.md"):
            lint_paths([os.path.join(REPO_ROOT, "README.md")])

    def test_directories_still_only_walk_python_files(self):
        walked = list(iter_python_files([os.path.join(REPO_ROOT, "src")]))
        assert walked
        assert all(path.endswith(".py") for path in walked)

    def test_file_named_two_ways_is_linted_once(self, monkeypatch):
        monkeypatch.chdir(FIXTURE_DIR)
        once = lint_paths(["unit_violations.py"])
        twice = lint_paths(["unit_violations.py", "./unit_violations.py"])
        assert once.findings
        assert twice.files_checked == 1
        assert twice.findings == once.findings

    def test_directory_and_file_inside_it_lint_the_file_once(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        walked = lint_paths(["tests/lint_fixtures"])
        both = lint_paths(
            ["tests/lint_fixtures", "./tests/lint_fixtures/unit_violations.py"]
        )
        assert both.files_checked == walked.files_checked
        assert both.findings == walked.findings

    def test_finding_format_is_clickable(self):
        finding = Finding(path="a.py", line=3, col=7, rule="DET001", message="m")
        assert finding.format() == "a.py:3:7: DET001 m"

    def test_rule_catalog_covers_all_families(self):
        catalog = rule_catalog()
        for expected in (
            "DET001", "DET002", "DET003", "DET004", "DET005",
            "UNT001", "UNT002", "UNT003", "UNT004", "UNT005",
            "CNC001", "CNC002", "CNC003",
            "IMM001", "IMM002",
            "ARC001", "ARC002", "ARC003", "ARC004", PARSE_ERROR_ID,
        ):
            assert expected in catalog


# ======================================================================
# CLI contracts
# ======================================================================
class TestLintCli:
    def test_clean_tree_exits_zero_with_baseline(self, capsys):
        code = lint_main(
            [os.path.join(REPO_ROOT, "src"), "--baseline", BASELINE_PATH]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "0 finding(s)" in err
        assert "0 baselined" in err
        assert "0 stale" in err

    def test_fixture_violations_exit_nonzero(self, capsys):
        code = lint_main([os.path.join(FIXTURE_DIR, "det_violations.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "det_violations.py" in out

    def test_json_format_round_trips(self, capsys):
        code = lint_main(
            [os.path.join(FIXTURE_DIR, "unit_violations.py"), "--format", "json"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files_checked"] == 1
        assert all(
            set(f) == {"path", "line", "col", "rule", "message"}
            for f in report["findings"]
        )

    def test_select_and_ignore_flags(self, capsys):
        path = os.path.join(FIXTURE_DIR, "det_violations.py")
        assert lint_main([path, "--select", "UNT"]) == 0
        assert lint_main([path, "--ignore", "DET"]) == 0
        assert lint_main([path, "--select", "DET", "--ignore", "DET"]) == 0
        capsys.readouterr()

    def test_unknown_rule_id_is_usage_error(self, capsys):
        assert lint_main(["--select", "NOPE99", FIXTURE_DIR]) == 2
        assert "NOPE99" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["no/such/dir"]) == 2
        assert "no/such/dir" in capsys.readouterr().err

    def test_non_python_file_is_usage_error(self, capsys):
        assert lint_main([os.path.join(REPO_ROOT, "README.md")]) == 2
        err = capsys.readouterr().err
        assert "README.md" in err and "not a Python file" in err

    def test_list_rules_groups_by_family_with_invariants(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET005", "UNT004", "UNT005",
                        "ARC001", "ARC002", "ARC003", "ARC004", "IMM002"):
            assert rule_id in out
        for family in ("determinism", "units", "concurrency", "immutability",
                       "architecture", "flow-determinism", "flow-units"):
            assert f"\n{family}\n" in f"\n{out}"
        # Every family states its invariant ahead of its rule ids.
        assert out.count("invariant:") >= 7

    def test_github_format_emits_error_annotations(self, capsys):
        path = os.path.join(
            FIXTURE_DIR, "repro", "sim", "taint_engine.py"
        )
        helper = os.path.join(
            FIXTURE_DIR, "repro", "sim", "taint_helpers.py"
        )
        code = lint_main([helper, path, "--format", "github"])
        assert code == 1
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("::error ")]
        assert lines
        det005 = [line for line in lines if "title=DET005" in line]
        assert det005
        assert "file=" in det005[0] and ",line=" in det005[0]
        # Annotation properties escape colons/commas; data escapes newlines.
        assert "taint_engine.py" in det005[0]

    def test_baseline_flags_round_trip(self, tmp_path, capsys):
        target = os.path.join(FIXTURE_DIR, "unit_violations.py")
        baseline = str(tmp_path / "baseline.json")
        # Without a baseline the fixture fails; update, then it passes.
        assert lint_main([target]) == 1
        assert lint_main([target, "--baseline", baseline, "--update-baseline"]) == 0
        assert lint_main([target, "--baseline", baseline]) == 0
        capsys.readouterr()

    def test_python_m_repro_lint_subcommand(self, capsys):
        from repro.__main__ import main as repro_main

        code = repro_main(
            ["lint", os.path.join(REPO_ROOT, "src"), "--baseline", BASELINE_PATH]
        )
        assert code == 0
        code = repro_main(["lint", os.path.join(FIXTURE_DIR, "imm_violations.py")])
        assert code == 1
        capsys.readouterr()

    def test_piped_output_closed_early_exits_quietly(self):
        """`repro-lint --list-rules | head -1` must behave like a filter:
        exit 0, no BrokenPipeError traceback."""
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        script = (
            "import subprocess, sys\n"
            "proc = subprocess.Popen(\n"
            "    [sys.executable, '-m', 'repro.lint.cli', '--list-rules'],\n"
            "    stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
            "proc.stdout.readline()\n"
            "proc.stdout.close()\n"
            "proc.wait()\n"
            "sys.stderr.write(proc.stderr.read().decode())\n"
            "sys.exit(proc.returncode)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr


# ======================================================================
# mypy ratchet (skipped where mypy is not installed; CI always runs it)
# ======================================================================
class TestMypyRatchet:
    def test_mypy_config_passes(self):
        pytest.importorskip("mypy")
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
