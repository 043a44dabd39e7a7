"""Tests for the findings ratchet (baseline).

The ratchet's contract, exercised as seeded property tests:

* subtraction is exact — baselined findings are never reported, and
  findings outside the baseline are always reported;
* ``--update-baseline`` is idempotent (byte-identical JSON);
* a stale entry (the finding was fixed) fails the run until pruned,
  and pruning only ever shrinks the baseline.
"""

import json
import os
import random

import pytest

from repro.lint.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    update_baseline,
)
from repro.lint.engine import LintReport, LintUsageError, lint_paths

#: Each file carries two distinct unit violations (different messages),
#: plus one duplicated fingerprint (same rule+message, two lines).
VIOLATION_SOURCE = (
    "total_kwh = step_wh\n"
    "budget_usd = mass_kg\n"
    "again_kwh = step_wh\n"
    "repeat_kwh = step_wh\n"
)


def make_tree(tmp_path, count=4):
    paths = []
    for index in range(count):
        path = tmp_path / f"mod_{index}.py"
        path.write_text(VIOLATION_SOURCE)
        paths.append(str(path))
    return paths


def lint_tree(paths):
    return lint_paths(paths)


def baseline_at(tmp_path):
    return load_baseline(str(tmp_path / "lint_baseline.json"))


# ======================================================================
# Exact subtraction (seeded property test)
# ======================================================================
class TestExactSubtraction:
    @pytest.mark.parametrize("seed", range(8))
    def test_baselined_never_reported_new_always_reported(self, tmp_path, seed):
        rng = random.Random(seed)
        paths = make_tree(tmp_path)
        full = lint_tree(paths)
        assert full.findings

        subset = rng.sample(full.findings, rng.randint(0, len(full.findings)))
        partial = LintReport(
            findings=sorted(subset),
            files_checked=len(paths),
            suppressed=0,
            paths=tuple(paths),
        )
        baseline = baseline_at(tmp_path)
        update_baseline(partial, baseline)

        result = apply_baseline(full, baseline)
        base_dir = baseline.base_dir
        # Multiset equality on fingerprints: every occurrence is either
        # absorbed (baselined) or reported (new) — nothing lost, nothing
        # double-counted.
        def counts(findings):
            table = {}
            for finding in findings:
                key = fingerprint(finding, base_dir)
                table[key] = table.get(key, 0) + 1
            return table

        reported = counts(result.new_findings)
        absorbed = dict(baseline.entries)
        expected = counts(full.findings)
        combined = dict(absorbed)
        for key, value in reported.items():
            combined[key] = combined.get(key, 0) + value
        assert combined == expected
        assert result.matched == len(subset)
        assert result.stale == ()  # subset came from the live tree

    def test_no_baseline_reports_everything(self, tmp_path):
        paths = make_tree(tmp_path)
        full = lint_tree(paths)
        baseline = baseline_at(tmp_path)  # file absent -> empty
        assert not baseline.existed
        result = apply_baseline(full, baseline)
        assert result.new_findings == tuple(full.findings)
        assert result.matched == 0


# ======================================================================
# Idempotent update
# ======================================================================
class TestUpdateIdempotent:
    def test_double_update_is_byte_identical(self, tmp_path):
        paths = make_tree(tmp_path)
        report = lint_tree(paths)
        baseline = baseline_at(tmp_path)
        assert update_baseline(report, baseline) is True
        first = open(baseline.path, "rb").read()
        assert update_baseline(report, baseline) is False
        second = open(baseline.path, "rb").read()
        assert first == second

    def test_updated_baseline_makes_run_clean(self, tmp_path):
        paths = make_tree(tmp_path)
        baseline = baseline_at(tmp_path)
        update_baseline(lint_tree(paths), baseline)
        result = apply_baseline(lint_tree(paths), load_baseline(baseline.path))
        assert result.clean

    def test_partial_update_preserves_unlinted_entries(self, tmp_path):
        paths = make_tree(tmp_path)
        baseline = baseline_at(tmp_path)
        update_baseline(lint_tree(paths), baseline)
        before = dict(baseline.entries)
        # Re-lint only the first file; the other files' entries survive.
        update_baseline(lint_tree(paths[:1]), baseline)
        assert baseline.entries == before


# ======================================================================
# The ratchet: stale entries fail until pruned; baseline only shrinks
# ======================================================================
class TestRatchet:
    def test_fixed_finding_goes_stale_and_fails(self, tmp_path):
        paths = make_tree(tmp_path)
        baseline = baseline_at(tmp_path)
        update_baseline(lint_tree(paths), baseline)

        # Fix one violation: drop the incompatible-dimension line.
        fixed = tmp_path / "mod_0.py"
        fixed.write_text(VIOLATION_SOURCE.replace("budget_usd = mass_kg\n", ""))
        result = apply_baseline(lint_tree(paths), load_baseline(baseline.path))
        assert result.new_findings == ()
        assert len(result.stale) == 1
        ((key, missing),) = result.stale
        assert key[1] == "UNT002" and missing == 1
        assert not result.clean  # CI fails until the entry is pruned

    def test_pruning_shrinks_and_cleans(self, tmp_path):
        paths = make_tree(tmp_path)
        baseline = baseline_at(tmp_path)
        update_baseline(lint_tree(paths), baseline)
        before_total = baseline.total()

        fixed = tmp_path / "mod_0.py"
        fixed.write_text(VIOLATION_SOURCE.replace("budget_usd = mass_kg\n", ""))
        update_baseline(lint_tree(paths), baseline)
        assert baseline.total() == before_total - 1
        assert apply_baseline(lint_tree(paths), load_baseline(baseline.path)).clean

    def test_partially_fixed_duplicate_fingerprint_counts_exactly(self, tmp_path):
        """Two occurrences of the same (path, rule, message): fixing one
        leaves missing=1 stale, not a silently absorbed pair."""
        paths = make_tree(tmp_path, count=1)
        baseline = baseline_at(tmp_path)
        update_baseline(lint_tree(paths), baseline)
        # Drop one of the three identical step_wh mixes.
        (tmp_path / "mod_0.py").write_text(
            VIOLATION_SOURCE.replace("repeat_kwh = step_wh\n", "")
        )
        result = apply_baseline(lint_tree(paths), load_baseline(baseline.path))
        assert result.new_findings == ()
        ((_, missing),) = result.stale
        assert missing == 1

    def test_deleted_file_entry_is_stale_even_unlinted(self, tmp_path):
        paths = make_tree(tmp_path)
        baseline = baseline_at(tmp_path)
        update_baseline(lint_tree(paths), baseline)
        os.unlink(paths[0])
        result = apply_baseline(lint_tree(paths[1:]), load_baseline(baseline.path))
        assert result.stale  # the dead file's entries must be pruned
        update_baseline(lint_tree(paths[1:]), baseline)
        assert all(not key[0].endswith("mod_0.py") for key in baseline.entries)

    def test_new_finding_always_fails_despite_baseline(self, tmp_path):
        paths = make_tree(tmp_path)
        baseline = baseline_at(tmp_path)
        update_baseline(lint_tree(paths), baseline)
        (tmp_path / "mod_0.py").write_text(
            VIOLATION_SOURCE + "fresh_ms = other_s\n"
        )
        result = apply_baseline(lint_tree(paths), load_baseline(baseline.path))
        assert len(result.new_findings) == 1
        assert not result.clean


# ======================================================================
# Baseline file format errors
# ======================================================================
class TestBaselineFormat:
    def test_corrupt_baseline_is_usage_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(LintUsageError, match="unreadable baseline"):
            load_baseline(str(path))

    def test_wrong_version_is_usage_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": "other", "findings": []}))
        with pytest.raises(LintUsageError, match="not a repro-lint-baseline"):
            load_baseline(str(path))

    def test_nonpositive_count_is_usage_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "version": "repro-lint-baseline-v1",
                    "findings": [
                        {"path": "x.py", "rule": "UNT002", "message": "m", "count": 0}
                    ],
                }
            )
        )
        with pytest.raises(LintUsageError, match="count 0"):
            load_baseline(str(path))
