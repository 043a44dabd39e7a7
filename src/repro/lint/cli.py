"""Command-line front end: ``python -m repro lint`` / ``repro-lint``.

Exit codes: 0 — no findings (or all findings baselined); 1 — new
findings or stale baseline entries reported; 2 — usage error (unknown
rule id, missing path, non-Python file, unreadable baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.lint.baseline import (
    BaselineResult,
    apply_baseline,
    load_baseline,
    update_baseline,
)
from repro.lint.engine import (
    PARSE_ERROR_ID,
    Finding,
    LintReport,
    default_rules,
    lint_paths,
    rule_catalog,
)

#: Default ratchet file, resolved relative to the current directory.
DEFAULT_BASELINE = "lint_baseline.json"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Lint options, shared by the subcommand and the console script."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src); directories "
        "are walked recursively, skipping lint_fixtures/; explicitly "
        "named files must be .py",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="IDS",
        help="only report these rule ids (comma-separated; a family "
        "prefix like DET selects the family); repeatable",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="IDS",
        help="drop these rule ids (comma-separated, prefix-matched; "
        "wins over --select); repeatable",
    )
    parser.add_argument(
        "--format",
        dest="format",
        default="text",
        choices=("text", "json", "github"),
        help="report format: human-readable lines, a JSON document, or "
        "GitHub workflow ::error annotations",
    )
    parser.add_argument(
        "--baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="FILE",
        help="subtract the reviewed findings inventory (ratchet): only "
        "new findings fail, and stale entries fail until pruned "
        f"(default file: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run's findings (prunes "
        "stale entries for linted files) and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog grouped by family (with each "
        "family's invariant) and exit 0",
    )


def _known_prefixes() -> List[str]:
    catalog = rule_catalog()
    prefixes = set(catalog)
    prefixes.update(rule_id[:3] for rule_id in catalog)
    return sorted(prefixes)


def _validate_ids(entries: Optional[Sequence[str]], option: str) -> None:
    if not entries:
        return
    known = _known_prefixes()
    for entry in entries:
        for part in entry.split(","):
            part = part.strip().upper()
            if part and part not in known:
                raise ValueError(
                    f"{option} {part!r} matches no known rule id or family; "
                    f"known: {', '.join(known)}"
                )


def _print_rules() -> None:
    """The catalog, one block per family, invariant first."""
    print("engine")
    print("  invariant: every linted file parses as Python")
    print(f"  {PARSE_ERROR_ID}  file could not be parsed as Python")
    for rule in default_rules():
        print()
        print(rule.family)
        if rule.invariant:
            print(f"  invariant: {rule.invariant}")
        for rule_id, description in sorted(rule.catalog.items()):
            print(f"  {rule_id}  {description}")


def _escape_data(value: str) -> str:
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_property(value: str) -> str:
    return _escape_data(value).replace(":", "%3A").replace(",", "%2C")


def _github_annotation(finding: Finding) -> str:
    return (
        f"::error file={_escape_property(finding.path)},"
        f"line={finding.line},col={finding.col},"
        f"title={_escape_property(finding.rule)}::"
        f"{_escape_data(f'{finding.rule} {finding.message}')}"
    )


def _emit(
    report: LintReport,
    findings: Sequence[Finding],
    ratchet: Optional[BaselineResult],
    fmt: str,
) -> None:
    if fmt == "json":
        document: Dict[str, object] = {
            "findings": [finding.to_dict() for finding in findings],
            "files_checked": report.files_checked,
            "suppressed": report.suppressed,
        }
        if ratchet is not None:
            document["baseline"] = {
                "matched": ratchet.matched,
                "stale": [
                    {
                        "path": path,
                        "rule": rule,
                        "message": message,
                        "missing": missing,
                    }
                    for (path, rule, message), missing in ratchet.stale
                ],
            }
        print(json.dumps(document, indent=2))
        return
    for finding in findings:
        print(
            _github_annotation(finding) if fmt == "github" else finding.format()
        )
    if ratchet is not None:
        for (path, rule, message), missing in ratchet.stale:
            text = (
                f"stale baseline entry: {path}: {rule} {message!r} "
                f"({missing} missing occurrence(s)) — the finding was "
                "fixed; prune it with --update-baseline"
            )
            if fmt == "github":
                print(
                    f"::error file={_escape_property(path)},"
                    f"title={_escape_property(rule + ' (stale baseline)')}::"
                    f"{_escape_data(text)}"
                )
            else:
                print(text)
    summary = (
        f"{len(findings)} finding(s) in {report.files_checked} file(s) "
        f"({report.suppressed} suppressed"
    )
    if ratchet is not None:
        summary += (
            f", {ratchet.matched} baselined, {len(ratchet.stale)} stale "
            "baseline entr(y/ies)"
        )
    summary += ")"
    print(summary, file=sys.stderr)


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation (the subcommand entry point)."""
    if args.list_rules:
        _print_rules()
        return 0
    _validate_ids(args.select, "--select")
    _validate_ids(args.ignore, "--ignore")
    baseline_path: Optional[str] = args.baseline
    if args.update_baseline and baseline_path is None:
        baseline_path = DEFAULT_BASELINE
    try:
        report = lint_paths(
            args.paths,
            select=args.select,
            ignore=args.ignore,
        )
    except FileNotFoundError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2
    if baseline_path is None:
        _emit(report, report.findings, None, args.format)
        return report.exit_code
    baseline = load_baseline(baseline_path)
    if args.update_baseline:
        changed = update_baseline(report, baseline)
        state = "updated" if changed else "unchanged"
        print(
            f"baseline {baseline.path} {state}: {baseline.total()} "
            f"finding(s) across {len(baseline.entries)} entr(y/ies)",
            file=sys.stderr,
        )
        return 0
    ratchet = apply_baseline(report, baseline)
    _emit(report, ratchet.new_findings, ratchet, args.format)
    return 0 if ratchet.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Domain-aware static analysis: determinism, unit-suffix, "
            "concurrency, immutability, architecture and whole-program "
            "flow rules for the DynamoLLM reproduction."
        ),
    )
    add_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BrokenPipeError:
        # `repro-lint ... | head` closes stdout early: die quietly like
        # a well-behaved filter.  Redirect stdout to devnull so the
        # interpreter's shutdown flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
