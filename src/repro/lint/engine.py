"""Rule engine: file walking, AST dispatch, suppression and filtering.

The engine is deliberately small: it parses each file once, hands the
tree to every registered :class:`Rule`, and post-processes the emitted
:class:`Finding` objects (per-line ``# repro-lint: disable=...``
suppressions, ``--select`` / ``--ignore`` filtering).  Rules are
plugins: a rule family lives in one module under
:mod:`repro.lint.rules`, subclasses :class:`Rule`, declares the finding
ids it can emit in ``catalog``, and yields findings from ``check``.

A *project pre-pass* runs before any rule: it collects the names of
every ``@dataclass(frozen=True)`` class across the linted file set into
:attr:`ProjectContext.frozen_classes`, so the immutability rules know
the domain's frozen types (``Scenario``, ``TraceSpec``, ``Event``, ...)
without hard-coding the whole list.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from repro.lint.graph import ModuleFacts, ProjectGraph

#: Finding id used for files the engine cannot parse at all.
PARSE_ERROR_ID = "E001"


class LintUsageError(ValueError):
    """A caller mistake (exit code 2), not a finding: e.g. explicitly
    passing a non-Python file to lint."""

#: Directory names never descended into while walking a directory
#: argument.  ``lint_fixtures`` holds *deliberate* violations for the
#: golden tests — explicitly-passed file paths are always linted, so the
#: fixture tests still reach them.
EXCLUDED_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".hypothesis",
        ".eggs",
        "build",
        "dist",
        "lint_fixtures",
    }
)

_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint\s*:\s*disable=([A-Za-z0-9_,\s]+)", re.IGNORECASE
)


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Ordered by (path, line, col, rule) so reports and golden files are
    stable regardless of rule registration order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclasses.dataclass
class ProjectContext:
    """Cross-file facts collected before rules run."""

    #: Names of every ``@dataclass(frozen=True)`` class seen in the
    #: linted file set, unioned with the domain anchors the immutability
    #: rules must know even on single-file runs.
    frozen_classes: Set[str] = dataclasses.field(default_factory=set)
    #: Whole-program view (import graph, call graph, determinism taint,
    #: layering) assembled by :mod:`repro.lint.graph` before rules run.
    graph: Optional["ProjectGraph"] = None


class FileContext:
    """Everything a rule needs about one file."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.AST,
        project: ProjectContext,
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.project = project
        self.rel_parts = _relative_parts(path)

    @property
    def dir_parts(self) -> Tuple[str, ...]:
        """Path components of the containing directory (for scoping)."""
        return self.rel_parts[:-1]

    @property
    def basename(self) -> str:
        return self.rel_parts[-1] if self.rel_parts else self.path

    def ends_with(self, *parts: str) -> bool:
        """True when the normalised path ends with ``parts``."""
        return self.rel_parts[-len(parts):] == tuple(parts)

    @property
    def module_facts(self) -> Optional["ModuleFacts"]:
        """This file's record in the project graph (``None`` without one)."""
        if self.project.graph is None:
            return None
        return self.project.graph.by_path.get(self.path)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


def _relative_parts(path: str) -> Tuple[str, ...]:
    """Path components after the innermost ``repro``/``src`` marker.

    ``/root/repo/src/repro/sim/rng.py`` → ``("sim", "rng.py")`` and
    ``tests/test_api.py`` → ``("tests", "test_api.py")``, so rules can
    scope themselves by package regardless of how the path was spelled.
    """
    parts = tuple(p for p in os.path.normpath(path).split(os.sep) if p not in ("", "."))
    for marker in ("repro", "src"):
        if marker in parts[:-1]:
            # Innermost occurrence: len(parts[:-1]) - 1 - reversed-index.
            position = len(parts) - 2 - tuple(reversed(parts[:-1])).index(marker)
            return parts[position + 1 :]
    return parts


class Rule:
    """Base class for one rule family.

    Subclasses set ``family`` (short kebab-case name), ``invariant``
    (the one-line property the family defends, shown by
    ``--list-rules``) and ``catalog`` (finding id → one-line
    description; the ids the family can emit) and implement
    :meth:`check`.
    """

    family: str = ""
    invariant: str = ""
    catalog: Dict[str, str] = {}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    suppressed: int
    #: The linted file paths, as given (baseline stale-checks scope to
    #: these: a baseline entry for an unlinted file is never "stale").
    paths: Tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


# ----------------------------------------------------------------------
# Selection / suppression
# ----------------------------------------------------------------------
def _normalise_ids(ids: Optional[Iterable[str]]) -> Optional[Tuple[str, ...]]:
    if ids is None:
        return None
    flat: List[str] = []
    for entry in ids:
        flat.extend(part.strip().upper() for part in entry.split(",") if part.strip())
    return tuple(flat) or None

def rule_selected(
    rule_id: str,
    select: Optional[Sequence[str]],
    ignore: Optional[Sequence[str]],
) -> bool:
    """Prefix-matched filtering: ``DET`` selects the whole family.

    ``select`` keeps only matching ids (``None`` keeps all); ``ignore``
    then drops matching ids.  Ignore wins on overlap, mirroring every
    mainstream linter.  The parse-error pseudo-rule is never filtered
    out by ``select`` (an unparsable file is broken regardless of which
    families the caller asked for) but can be explicitly ignored.
    """
    rule_id = rule_id.upper()
    if ignore and any(rule_id.startswith(prefix) for prefix in ignore):
        return False
    if rule_id == PARSE_ERROR_ID:
        return True
    if select is None:
        return True
    return any(rule_id.startswith(prefix) for prefix in select)

def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Per-line suppression sets: line number → upper-cased ids.

    ``# repro-lint: disable=UNT001`` suppresses that id on its physical
    line; ``disable=UNT001,DET002`` lists several; ``disable=all``
    suppresses everything on the line.  The comment must sit on the
    *first* line of the flagged statement (where the finding points).
    """
    suppressions: Dict[int, Set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match:
            ids = {
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            }
            if ids:
                suppressions[number] = ids
    return suppressions

def _suppressed(finding: Finding, suppressions: Dict[int, Set[str]]) -> bool:
    ids = suppressions.get(finding.line)
    if not ids:
        return False
    return "ALL" in ids or finding.rule.upper() in ids


# ----------------------------------------------------------------------
# Project pre-pass
# ----------------------------------------------------------------------
def _has_frozen_decorator(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


# ----------------------------------------------------------------------
# Walking and running
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files and directories into the ``.py`` files to lint.

    Directories are walked recursively, skipping :data:`EXCLUDED_DIRS`
    and hidden directories; explicitly-named files are always yielded
    (that is how the fixture tests lint the deliberate violations under
    ``tests/lint_fixtures/``).  A file reached twice, under whatever
    spelling (``x.py`` and ``./x.py``, or a directory and a file in it),
    is yielded once, as first spelled: findings carry that path.
    """
    seen: Set[str] = set()

    def first_sighting(path: str) -> bool:
        key = os.path.abspath(path)
        if key in seen:
            return False
        seen.add(key)
        return True

    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d not in EXCLUDED_DIRS and not d.startswith(".")
                    and not d.endswith(".egg-info")
                )
                for filename in sorted(filenames):
                    full = os.path.join(dirpath, filename)
                    if filename.endswith(".py") and first_sighting(full):
                        yield full
        elif first_sighting(path):
            if not os.path.exists(path):
                raise FileNotFoundError(
                    f"cannot lint {path!r}: no such file or directory"
                )
            if not path.endswith(".py"):
                raise LintUsageError(
                    f"cannot lint {path!r}: not a Python file (directories "
                    "are walked for *.py files; explicitly-passed files "
                    "must end in .py)"
                )
            yield path

def default_rules() -> List[Rule]:
    from repro.lint.rules import ALL_RULES

    return list(ALL_RULES)

def rule_catalog() -> Dict[str, str]:
    """Every finding id the registered rules can emit, with descriptions."""
    catalog: Dict[str, str] = {
        PARSE_ERROR_ID: "file could not be parsed as Python"
    }
    for rule in default_rules():
        catalog.update(rule.catalog)
    return dict(sorted(catalog.items()))

def _lint_tree(ctx: FileContext, rules: Sequence[Rule]) -> Tuple[List[Finding], int]:
    """Run every rule on one file: (unfiltered findings, suppressed count).

    Suppressions are applied here (they are a per-file fact);
    ``--select``/``--ignore`` filtering happens in the caller.
    """
    suppressions = parse_suppressions(ctx.source)
    kept: List[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(ctx):
            if _suppressed(finding, suppressions):
                suppressed += 1
                continue
            kept.append(finding)
    return kept, suppressed

def _parse_error_finding(path: str, error: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=error.lineno or 1,
        col=(error.offset or 0) + 1,
        rule=PARSE_ERROR_ID,
        message=f"syntax error: {error.msg}",
    )

def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    project: Optional[ProjectContext] = None,
) -> List[Finding]:
    """Lint one source string (the unit-test entry point).

    Without a ``project``, a single-file project graph is assembled so
    the whole-program families (ARC/flow) see intra-file facts.
    """
    from repro.lint.graph import build_project_graph, extract_module_facts

    select = _normalise_ids(select)
    ignore = _normalise_ids(ignore)
    rules = list(rules) if rules is not None else default_rules()
    if project is None:
        project = ProjectContext()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        finding = _parse_error_finding(path, error)
        return [finding] if rule_selected(PARSE_ERROR_ID, select, ignore) else []
    facts = extract_module_facts(path, tree)
    project.frozen_classes |= set(facts.frozen_classes)
    if project.graph is None:
        project.graph = build_project_graph([facts])
    ctx = FileContext(path, source, tree, project)
    findings, _ = _lint_tree(ctx, rules)
    return sorted(
        f for f in findings if rule_selected(f.rule, select, ignore)
    )

def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint files/directories and return the filtered, sorted report."""
    from repro.lint.graph import ModuleFacts, build_project_graph, extract_module_facts

    select = _normalise_ids(select)
    ignore = _normalise_ids(ignore)
    rules = list(rules) if rules is not None else default_rules()

    # Pass 1: read, parse and extract facts for every file, once.
    checked: List[str] = []
    trees: List[Tuple[str, str, ast.AST]] = []
    all_facts: List[ModuleFacts] = []
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        checked.append(path)
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            raise FileNotFoundError(
                f"cannot lint {path!r}: {error.strerror or error}"
            ) from None
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            if rule_selected(PARSE_ERROR_ID, select, ignore):
                findings.append(_parse_error_finding(path, error))
            continue
        trees.append((path, source, tree))
        all_facts.append(extract_module_facts(path, tree))

    # Pass 2: assemble the whole-program graph — import graph, call
    # graph, determinism taint, layering.
    project = ProjectContext(
        frozen_classes={
            name for facts in all_facts for name in facts.frozen_classes
        },
        graph=build_project_graph(all_facts),
    )

    # Pass 3: every rule on each tree kept from pass 1.
    suppressed = 0
    for path, source, tree in trees:
        ctx = FileContext(path, source, tree, project)
        raw, file_suppressed = _lint_tree(ctx, rules)
        suppressed += file_suppressed
        findings.extend(f for f in raw if rule_selected(f.rule, select, ignore))
    return LintReport(
        findings=sorted(findings),
        files_checked=len(checked),
        suppressed=suppressed,
        paths=tuple(checked),
    )
