"""Whole-program facts: import graph, call graph, taint, layering.

PR 6's rules were per-file: each rule saw one AST and nothing else.
This module is the *project* half of the analyzer.  For every linted
file it extracts a :class:`ModuleFacts` record (imports, function
signatures, resolved call sites, suffixed call-assignments, frozen
classes), then :func:`build_project_graph` assembles the records into
a :class:`ProjectGraph`:

* an **import graph** between project modules (``repro.*`` stripped to
  layer-package paths like ``sim.clock``), with per-edge source
  locations, top-level/deferred flags and the imported names — the
  substrate for the ``ARC`` architecture rules;
* a **call graph** between project functions, resolved through import
  aliases, ``from``-imports, relative imports and ``self.`` method
  calls — the substrate for the interprocedural ``DET005`` /
  ``UNT004`` rules;
* a **determinism taint table**: every function whose body calls a
  wall-clock or global-RNG sink (directly or transitively through
  other project functions) is tainted, with the chain retained so rule
  messages can show the full laundering path
  (``elapsed_s() -> _read_clock() -> time.time()``);
* the declared **layer order** of the architecture.

Facts extraction is deliberately conservative: only call targets that
resolve through explicit imports, local definitions or ``self.`` are
recorded.  Dynamic dispatch (``obj.method()`` on an arbitrary object,
callables passed as values) is out of scope — the graph under-reports
rather than guessing.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import _has_frozen_decorator, _relative_parts
from repro.lint.sinks import LEGACY_NP_RANDOM, WALL_CLOCK_CALLS

#: Declared architecture, lowest layer first.  A module may import
#: sideways (same layer) or downward; importing upward is ARC001.
#: ``perf`` (analytical energy/latency models) sits in the foundation
#: layer alongside the simulator kernel it feeds: it is imported by
#: ``core``, ``cluster`` and ``policies`` alike.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("foundation", ("sim", "llm", "core", "workload", "perf")),
    ("accounting", ("metrics", "policies", "cluster")),
    ("orchestration", ("api", "experiments")),
    ("tooling", ("lint",)),
)

#: package name -> layer index (0 = foundation).
LAYER_INDEX: Dict[str, int] = {
    package: index
    for index, (_, packages) in enumerate(LAYERS)
    for package in packages
}

#: layer index -> human-readable layer name.
LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)


# ----------------------------------------------------------------------
# Facts records
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ImportEdge:
    """One import statement (or one ``from``-import) in a module."""

    line: int
    col: int
    #: Normalized project module path (``cluster.cluster``) when
    #: ``is_project``; the external dotted module (``numpy``) otherwise.
    #: ``""`` means the bare ``repro`` root package.
    target: str
    is_project: bool
    #: True for module-body imports; function-level imports are deferred
    #: (they still count for layering, but cannot form import-time cycles).
    top_level: bool
    #: ``from``-imported names as ``(name, line, col)``.
    names: Tuple[Tuple[str, int, int], ...]


@dataclasses.dataclass(frozen=True)
class FunctionSig:
    """A function or method defined in a module."""

    #: Module-local qualified name: ``scale`` or ``Engine.step``.
    qualname: str
    #: Positional parameter names in binding order (``self``/``cls``
    #: excluded for methods).
    params: Tuple[str, ...]
    is_method: bool
    line: int


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call expression, with its best-effort resolved target."""

    line: int
    col: int
    #: Module-local qualname of the enclosing function (``None`` at
    #: module level).
    caller: Optional[str]
    #: ``"project"`` (resolved into the project namespace),
    #: ``"external"`` (resolved to a non-project dotted path) or
    #: ``"unknown"``.
    kind: str
    #: Project module the target lives in (``kind == "project"``); may
    #: need re-splitting against the known module set at assembly time.
    module: str = ""
    #: Member path inside the module: ``scale`` or ``Engine.step``.
    member: str = ""
    #: External dotted call target (``time.time``).
    dotted: str = ""
    #: Non-empty when the call is a determinism sink (``time.time()``).
    sink: str = ""
    #: Display names of positional arguments (``None`` for non-name
    #: expressions, which have unknown units).
    pos_args: Tuple[Optional[str], ...] = ()
    #: True when the call uses ``*args`` — positional binding unknown.
    has_star: bool = False


@dataclasses.dataclass(frozen=True)
class SuffixedAssign:
    """``target_kwh = helper_wh(...)`` — both names carry unit suffixes."""

    line: int
    col: int
    target: str
    func: str


@dataclasses.dataclass(frozen=True)
class ModuleFacts:
    """Everything the project graph needs to know about one file."""

    #: Dotted module path after the ``src``/``repro`` marker
    #: (``sim.clock``); files outside the package keep their full
    #: dotted path (``tests.test_api``).
    module: str
    #: First component of ``module`` (``sim``) — the layering unit.
    package: str
    #: The path exactly as the engine saw it (findings carry it).
    path: str
    is_package: bool
    imports: Tuple[ImportEdge, ...]
    functions: Tuple[FunctionSig, ...]
    calls: Tuple[CallSite, ...]
    suffixed_assigns: Tuple[SuffixedAssign, ...]
    frozen_classes: Tuple[str, ...]
    #: Module-local qualnames of every class defined in the module
    #: (``GPUFleet``, ``Outer.Inner``) — the construction targets ARC004
    #: resolves calls against.
    classes: Tuple[str, ...] = ()


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------
def module_name_for(path: str) -> Tuple[str, str, bool]:
    """``(module, package, is_package)`` for a file path.

    ``src/repro/sim/clock.py`` -> ``("sim.clock", "sim", False)``;
    ``src/repro/api/__init__.py`` -> ``("api", "api", True)``;
    ``tests/test_api.py`` -> ``("tests.test_api", "tests", False)``.
    Top-level modules of the package (``__main__.py``,
    ``quick_comparison.py``) get a single-component name and an empty
    package: they orchestrate across layers and are exempt from ARC.
    """
    parts = list(_relative_parts(path))
    if not parts:
        return "", "", False
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    is_package = leaf == "__init__"
    components = parts[:-1] if is_package else parts[:-1] + [leaf]
    if not components:
        return "", "", is_package
    module = ".".join(components)
    package = components[0] if len(components) > 1 or is_package else ""
    return module, package, is_package


def layer_of(package: str) -> Optional[int]:
    """Layer index of a package, ``None`` when the package is unlayered
    (tests, benchmarks, examples, top-level orchestrators)."""
    return LAYER_INDEX.get(package)


# ----------------------------------------------------------------------
# Sink classification (shared with the DET family)
# ----------------------------------------------------------------------
def sink_label(dotted: str, seeded: bool) -> str:
    """Non-empty display label when a resolved external call is a
    determinism sink (wall clock or process-global RNG).

    Mirrors DET001-003: seeded ``random.Random(seed)`` instances are
    fine; the module-level ``random.*`` functions, an unseeded
    ``Random()`` and numpy's legacy global-state functions are sinks.
    """
    if dotted in WALL_CLOCK_CALLS:
        return f"{dotted}()"
    if dotted == "random.Random":
        return "" if seeded else "random.Random()"
    if dotted.startswith("random.") or dotted == "random":
        return f"{dotted}()"
    if (
        dotted.startswith("numpy.random.")
        and dotted.rsplit(".", 1)[1] in LEGACY_NP_RANDOM
    ):
        return f"{dotted}()"
    return ""


# ----------------------------------------------------------------------
# Facts extraction
# ----------------------------------------------------------------------
def _normalize_project_target(dotted: str) -> Optional[str]:
    """``repro.sim.clock`` -> ``sim.clock``; non-project paths -> None."""
    if dotted == "repro":
        return ""
    if dotted.startswith("repro."):
        return dotted[len("repro.") :]
    return None


class _Env:
    """Name bindings visible in a module (imports flattened file-wide).

    Function-local imports are merged into the module environment —
    the same approximation PR 6's alias collector made.  A name maps to
    either a module (``("module", path, is_project)``) or an imported
    member (``("member", module_path, name, is_project)``).
    """

    def __init__(self) -> None:
        self.modules: Dict[str, Tuple[str, bool]] = {}
        self.members: Dict[str, Tuple[str, str, bool]] = {}

    def bind_module(self, local: str, path: str, is_project: bool) -> None:
        self.modules[local] = (path, is_project)

    def bind_member(
        self, local: str, module: str, name: str, is_project: bool
    ) -> None:
        self.members[local] = (module, name, is_project)


def _resolve_relative(package_path: str, level: int, module: Optional[str]) -> str:
    """Resolve ``from ..x import y`` against the importer's package."""
    base = package_path.split(".") if package_path else []
    # level=1 is the current package; each extra level pops one component.
    for _ in range(level - 1):
        if base:
            base.pop()
    if module:
        base.extend(module.split("."))
    return ".".join(base)


def extract_module_facts(path: str, tree: ast.AST) -> ModuleFacts:
    """Extract the project facts from one parsed file."""
    module, package, is_package = module_name_for(path)
    package_path = module if is_package else module.rpartition(".")[0]

    env = _Env()
    imports: List[ImportEdge] = []
    functions: List[FunctionSig] = []
    frozen: List[str] = []
    classes: List[str] = []

    # Pass A: imports, function/method signatures, frozen classes.
    # ``depth`` tracks nesting inside function/class bodies so import
    # edges know whether they execute at module import time.
    def collect(node: ast.AST, class_stack: Tuple[str, ...], top: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    project = _normalize_project_target(alias.name)
                    is_project = project is not None
                    target = project if project is not None else alias.name
                    if alias.asname:
                        env.bind_module(alias.asname, target, is_project)
                    else:
                        root = alias.name.split(".")[0]
                        root_project = _normalize_project_target(root)
                        env.bind_module(
                            root,
                            root_project if root_project is not None else root,
                            root_project is not None,
                        )
                    imports.append(
                        ImportEdge(
                            line=child.lineno,
                            col=child.col_offset + 1,
                            target=target,
                            is_project=is_project,
                            top_level=top,
                            names=(),
                        )
                    )
            elif isinstance(child, ast.ImportFrom):
                if child.level:
                    # Relative imports only exist inside the project
                    # (or a fixture mini-package): treat them as project
                    # edges resolved against the importer's package.
                    target: Optional[str] = _resolve_relative(
                        package_path, child.level, child.module
                    )
                    project_edge = True
                else:
                    target = child.module or ""
                    project = _normalize_project_target(target)
                    project_edge = project is not None
                    if project_edge:
                        target = project
                names = []
                for alias in child.names:
                    local = alias.asname or alias.name
                    if alias.name == "*":
                        continue
                    names.append((alias.name, child.lineno, child.col_offset + 1))
                    if project_edge and target == "":
                        # ``from repro import api`` binds a subpackage.
                        env.bind_module(local, alias.name, True)
                    else:
                        env.bind_member(
                            local, target or "", alias.name, project_edge
                        )
                imports.append(
                    ImportEdge(
                        line=child.lineno,
                        col=child.col_offset + 1,
                        target=target or "",
                        is_project=project_edge,
                        top_level=top,
                        names=tuple(names),
                    )
                )
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join((*class_stack, child.name))
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args)]
                is_method = bool(class_stack)
                if is_method and params and params[0] in ("self", "cls"):
                    params = params[1:]
                functions.append(
                    FunctionSig(
                        qualname=qual,
                        params=tuple(params),
                        is_method=is_method,
                        line=child.lineno,
                    )
                )
                collect(child, class_stack, top=False)
            elif isinstance(child, ast.ClassDef):
                if _has_frozen_decorator(child):
                    frozen.append(child.name)
                classes.append(".".join((*class_stack, child.name)))
                collect(child, (*class_stack, child.name), top=False)
            else:
                collect(
                    child,
                    class_stack,
                    top=top and _transparent(child) and not _type_checking_if(child),
                )

    collect(tree, (), top=True)

    local_functions = {f.qualname for f in functions}
    local_bare = {
        f.qualname for f in functions if "." not in f.qualname
    }

    calls: List[CallSite] = []
    assigns: List[SuffixedAssign] = []

    def resolve_call(
        func: ast.AST, class_stack: Tuple[str, ...]
    ) -> Optional[CallSite]:
        """Best-effort resolution of a call target (location added later)."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in local_bare:
                return CallSite(0, 0, None, "project", module=module, member=name)
            if name in env.members:
                target_module, member, is_project = env.members[name]
                if is_project:
                    return CallSite(
                        0, 0, None, "project", module=target_module, member=member
                    )
                dotted = f"{target_module}.{member}" if target_module else member
                return CallSite(0, 0, None, "external", dotted=dotted)
            return None
        if isinstance(func, ast.Attribute):
            chain: List[str] = []
            node: ast.AST = func
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            chain.reverse()
            if isinstance(node, ast.Name):
                base = node.id
                if base == "self" and len(chain) == 1 and class_stack:
                    method = ".".join((*class_stack, chain[0]))
                    if method in local_functions:
                        return CallSite(
                            0, 0, None, "project", module=module, member=method
                        )
                    return None
                if base in env.modules:
                    target_module, is_project = env.modules[base]
                    member = ".".join(chain)
                    if is_project:
                        return CallSite(
                            0,
                            0,
                            None,
                            "project",
                            module=target_module,
                            member=member,
                        )
                    dotted = (
                        f"{target_module}.{member}" if target_module else member
                    )
                    return CallSite(0, 0, None, "external", dotted=dotted)
                if base in env.members:
                    target_module, name, is_project = env.members[base]
                    member = ".".join((name, *chain))
                    if is_project:
                        return CallSite(
                            0,
                            0,
                            None,
                            "project",
                            module=target_module,
                            member=member,
                        )
                    dotted = (
                        f"{target_module}.{member}" if target_module else member
                    )
                    return CallSite(0, 0, None, "external", dotted=dotted)
            return None
        return None

    def display_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    # Pass B: call sites and suffixed call-assignments, attributed to
    # their enclosing function.
    def walk_calls(
        node: ast.AST, caller: Optional[str], class_stack: Tuple[str, ...]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join((*class_stack, child.name))
                walk_calls(child, qual, class_stack)
                continue
            if isinstance(child, ast.ClassDef):
                walk_calls(child, caller, (*class_stack, child.name))
                continue
            if isinstance(child, ast.Call):
                resolved = resolve_call(child.func, class_stack)
                seeded = bool(child.args or child.keywords)
                sink = ""
                if resolved is not None and resolved.kind == "external":
                    sink = sink_label(resolved.dotted, seeded)
                if resolved is not None:
                    calls.append(
                        dataclasses.replace(
                            resolved,
                            line=child.lineno,
                            col=child.col_offset + 1,
                            caller=caller,
                            sink=sink,
                            pos_args=tuple(
                                display_name(a)
                                for a in child.args
                                if not isinstance(a, ast.Starred)
                            ),
                            has_star=any(
                                isinstance(a, ast.Starred) for a in child.args
                            ),
                        )
                    )
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                value = child.value
                if isinstance(value, ast.Call):
                    func_name = display_name(value.func)
                    if func_name is not None:
                        targets = (
                            child.targets
                            if isinstance(child, ast.Assign)
                            else [child.target]
                        )
                        for target in targets:
                            target_name = display_name(target)
                            if target_name is not None:
                                assigns.append(
                                    SuffixedAssign(
                                        line=child.lineno,
                                        col=child.col_offset + 1,
                                        target=target_name,
                                        func=func_name,
                                    )
                                )
            walk_calls(child, caller, class_stack)

    walk_calls(tree, None, ())

    return ModuleFacts(
        module=module,
        package=package,
        path=path,
        is_package=is_package,
        imports=tuple(imports),
        functions=tuple(functions),
        calls=tuple(calls),
        suffixed_assigns=tuple(assigns),
        frozen_classes=tuple(sorted(frozen)),
        classes=tuple(sorted(classes)),
    )


def _transparent(node: ast.AST) -> bool:
    """Child statements of these nodes still run at module import time."""
    return isinstance(node, (ast.If, ast.Try, ast.With))


def _type_checking_if(node: ast.AST) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` — imports in
    the body are type-only and never execute, so they are deferred for
    cycle purposes (they still count as layering edges)."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


# ----------------------------------------------------------------------
# Graph assembly
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class TaintInfo:
    """How a function reaches a determinism sink."""

    #: Display label of the sink (``time.time()``).
    sink: str
    #: Global qualname of the next function toward the sink (``None``
    #: when this function calls the sink directly).
    via: Optional[str]


class ProjectGraph:
    """Assembled whole-program view over a set of :class:`ModuleFacts`."""

    def __init__(self, facts: Sequence[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {}
        self.by_path: Dict[str, ModuleFacts] = {}
        for record in facts:
            self.by_path[record.path] = record
            # First definition wins on (pathological) module-name clashes.
            self.modules.setdefault(record.module, record)
        #: per-module lookup: member path -> module-local qualname.
        #: ``scale`` and ``Engine.step`` are both valid member keys.
        self._names: Dict[str, Dict[str, str]] = {}
        for name, record in self.modules.items():
            self._names[name] = {
                sig.qualname: sig.qualname for sig in record.functions
            }
        self._signatures: Dict[str, FunctionSig] = {}
        for name, record in self.modules.items():
            for sig in record.functions:
                self._signatures[f"{name}:{sig.qualname}"] = sig
        #: per-module class-qualname sets — ARC004's construction targets.
        self._classes: Dict[str, Set[str]] = {
            name: set(record.classes) for name, record in self.modules.items()
        }
        self.tainted: Dict[str, TaintInfo] = {}
        self.cycles: Dict[str, Tuple[str, ...]] = {}
        self._propagate_taint()
        self._find_cycles()

    # -- resolution ----------------------------------------------------
    @staticmethod
    def _candidates(call: CallSite) -> List[Tuple[str, str]]:
        """Every ``(module, member)`` split of a project call target.

        The recorded split comes first; then each dot of the member
        moves into the module, so a module-attribute call recorded as
        ``cluster`` + ``accounting.GPUFleet`` also tries
        ``cluster.accounting`` + ``GPUFleet``.
        """
        if call.kind != "project":
            return []
        candidates: List[Tuple[str, str]] = [(call.module, call.member)]
        parts = call.member.split(".")
        for cut in range(1, len(parts)):
            prefix = ".".join(parts[:cut])
            module = f"{call.module}.{prefix}" if call.module else prefix
            candidates.append((module, ".".join(parts[cut:])))
        return candidates

    def resolve(self, call: CallSite) -> Optional[str]:
        """Global qualname (``module:member``) of a project call target."""
        for module, member in self._candidates(call):
            qual = self._names.get(module, {}).get(member) if member else None
            if qual is not None:
                return f"{module}:{qual}"
        return None

    def resolve_class(self, call: CallSite) -> Optional[Tuple[str, str]]:
        """``(module, class_qualname)`` when a project call constructs a
        class defined in the project, ``None`` otherwise."""
        for module, member in self._candidates(call):
            if member and member in self._classes.get(module, ()):
                return module, member
        return None

    def signature(self, qualname: str) -> Optional[FunctionSig]:
        return self._signatures.get(qualname)

    def layer_of_module(self, module: str) -> Optional[int]:
        return layer_of(module.split(".")[0]) if module else None

    # -- taint ---------------------------------------------------------
    def _propagate_taint(self) -> None:
        edges: List[Tuple[str, str]] = []
        for record in self.modules.values():
            for call in record.calls:
                if call.caller is None:
                    continue
                caller = f"{record.module}:{call.caller}"
                if call.sink:
                    self.tainted.setdefault(
                        caller, TaintInfo(sink=call.sink, via=None)
                    )
                    continue
                callee = self.resolve(call)
                if callee is not None:
                    edges.append((caller, callee))
        reverse: Dict[str, List[str]] = {}
        for caller, callee in edges:
            reverse.setdefault(callee, []).append(caller)
        queue = sorted(self.tainted)
        while queue:
            current = queue.pop(0)
            for caller in sorted(reverse.get(current, ())):
                if caller not in self.tainted:
                    self.tainted[caller] = TaintInfo(
                        sink=self.tainted[current].sink, via=current
                    )
                    queue.append(caller)

    def taint_chain(self, qualname: str, limit: int = 12) -> Tuple[str, ...]:
        """Display chain from ``qualname`` down to its sink label."""
        chain: List[str] = []
        current: Optional[str] = qualname
        seen: Set[str] = set()
        while current is not None and current not in seen and len(chain) < limit:
            seen.add(current)
            chain.append(f"{current.replace(':', '.')}()")
            info = self.tainted.get(current)
            if info is None:
                break
            if info.via is None:
                chain.append(info.sink)
                return tuple(chain)
            current = info.via
        chain.append("...")
        return tuple(chain)

    # -- cycles --------------------------------------------------------
    def _find_cycles(self) -> None:
        adjacency: Dict[str, List[str]] = {}
        for name, record in self.modules.items():
            targets: List[str] = []
            for edge in record.imports:
                if (
                    edge.is_project
                    and edge.top_level
                    and edge.target in self.modules
                    and edge.target != name
                ):
                    targets.append(edge.target)
            adjacency[name] = sorted(set(targets))
        for component in _strongly_connected(adjacency):
            if len(component) < 2:
                continue
            members = tuple(sorted(component))
            for member in members:
                self.cycles[member] = members


def _strongly_connected(adjacency: Dict[str, List[str]]) -> List[Set[str]]:
    """Iterative Tarjan SCC over a small module graph."""
    index_counter = 0
    indices: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[Set[str]] = []

    for root in sorted(adjacency):
        if root in indices:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if node not in indices:
                indices[node] = lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = adjacency.get(node, [])
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in indices:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], indices[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == indices[node]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def build_project_graph(facts: Sequence[ModuleFacts]) -> ProjectGraph:
    """Assemble the whole-program graph for one lint run."""
    return ProjectGraph(facts)
