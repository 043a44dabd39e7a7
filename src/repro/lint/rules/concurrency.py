"""Concurrency rules (``CNC``): executor-submitted callables stay pure.

The sweep executors (:mod:`repro.api.executor`,
:mod:`repro.api.campaign`) fan scenarios out over process pools and
stream results through a single :class:`~repro.api.sinks.ResultSink`
on the **consuming** side of ``as_completed``.  Three hazards this
family catches:

* mutable default arguments — shared across every call, including calls
  racing on a thread pool;
* ``pool.submit(lambda: ...)`` — the lambda closes over loop variables
  and shared mutable state by *reference*, so by the time the pool runs
  it, the captured values may have moved on;
* a function handed to ``submit`` that writes a result sink — sinks are
  single-writer by contract (one open file handle, `count` bookkeeping),
  so writes belong on the consuming side of ``as_completed``, never
  inside the submitted job.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.engine import FileContext, Finding, Rule

_MUTABLE_CALLS = frozenset({"list", "dict", "set"})
_SINK_WRITERS = frozenset({"write", "write_error"})


def _mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
        and not node.args
        and not node.keywords
    )


def _submitted_names(tree: ast.AST) -> Set[str]:
    """Names of functions passed (directly or via partial) to ``.submit``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            continue
        target = node.args[0]
        if (
            isinstance(target, ast.Call)
            and isinstance(target.func, ast.Name)
            and target.func.id == "partial"
            and target.args
        ):
            target = target.args[0]
        if isinstance(target, ast.Name):
            names.add(target.id)
    return names


class ConcurrencyRule(Rule):
    family = "concurrency"
    invariant = (
        "work fanned out to executor pools is pure: no shared mutable "
        "defaults, no by-reference captures, sinks written only by the "
        "as_completed consumer"
    )
    catalog = {
        "CNC001": (
            "mutable default argument ([]/{}/set()) is shared across "
            "calls — and across pool workers; default to None and build "
            "inside the function"
        ),
        "CNC002": (
            "lambda submitted to an executor pool captures enclosing "
            "state by reference; submit a named function with explicit "
            "arguments instead"
        ),
        "CNC003": (
            "callable submitted to an executor pool writes a result "
            "sink; sinks are single-writer — write from the consuming "
            "side of as_completed"
        ),
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "lint" in ctx.dir_parts:
            return
        submitted = _submitted_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                defaults: List[ast.AST] = list(args.defaults) + [
                    default for default in args.kw_defaults if default is not None
                ]
                for default in defaults:
                    if _mutable_default(default):
                        name = getattr(node, "name", "<lambda>")
                        yield ctx.finding(
                            default,
                            "CNC001",
                            f"mutable default argument in {name}(); the "
                            "object is created once and shared by every "
                            "call (and every pool worker)",
                        )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
                and isinstance(node.args[0], ast.Lambda)
            ):
                yield ctx.finding(
                    node.args[0],
                    "CNC002",
                    "lambda passed to .submit() closes over enclosing "
                    "variables by reference; pass a named function and "
                    "explicit arguments",
                )
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in submitted
            ):
                yield from self._sink_writes(ctx, node)

    def _sink_writes(
        self, ctx: FileContext, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SINK_WRITERS
            ):
                continue
            base = node.func.value
            if isinstance(base, ast.Name) and "sink" in base.id.lower():
                yield ctx.finding(
                    node,
                    "CNC003",
                    f"{func.name}() is submitted to an executor pool but "
                    f"writes `{base.id}.{node.func.attr}(...)`; result "
                    "sinks are single-writer — hand results back and "
                    "write them from the as_completed consumer",
                )


RULES = (ConcurrencyRule(),)
