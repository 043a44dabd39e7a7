"""Whole-program flow rules: taint and unit flow across call boundaries.

PR 6's per-file rules stop at the function call: ``elapsed_s()`` looks
innocent at its call site even when its body (or its callee's body,
three wrappers down) reads ``time.time()``; a ``_kw`` value passed
positionally into a ``_wh`` parameter is invisible without the callee's
signature.  These rules consume the project graph
(:mod:`repro.lint.graph`) to see through the boundary:

* ``DET005`` — transitive determinism taint.  A call site in layered
  simulation code whose (transitively resolved) target reaches a
  wall-clock or global-RNG sink is flagged, with the full laundering
  path in the message: ``sim.engine.step() -> sim.helpers.elapsed_s()
  -> time.time()``.  Suppressing the sink line silences DET001 but
  does *not* clean the taint — a suppression is a local waiver, not a
  determinism proof.
* ``UNT004`` — interprocedural argument flow: a suffixed name passed
  *positionally* binds to a parameter whose suffix names a different
  unit (keyword arguments are already covered per-file by UNT002).
* ``UNT005`` — return-suffix flow: assignment from a function whose
  name carries a unit suffix to a target with a conflicting suffix
  (``total_kwh = step_energy_wh(...)``).  Conversion helpers named
  ``<a>_to_<b>`` carry the *result* suffix, so
  ``total_kwh = wh_to_kwh(x)`` passes naturally.

DET005 reports only call sites in layered, non-exempt modules (the
same exemption set as DET001-004): test harnesses and benchmarks may
time whatever they like.  The UNT rules skip the linter's own sources,
matching UNT001-003.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.engine import FileContext, Finding, Rule
from repro.lint.rules.determinism import _exempt
from repro.lint.rules.units import _mix_message, suffix_of


class FlowDeterminismRule(Rule):
    family = "flow-determinism"
    invariant = (
        "no function reachable from layered simulation code transitively "
        "calls a wall-clock or global-RNG sink, however many wrappers "
        "deep"
    )
    catalog = {
        "DET005": (
            "call target transitively reaches a wall-clock/global-RNG "
            "sink through the project call graph (taint path shown)"
        ),
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        facts = ctx.module_facts
        graph = ctx.project.graph
        if facts is None or graph is None:
            return
        if graph.layer_of_module(facts.module) is None or _exempt(ctx):
            return
        for call in facts.calls:
            if call.kind != "project":
                continue
            target = graph.resolve(call)
            if target is None or target not in graph.tainted:
                continue
            chain = " -> ".join(graph.taint_chain(target))
            display = call.member.rsplit(".", 1)[-1]
            yield Finding(
                path=ctx.path,
                line=call.line,
                col=call.col,
                rule="DET005",
                message=(
                    f"call to {display}() transitively reaches a "
                    f"wall-clock/global-RNG sink: {chain}; thread "
                    "simulated time / a seeded rng stream through the "
                    "call instead"
                ),
            )


class FlowUnitsRule(Rule):
    family = "flow-units"
    invariant = (
        "unit suffixes agree across call boundaries: positional "
        "arguments match parameter suffixes and assigned results match "
        "the called function's declared suffix"
    )
    catalog = {
        "UNT004": (
            "suffixed positional argument binds to a parameter with a "
            "conflicting unit suffix in the callee's signature"
        ),
        "UNT005": (
            "assignment target's unit suffix conflicts with the called "
            "function's name suffix"
        ),
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "lint" in ctx.dir_parts:
            return
        facts = ctx.module_facts
        graph = ctx.project.graph
        if facts is None or graph is None:
            return

        for call in facts.calls:
            if call.kind != "project" or call.has_star or not call.pos_args:
                continue
            target = graph.resolve(call)
            if target is None:
                continue
            sig = graph.signature(target)
            if sig is None:
                continue
            display = call.member.rsplit(".", 1)[-1]
            for index, arg_name in enumerate(call.pos_args):
                if arg_name is None or index >= len(sig.params):
                    continue
                arg_suffix = suffix_of(arg_name)
                param = sig.params[index]
                param_suffix = suffix_of(param)
                if arg_suffix and param_suffix and arg_suffix != param_suffix:
                    yield Finding(
                        path=ctx.path,
                        line=call.line,
                        col=call.col,
                        rule="UNT004",
                        message=_mix_message(
                            param_suffix,
                            arg_suffix,
                            f"call to {display}() binds {arg_name!r} to "
                            f"parameter {param!r};",
                        ),
                    )

        for assign in facts.suffixed_assigns:
            target_suffix = suffix_of(assign.target)
            func_suffix = suffix_of(assign.func)
            if target_suffix and func_suffix and target_suffix != func_suffix:
                yield Finding(
                    path=ctx.path,
                    line=assign.line,
                    col=assign.col,
                    rule="UNT005",
                    message=_mix_message(
                        target_suffix,
                        func_suffix,
                        f"assignment of {assign.func}()'s result to "
                        f"{assign.target!r}",
                    ),
                )


RULES = (FlowDeterminismRule(), FlowUnitsRule())
