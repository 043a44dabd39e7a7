"""Tests for the whole-program layer: facts extraction, graph assembly,
taint propagation and cycle detection."""

import ast
import os

import pytest

from repro.lint.graph import (
    LAYER_INDEX,
    ImportEdge,
    build_project_graph,
    extract_module_facts,
    layer_of,
    module_name_for,
)


def facts_for(path, source):
    return extract_module_facts(path, ast.parse(source))


def graph_for(*named_sources):
    return build_project_graph(
        [facts_for(path, source) for path, source in named_sources]
    )


# ======================================================================
# Module naming and layers
# ======================================================================
class TestModuleNaming:
    @pytest.mark.parametrize(
        "path, module, package, is_package",
        [
            ("src/repro/sim/clock.py", "sim.clock", "sim", False),
            ("src/repro/api/__init__.py", "api", "api", True),
            ("src/repro/cluster/power_model.py", "cluster.power_model", "cluster", False),
            ("repro/metrics/energy.py", "metrics.energy", "metrics", False),
            ("src/repro/__main__.py", "__main__", "", False),
            ("src/repro/quick_comparison.py", "quick_comparison", "", False),
            ("src/repro/__init__.py", "", "", True),
            ("tests/test_api.py", "tests.test_api", "tests", False),
        ],
    )
    def test_module_name_for(self, path, module, package, is_package):
        assert module_name_for(path) == (module, package, is_package)

    def test_layer_order_is_the_declared_architecture(self):
        assert layer_of("sim") == layer_of("llm") == layer_of("core") == 0
        assert layer_of("workload") == layer_of("perf") == 0
        assert layer_of("metrics") == layer_of("policies") == layer_of("cluster") == 1
        assert layer_of("api") == layer_of("experiments") == 2
        assert layer_of("lint") == 3
        assert layer_of("tests") is None
        assert layer_of("") is None

    def test_every_layered_package_exists_in_src(self):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
            "repro",
        )
        for package in LAYER_INDEX:
            assert os.path.isdir(os.path.join(src, package)), package


# ======================================================================
# Facts extraction
# ======================================================================
class TestFactsExtraction:
    def test_import_edges_record_project_targets(self):
        facts = facts_for(
            "repro/api/x.py",
            "import repro.sim.clock\nfrom repro.metrics.energy import joules\n",
        )
        targets = [(e.target, e.is_project) for e in facts.imports]
        assert targets == [("sim.clock", True), ("metrics.energy", True)]

    def test_external_imports_not_project_edges(self):
        facts = facts_for("repro/api/x.py", "import numpy\nfrom json import dumps\n")
        assert [(e.target, e.is_project) for e in facts.imports] == [
            ("numpy", False),
            ("json", False),
        ]

    def test_relative_import_resolved_against_package(self):
        facts = facts_for(
            "repro/cluster/instance.py", "from .power_model import draw\n"
        )
        (edge,) = facts.imports
        assert edge.target == "cluster.power_model"
        assert edge.is_project

    def test_function_level_import_is_not_top_level(self):
        facts = facts_for(
            "repro/api/x.py",
            "def f():\n    from repro.sim.clock import Clock\n    return Clock\n",
        )
        (edge,) = facts.imports
        assert not edge.top_level

    def test_signatures_strip_self(self):
        facts = facts_for(
            "repro/api/x.py",
            "class Meter:\n    def add(self, step_wh):\n        return step_wh\n",
        )
        (sig,) = facts.functions
        assert sig.qualname == "Meter.add"
        assert sig.params == ("step_wh",)
        assert sig.is_method

    def test_sink_calls_labelled(self):
        facts = facts_for(
            "repro/sim/x.py",
            "import time\ndef f():\n    return time.time()\n",
        )
        (call,) = facts.calls
        assert call.sink == "time.time()"
        assert call.caller == "f"

    def test_class_definitions_recorded(self):
        facts = facts_for(
            "repro/cluster/x.py",
            "class Fleet:\n"
            "    class Inner:\n"
            "        pass\n"
            "def f():\n"
            "    class Local:\n"
            "        pass\n"
            "    return Local\n",
        )
        assert facts.classes == ("Fleet", "Fleet.Inner", "Local")


# ======================================================================
# Call resolution and taint
# ======================================================================
class TestTaint:
    def test_local_wrapper_chain(self):
        graph = graph_for(
            (
                "repro/sim/x.py",
                "import time\n"
                "def sink_fn():\n"
                "    return time.time()\n"
                "def wrap1():\n"
                "    return sink_fn()\n"
                "def wrap2():\n"
                "    return wrap1()\n",
            )
        )
        assert set(graph.tainted) == {"sim.x:sink_fn", "sim.x:wrap1", "sim.x:wrap2"}
        assert graph.taint_chain("sim.x:wrap2") == (
            "sim.x.wrap2()",
            "sim.x.wrap1()",
            "sim.x.sink_fn()",
            "time.time()",
        )

    def test_cross_module_taint_via_from_import(self):
        graph = graph_for(
            (
                "repro/sim/helpers.py",
                "import time\ndef elapsed_s():\n    return time.time()\n",
            ),
            (
                "repro/sim/engine.py",
                "from repro.sim.helpers import elapsed_s\n"
                "def step():\n    return elapsed_s()\n",
            ),
        )
        assert "sim.engine:step" in graph.tainted

    def test_cross_module_taint_via_module_import(self):
        graph = graph_for(
            (
                "repro/sim/helpers.py",
                "import time\ndef elapsed_s():\n    return time.time()\n",
            ),
            (
                "repro/sim/engine.py",
                "import repro.sim.helpers\n"
                "def step():\n    return repro.sim.helpers.elapsed_s()\n",
            ),
        )
        assert "sim.engine:step" in graph.tainted

    def test_self_method_call_taints(self):
        graph = graph_for(
            (
                "repro/sim/x.py",
                "import time\n"
                "class Engine:\n"
                "    def _now(self):\n"
                "        return time.time()\n"
                "    def step(self):\n"
                "        return self._now()\n",
            )
        )
        assert "sim.x:Engine.step" in graph.tainted

    def test_dynamic_dispatch_not_guessed(self):
        graph = graph_for(
            (
                "repro/sim/x.py",
                "import time\n"
                "def sink_fn():\n"
                "    return time.time()\n"
                "def call(fn):\n"
                "    return fn()\n",
            )
        )
        assert "sim.x:call" not in graph.tainted

    def test_module_level_sink_does_not_taint_functions(self):
        graph = graph_for(
            ("repro/sim/x.py", "import time\nSTARTED = time.time()\n")
        )
        assert graph.tainted == {}

    def test_seeded_random_instance_is_not_a_sink(self):
        graph = graph_for(
            (
                "repro/workload/x.py",
                "import random\ndef make(seed):\n    return random.Random(seed)\n",
            )
        )
        assert graph.tainted == {}


# ======================================================================
# Cycles
# ======================================================================
class TestCycles:
    def test_two_module_cycle_detected(self):
        graph = graph_for(
            ("repro/policies/a.py", "from repro.policies.b import g\n"),
            ("repro/policies/b.py", "from repro.policies.a import f\n"),
        )
        assert graph.cycles["policies.a"] == ("policies.a", "policies.b")
        assert graph.cycles["policies.b"] == ("policies.a", "policies.b")

    def test_three_module_cycle_detected(self):
        graph = graph_for(
            ("repro/policies/a.py", "import repro.policies.b\n"),
            ("repro/policies/b.py", "import repro.policies.c\n"),
            ("repro/policies/c.py", "import repro.policies.a\n"),
        )
        assert set(graph.cycles) == {"policies.a", "policies.b", "policies.c"}

    def test_deferred_edge_breaks_cycle(self):
        graph = graph_for(
            (
                "repro/policies/a.py",
                "def f():\n    from repro.policies.b import g\n    return g\n",
            ),
            ("repro/policies/b.py", "from repro.policies.a import f\n"),
        )
        assert graph.cycles == {}

    def test_acyclic_chain_has_no_cycles(self):
        graph = graph_for(
            ("repro/api/a.py", "import repro.metrics.b\n"),
            ("repro/metrics/b.py", "import repro.sim.c\n"),
            ("repro/sim/c.py", "x = 1\n"),
        )
        assert graph.cycles == {}


# ======================================================================
# ImportEdge construction detail used by ARC003
# ======================================================================
class TestPrivateImportFacts:
    def test_from_import_names_carry_locations(self):
        facts = facts_for(
            "repro/api/x.py",
            "from repro.cluster.power_model import _budget, public\n",
        )
        (edge,) = facts.imports
        assert isinstance(edge, ImportEdge)
        assert [name for name, _, _ in edge.names] == ["_budget", "public"]
