"""The protocol boundary between core and cluster.

Three contracts, each pinned independently:

* **Runtime conformance** — every concrete ``repro.cluster`` class is an
  ``isinstance`` of the ``repro.core.interfaces`` protocol it implements
  (all protocols are ``@runtime_checkable``), including a negative case
  so the checks cannot pass vacuously.
* **Static conformance** — mypy accepts the assignment module
  ``tests/typing_conformance.py`` (skipped when mypy is absent; the CI
  lint job always runs it).
* **True inversion** — ``import repro.core`` must succeed without
  pulling any ``repro.cluster`` module into ``sys.modules``: the
  controllers depend on protocols, the concrete objects arrive by
  injection at the composition roots.  A lint rule can be appeased by
  moving an import; this test can only pass if the dependency is gone.

The shared hardware cost models in :mod:`repro.core.hw` are pinned here
too.
"""

import os
import subprocess
import sys

import pytest

from repro.cluster import GPUCluster, InferenceInstance
from repro.cluster.frequency import FrequencyController
from repro.cluster.instance import RequestState
from repro.cluster.vm import VMProvisioner
from repro.core import hw
from repro.core.interfaces import (
    BootCostModel,
    ClusterLike,
    FrequencyPlanLike,
    InstanceLike,
    QueuedRequestLike,
)
from repro.llm import LLAMA2_70B
from repro.workload import Request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def make_request():
    return Request(
        arrival_time=0.0,
        input_tokens=128,
        output_tokens=16,
        service="conversation",
    )


# ======================================================================
# Runtime conformance (@runtime_checkable isinstance)
# ======================================================================
class TestRuntimeConformance:
    def test_gpu_cluster_is_cluster_like(self):
        cluster = GPUCluster(LLAMA2_70B, initial_servers=1, max_servers=4)
        assert isinstance(cluster, ClusterLike)

    def test_inference_instance_is_instance_like(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        assert isinstance(instance, InstanceLike)

    def test_frequency_controller_is_frequency_plan_like(self):
        assert isinstance(FrequencyController(), FrequencyPlanLike)

    def test_vm_provisioner_is_boot_cost_model(self):
        assert isinstance(VMProvisioner(proactive=True), BootCostModel)

    def test_request_state_is_queued_request_like(self):
        state = RequestState(request=make_request(), enqueue_time=0.0)
        assert isinstance(state, QueuedRequestLike)

    def test_conformance_is_not_vacuous(self):
        """A structurally unrelated object must fail the same checks."""
        stranger = object()
        assert not isinstance(stranger, InstanceLike)
        assert not isinstance(stranger, ClusterLike)
        # ... and partial overlap is not enough: the frequency plan is
        # not an instance, even though both protocols are satisfied by
        # members of the same concrete family.
        assert not isinstance(FrequencyController(), InstanceLike)

    def test_cluster_exposes_instance_likes(self):
        """The protocol surface composes: a cluster's instances satisfy
        InstanceLike and their frequency satisfies FrequencyPlanLike."""
        cluster = GPUCluster(LLAMA2_70B, initial_servers=1, max_servers=4)
        created = cluster.create_instance(tensor_parallelism=4)
        assert created is not None
        for instance in cluster.instances.values():
            assert isinstance(instance, InstanceLike)
            assert isinstance(instance.frequency, FrequencyPlanLike)
        assert isinstance(cluster.provisioner, BootCostModel)


# ======================================================================
# Static conformance (mypy over the assignment module)
# ======================================================================
class TestStaticConformance:
    def test_typing_conformance_module_passes_mypy(self):
        pytest.importorskip("mypy")
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "mypy",
                os.path.join("tests", "typing_conformance.py"),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr


# ======================================================================
# True inversion: importing core must not load cluster
# ======================================================================
class TestDependencyInversion:
    def test_import_core_leaves_cluster_out_of_sys_modules(self):
        """Run in a fresh interpreter: this test process has long since
        imported both packages."""
        program = (
            "import sys\n"
            "import repro.core\n"
            "loaded = sorted(\n"
            "    name for name in sys.modules\n"
            "    if name == 'repro.cluster' or name.startswith('repro.cluster.')\n"
            ")\n"
            "assert not loaded, loaded\n"
            "assert 'repro.core.interfaces' in sys.modules\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr

    def test_root_package_import_is_also_lazy(self):
        """`import repro` alone must not drag in any subpackage — the
        convenience re-exports resolve on first attribute access."""
        program = (
            "import sys\n"
            "import repro\n"
            "loaded = sorted(\n"
            "    name for name in sys.modules\n"
            "    if name.startswith('repro.')\n"
            ")\n"
            "assert not loaded, loaded\n"
            "cluster_cls = repro.GPUCluster\n"
            "assert 'repro.cluster' in sys.modules\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr


# ======================================================================
# Shared hardware cost models (repro.core.hw)
# ======================================================================
def test_hw_cost_models_are_pinned():
    assert hw.DEFAULT_SWITCH_OVERHEAD_S == 0.065
    assert hw.OPTIMIZED_SWITCH_OVERHEAD_S == 0.005
    assert hw.cold_boot_time_s() == sum(hw.COLD_BOOT_BREAKDOWN_S.values())
    assert hw.warm_boot_time_s() == sum(hw.WARM_BOOT_BREAKDOWN_S.values())
