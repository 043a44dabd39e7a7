"""Tests for the DynamoLLM core: resharding, overheads, optimizer, controllers."""

import pytest

from repro.cluster.cluster import GPUCluster
from repro.core.cluster_manager import ClusterManager
from repro.core.framework import ControllerEpochs, ControllerKnobs, DynamoLLM
from repro.core.instance_manager import InstanceManager
from repro.core.optimizer import minimal_gpu_budget, plan_global, plan_sharding
from repro.core.overheads import OverheadModel
from repro.core.pool_manager import PoolManager
from repro.core.pools import PoolState, build_pool_states
from repro.core.resharding import (
    CANONICAL_LAYOUTS,
    ShardLayout,
    overhead_matrix,
    plan_reshard,
    requires_downtime,
    reshard_time_units,
    shard_transfer_unit_s,
)
from repro.llm.catalog import LLAMA2_13B, LLAMA2_70B
from repro.workload.classification import DEFAULT_SCHEME
from repro.workload.load_predictor import TemplateLoadPredictor
from repro.workload.predictor import OutputLengthPredictor
from repro.workload.request import Request


class TestShardLayout:
    def test_layout_names(self):
        assert ShardLayout((8,)).name == "TP8"
        assert ShardLayout((2, 2, 2, 2)).name == "4TP2"
        assert ShardLayout((2, 4)).name.count("TP") == 2

    def test_layout_rejects_too_many_gpus(self):
        with pytest.raises(ValueError):
            ShardLayout((8, 2))

    def test_layout_rejects_bad_tp(self):
        with pytest.raises(ValueError):
            ShardLayout((3,))

    def test_gpu_shards_cover_model(self):
        shards = ShardLayout((4,)).gpu_shards()
        covered = set()
        for shard_set in shards:
            covered |= shard_set
        assert covered == set(range(8))

    def test_tp8_gpu_holds_one_shard_each(self):
        shards = ShardLayout((8,)).gpu_shards()
        assert all(len(s) == 1 for s in shards)


class TestReshardPlanner:
    """The planner must reproduce the paper's Table VI overheads."""

    @pytest.mark.parametrize(
        "source,destination,expected_units",
        [
            ("TP4", "TP8", 1),
            ("TP2", "TP8", 1),
            ("TP2", "TP4", 2),
            ("TP2", "4TP2", 4),
            ("TP4", "TP2", 2),
            ("TP8", "TP4", 1),
            ("TP8", "TP2", 1),
            ("2TP4", "TP8", 0),
            ("TP4", "2TP4", 2),
            ("TP8", "TP8", 0),
            ("TP2", "TP2", 0),
            ("4TP2", "TP8", 0),
            ("4TP2", "TP4", 0),
        ],
    )
    def test_table6_entries(self, source, destination, expected_units):
        units = reshard_time_units(CANONICAL_LAYOUTS[source], CANONICAL_LAYOUTS[destination])
        assert units == expected_units

    def test_matrix_diagonal_is_zero(self):
        matrix = overhead_matrix()
        for name in matrix:
            assert matrix[name][name] == 0

    def test_plan_transfers_only_missing_shards(self):
        plan = plan_reshard(CANONICAL_LAYOUTS["TP4"], CANONICAL_LAYOUTS["TP8"])
        assert plan.shards_moved == 4
        assert plan.time_units == 1
        # Every transfer sources a shard the destination did not hold.
        sources = CANONICAL_LAYOUTS["TP4"].gpu_shards()
        for src, dst, shards in plan.transfers:
            assert shards <= sources[src]

    def test_transfer_time_uses_nvlink_unit(self):
        plan = plan_reshard(CANONICAL_LAYOUTS["TP4"], CANONICAL_LAYOUTS["TP8"])
        unit = shard_transfer_unit_s(LLAMA2_70B)
        assert plan.transfer_time_s(LLAMA2_70B) == pytest.approx(unit)
        # 70B over 300 GB/s: one eighth (17.5 GB) takes ~58 ms.
        assert 0.03 < unit < 0.1

    def test_bytes_moved(self):
        plan = plan_reshard(CANONICAL_LAYOUTS["TP2"], CANONICAL_LAYOUTS["TP4"])
        assert plan.bytes_moved(LLAMA2_70B) == pytest.approx(
            plan.shards_moved * LLAMA2_70B.weight_bytes / 8
        )

    def test_downtime_required_for_70b_shrink_to_tp2(self):
        assert requires_downtime(4, 2, LLAMA2_70B)

    def test_no_downtime_for_growth(self):
        assert not requires_downtime(4, 8, LLAMA2_70B)
        assert not requires_downtime(2, 8, LLAMA2_70B)

    def test_no_downtime_for_small_model(self):
        assert not requires_downtime(4, 2, LLAMA2_13B)

    def test_no_downtime_for_tp8_to_tp4_70b(self):
        assert not requires_downtime(8, 4, LLAMA2_70B)


class TestOverheadModel:
    def test_scale_out_time_depends_on_optimization(self):
        optimized = OverheadModel(LLAMA2_70B, optimized_scale_out=True)
        naive = OverheadModel(LLAMA2_70B, optimized_scale_out=False)
        assert optimized.scale_out_time_s() < naive.scale_out_time_s()

    def test_reshard_total_includes_sync(self):
        overheads = OverheadModel(LLAMA2_70B)
        assert overheads.reshard_total_time_s(4, 8) > overheads.reshard_transfer_time_s(4, 8)

    def test_reshard_energy_positive(self):
        overheads = OverheadModel(LLAMA2_70B)
        assert overheads.reshard_energy_wh(4, 8) > 0.0

    def test_worth_it_requires_positive_saving(self):
        overheads = OverheadModel(LLAMA2_70B)
        assert not overheads.reshard_is_worth_it(4, 8, power_saving_watts=-10.0, horizon_s=300.0)

    def test_worth_it_for_large_saving(self):
        overheads = OverheadModel(LLAMA2_70B)
        assert overheads.reshard_is_worth_it(4, 8, power_saving_watts=2000.0, horizon_s=300.0)

    def test_not_worth_it_for_tiny_saving_short_horizon(self):
        overheads = OverheadModel(LLAMA2_70B)
        assert not overheads.reshard_is_worth_it(4, 8, power_saving_watts=1.0, horizon_s=5.0)

    def test_as_table_keys(self):
        table = OverheadModel(LLAMA2_70B).as_table()
        assert {"scale_out_s", "engine_sync_s", "frequency_switch_s", "shard_unit_T_s"} <= set(table)


class TestOptimizer:
    def test_plan_sharding_feasible_for_moderate_load(self, profile):
        plan = plan_sharding(profile, "MM", total_gpus=16, load_tps=3000.0)
        assert plan.feasible
        assert plan.total_gpus <= 16
        assert plan.total_load == pytest.approx(3000.0)

    def test_plan_sharding_infeasible_without_gpus(self, profile):
        assert not plan_sharding(profile, "MM", total_gpus=0, load_tps=100.0).feasible

    def test_plan_sharding_prefers_small_tp_at_low_load(self, profile):
        plan = plan_sharding(profile, "SS", total_gpus=8, load_tps=300.0)
        assert plan.feasible
        assert plan.allocations[0].tensor_parallelism == 2

    def test_plan_sharding_uses_more_gpus_at_high_load(self, profile):
        low = plan_sharding(profile, "MM", total_gpus=32, load_tps=1000.0)
        high = plan_sharding(profile, "MM", total_gpus=32, load_tps=12000.0)
        assert high.total_gpus > low.total_gpus

    def test_plan_sharding_fixed_frequency(self, profile):
        plan = plan_sharding(profile, "MM", total_gpus=8, load_tps=1000.0, frequency_mhz=1980)
        assert plan.feasible
        assert all(a.frequency_mhz == 1980 for a in plan.allocations)

    def test_instance_configs_flatten(self, profile):
        plan = plan_sharding(profile, "MM", total_gpus=16, load_tps=6000.0)
        configs = plan.instance_configs()
        assert len(configs) == plan.total_instances

    def test_plan_global_at_least_as_good_as_heuristic(self, profile):
        heuristic = plan_sharding(profile, "MM", total_gpus=16, load_tps=4000.0, frequency_mhz=1980)
        optimal = plan_global(profile, "MM", total_gpus=16, load_tps=4000.0)
        assert optimal.feasible
        assert optimal.expected_power_watts <= heuristic.expected_power_watts + 1e-6

    def test_plan_global_respects_gpu_budget(self, profile):
        plan = plan_global(profile, "SS", total_gpus=8, load_tps=2000.0)
        assert plan.feasible
        assert plan.total_gpus <= 8

    def test_minimal_gpu_budget_zero_for_no_load(self, profile):
        assert minimal_gpu_budget(profile, "MM", 0.0, max_gpus=64) == 0

    def test_minimal_gpu_budget_grows_with_load(self, profile):
        small = minimal_gpu_budget(profile, "MM", 500.0, max_gpus=64)
        large = minimal_gpu_budget(profile, "MM", 15000.0, max_gpus=64)
        assert 0 < small < large <= 64


class TestPoolStates:
    def test_build_pool_states_covers_scheme(self):
        pools = build_pool_states(DEFAULT_SCHEME)
        assert len(pools) == 9
        assert pools["LL"].governing_type == "LL"

    def test_load_window_tracks_arrivals(self):
        pool = PoolState(name="MM", member_types=("MM",), governing_type="MM")
        pool.observe_arrival(600)
        pool.roll_window(1.0, smoothing_s=1.0)
        assert pool.load_ema_tps == pytest.approx(600.0)
        assert pool.epoch_peak_tps >= 600.0

    def test_reset_epoch_peak(self):
        pool = PoolState(name="MM", member_types=("MM",), governing_type="MM")
        pool.observe_arrival(1200)
        pool.roll_window(1.0, smoothing_s=1.0)
        pool.observe_arrival(0)
        pool.roll_window(1.0, smoothing_s=1.0)
        pool.reset_epoch_peak()
        assert pool.epoch_peak_tps == pytest.approx(pool.load_ema_tps)


def _make_stack(profile, knobs=None, static_servers=4, max_servers=12):
    """Build a small cluster + DynamoLLM controller for controller tests."""
    cluster = GPUCluster(LLAMA2_70B, initial_servers=0, max_servers=max_servers)
    controller = DynamoLLM(
        model=LLAMA2_70B,
        cluster=cluster,
        profile=profile,
        knobs=knobs or ControllerKnobs(),
        epochs=ControllerEpochs(scale_epoch_s=60.0, shard_epoch_s=30.0, frequency_epoch_s=5.0),
        static_servers=static_servers,
        expected_load_fractions={"MM": 0.6, "LL": 0.4},
    )
    return cluster, controller


class TestClusterManager:
    def test_routing_uses_predicted_type(self, profile):
        cluster, controller = _make_stack(profile)
        manager = controller.cluster_manager
        request = Request(arrival_time=0.0, input_tokens=600, output_tokens=200)
        pool = manager.pool_for(request)
        assert pool == "MM"

    def test_overloaded_pool_spills_to_larger(self, profile):
        cluster, controller = _make_stack(profile)
        manager = controller.cluster_manager
        request = Request(arrival_time=0.0, input_tokens=600, output_tokens=200)
        pool = manager.pool_for(request, overloaded={"MM": True})
        assert pool != "MM"

    def test_scale_epoch_provisions_for_load(self, profile):
        cluster, controller = _make_stack(profile)
        manager = controller.cluster_manager
        manager.seed_history(0.0, {"MM": 8000.0})
        budgets = manager.scale_epoch(0.0)
        assert budgets["MM"] >= 1
        assert cluster.online_server_count + cluster.provisioner.pending_count() >= 1

    def test_scale_epoch_consolidates_trickle_pools(self, profile):
        cluster, controller = _make_stack(profile)
        manager = controller.cluster_manager
        manager.seed_history(0.0, {"SS": 20.0, "LL": 6000.0})
        manager.scale_epoch(0.0)
        assert manager.pools["SS"].spilled
        assert manager.pools["SS"].gpu_budget == 0

    def test_static_budgets_preserved_without_scaling(self, profile):
        knobs = ControllerKnobs(scale_instances=False, scale_sharding=False, scale_frequency=False)
        cluster, controller = _make_stack(profile, knobs=knobs)
        manager = controller.cluster_manager
        before = {name: pool.server_budget for name, pool in manager.pools.items()}
        manager.scale_epoch(0.0)
        after = {name: pool.server_budget for name, pool in manager.pools.items()}
        assert before == after

    def test_node_capacity_positive(self, profile):
        cluster, controller = _make_stack(profile)
        assert controller.cluster_manager.node_capacity("MM") > 0


class TestPoolAndInstanceManagers:
    def test_setup_creates_instances(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"MM": 4000.0, "LL": 3000.0})
        assert len(cluster.instances) > 0

    def test_select_instance_prefers_idle(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"MM": 6000.0})
        manager = controller.pool_managers["MM"]
        request = Request(arrival_time=0.0, input_tokens=600, output_tokens=200)
        chosen = manager.select_instance(request, now=0.0)
        assert chosen is not None
        assert chosen.pool == "MM"

    def test_shard_epoch_scales_with_budget(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"MM": 2000.0})
        manager = controller.pool_managers["MM"]
        pool = controller.cluster_manager.pools["MM"]
        before = manager.gpus_in_use()
        pool.gpu_budget = max(before * 2, 16)
        pool.predicted_load_tps = 12000.0
        manager.shard_epoch(10.0)
        assert manager.gpus_in_use() >= before

    def test_frequency_epoch_lowers_frequency_at_low_load(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"MM": 3000.0})
        instance_manager = controller.instance_managers["MM"]
        chosen = instance_manager.frequency_epoch(1.0)
        assert chosen
        assert all(frequency < 1980 for frequency in chosen.values())

    def test_frequency_disabled_keeps_max(self, profile):
        knobs = ControllerKnobs(scale_frequency=False)
        cluster, controller = _make_stack(profile, knobs=knobs)
        controller.setup(0.0, warm_loads={"MM": 3000.0})
        instance_manager = controller.instance_managers["MM"]
        instance_manager.frequency_epoch(1.0)
        for instance in controller.pool_managers["MM"].instances():
            assert instance.frequency.current_frequency_mhz == 1980

    def test_emergency_boosts_frequency(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"MM": 3000.0})
        manager = controller.pool_managers["MM"]
        instance = manager.instances()[0]
        instance.set_frequency(800, now=0.0)
        for index in range(20):
            instance.enqueue(
                Request(arrival_time=0.0, input_tokens=600, output_tokens=200), now=0.0
            )
        instance_manager = controller.instance_managers["MM"]
        instance_manager.frequency_epoch(40.0)
        assert instance.frequency.current_frequency_mhz == 1980

    def test_removed_instance_requests_are_not_dropped(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"MM": 6000.0})
        manager = controller.pool_managers["MM"]
        busy, idle = manager.instances()
        for _ in range(5):
            busy.enqueue(Request(arrival_time=0.0, input_tokens=600, output_tokens=200), now=0.0)
        busy.step(0.0, 0.5)  # some requests are running, not just queued

        def parked():
            return sum(i.queue_length + i.batch_size for i in cluster.instances.values())

        # No live instance accepts the leftovers: they wait on the
        # offline one instead of vanishing.
        idle.mark_offline(100.0)
        assert parked() == 5
        manager._remove_instance(busy, now=1.0)
        assert busy.instance_id not in cluster.instances
        assert parked() == 5 and idle.queue_length == 5
        # The pool's last instance is kept rather than losing its queue.
        assert not manager._remove_instance(idle, now=2.0)
        assert idle.instance_id in cluster.instances and parked() == 5

    def test_is_overloaded_when_no_instances(self, profile):
        cluster, controller = _make_stack(profile)
        assert controller.pool_managers["SS"].is_overloaded(0.0)


class TestFramework:
    def test_route_enqueues_request(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"MM": 3000.0, "LL": 2000.0})
        request = Request(arrival_time=0.0, input_tokens=600, output_tokens=200)
        instance = controller.route(request, now=0.0)
        assert instance is not None
        assert instance.active_requests == 1
        assert controller.routed_requests == 1

    def test_route_falls_back_when_pool_empty(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"LL": 2000.0})
        request = Request(arrival_time=0.0, input_tokens=100, output_tokens=50)  # SS
        instance = controller.route(request, now=0.0)
        assert instance is not None

    def test_on_step_fires_epochs(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"MM": 3000.0})
        for step in range(70):
            controller.on_step(float(step), 1.0)
        assert controller.events.count("scale_epoch") >= 1

    def test_pool_summary_structure(self, profile):
        cluster, controller = _make_stack(profile)
        controller.setup(0.0, warm_loads={"MM": 3000.0})
        summary = controller.pool_summary()
        assert set(summary) == set(DEFAULT_SCHEME.pool_names())
        assert {"servers", "gpus", "load_tps", "instances"} <= set(summary["MM"])

    def test_static_policy_fills_budget_with_tp8(self, profile):
        knobs = ControllerKnobs(
            scale_instances=False, scale_sharding=False, scale_frequency=False
        )
        cluster, controller = _make_stack(profile, knobs=knobs, static_servers=3)
        controller.setup(0.0)
        for instance in cluster.instances.values():
            assert instance.tensor_parallelism == 8
            assert instance.frequency.current_frequency_mhz == 1980
