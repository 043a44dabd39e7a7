"""Tests for the cluster simulator: frequency, VM, instance, server, cluster."""

import random

import pytest

from repro.cluster.cluster import GPUCluster
from repro.cluster.frequency import FrequencyController
from repro.cluster.instance import InferenceInstance, RequestState, StepStats
from repro.cluster.server import Server
from repro.cluster.vm import VMProvisioner
from repro.core.hw import (
    DEFAULT_SWITCH_OVERHEAD_S,
    OPTIMIZED_SWITCH_OVERHEAD_S,
    cold_boot_time_s,
    warm_boot_time_s,
)
from repro.llm.catalog import LLAMA2_70B
from repro.perf.latency_model import MAX_BATCH
from repro.workload.request import Request, RequestOutcome


def make_request(arrival=0.0, n_in=600, n_out=50):
    return Request(arrival_time=arrival, input_tokens=n_in, output_tokens=n_out)


class TestFrequencyController:
    def test_starts_at_max_frequency(self):
        controller = FrequencyController()
        assert controller.current_frequency_mhz == 1980

    def test_set_frequency_records_switch(self):
        controller = FrequencyController()
        assert controller.set_frequency(1200, now=1.0)
        assert controller.switch_count == 1
        assert controller.current_frequency_mhz == 1200

    def test_same_frequency_is_noop(self):
        controller = FrequencyController()
        assert not controller.set_frequency(1980)
        assert controller.switch_count == 0

    def test_invalid_frequency_rejected(self):
        controller = FrequencyController()
        with pytest.raises(ValueError):
            controller.set_frequency(100)

    def test_penalty_consumed_from_serving_time(self):
        controller = FrequencyController(optimized=False)
        controller.set_frequency(1200)
        remaining = controller.consume_penalty(1.0)
        assert remaining == pytest.approx(1.0 - DEFAULT_SWITCH_OVERHEAD_S)

    def test_optimized_penalty_is_smaller(self):
        assert OPTIMIZED_SWITCH_OVERHEAD_S < DEFAULT_SWITCH_OVERHEAD_S
        controller = FrequencyController(optimized=True)
        controller.set_frequency(1200)
        remaining = controller.consume_penalty(1.0)
        assert remaining == pytest.approx(1.0 - OPTIMIZED_SWITCH_OVERHEAD_S)

    def test_penalty_carries_over(self):
        controller = FrequencyController(optimized=False)
        controller.set_frequency(1200)
        assert controller.consume_penalty(0.01) == 0.0
        remaining = controller.consume_penalty(1.0)
        assert remaining == pytest.approx(1.0 - (DEFAULT_SWITCH_OVERHEAD_S - 0.01))

    def test_frequency_history(self):
        controller = FrequencyController()
        controller.set_frequency(1200, now=5.0)
        controller.set_frequency(1600, now=10.0)
        assert controller.frequency_at(0.0) == 1980
        assert controller.frequency_at(7.0) == 1200
        assert controller.frequency_at(12.0) == 1600


class TestVMProvisioner:
    def test_boot_times_match_table5(self):
        assert cold_boot_time_s() > 360.0  # ~6-8 minutes in the paper
        assert warm_boot_time_s() < 60.0

    def test_reactive_provisioning_pays_cold_boot(self):
        provisioner = VMProvisioner(proactive=False)
        request = provisioner.request_server("s1", now=0.0)
        assert request.ready_at == pytest.approx(cold_boot_time_s())

    def test_proactive_provisioning_is_fast(self):
        provisioner = VMProvisioner(proactive=True)
        request = provisioner.request_server("s1", now=0.0)
        assert request.ready_at == pytest.approx(warm_boot_time_s())

    def test_collect_ready_retires_requests(self):
        provisioner = VMProvisioner(proactive=True)
        provisioner.request_server("s1", now=0.0)
        assert provisioner.collect_ready(1.0) == []
        ready = provisioner.collect_ready(warm_boot_time_s() + 1.0)
        assert len(ready) == 1
        assert provisioner.pending_count() == 0


class TestServer:
    def test_allocate_and_release(self):
        server = Server()
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        slots = server.allocate(instance)
        assert len(slots) == 4
        assert server.free_gpus == 4
        assert server.release(instance.instance_id) == 4
        assert server.free_gpus == 8

    def test_cannot_overallocate(self):
        server = Server()
        first = InferenceInstance(LLAMA2_70B, tensor_parallelism=8)
        server.allocate(first)
        second = InferenceInstance(LLAMA2_70B, tensor_parallelism=2)
        with pytest.raises(ValueError):
            server.allocate(second)

    def test_offline_server_cannot_host(self):
        server = Server(online=False)
        assert not server.can_host(2)

    def test_resize_allocation_grow_and_shrink(self):
        server = Server()
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        server.allocate(instance)
        server.resize_allocation(instance.instance_id, 8)
        assert server.free_gpus == 0
        server.resize_allocation(instance.instance_id, 2)
        assert server.free_gpus == 6

    def test_resize_rejects_overgrowth(self):
        server = Server()
        a = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        b = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        server.allocate(a)
        server.allocate(b)
        with pytest.raises(ValueError):
            server.resize_allocation(a.instance_id, 8)

    def test_idle_power_zero_when_offline(self):
        server = Server(online=False)
        assert server.idle_gpu_power() == 0.0

    def test_idle_power_counts_free_gpus(self):
        server = Server()
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        server.allocate(instance)
        per_gpu = server.spec.gpu.idle_watts + server.spec.host_idle_watts / 8
        assert server.idle_gpu_power() == pytest.approx(4 * per_gpu)


class TestInferenceInstance:
    def test_enqueue_and_complete_request(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=8, request_type="MM")
        request = make_request(n_in=500, n_out=20)
        instance.enqueue(request, now=0.0)
        outcomes = []
        for step in range(30):
            instance.step(float(step), 1.0)
            outcomes.extend(instance.drain_completed())
            if outcomes:
                break
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.ttft > 0.0
        assert outcome.tbt > 0.0
        assert outcome.completion_time >= outcome.first_token_time

    def test_ttft_never_negative(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=8)
        request = make_request(arrival=0.7, n_in=300, n_out=5)
        instance.enqueue(request, now=0.0)
        for step in range(10):
            instance.step(float(step), 1.0)
        outcomes = instance.drain_completed()
        assert outcomes and outcomes[0].ttft >= 0.0

    def test_energy_accumulates_even_when_idle(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        stats = instance.step(0.0, 1.0)
        assert stats.power_watts > 0.0
        assert instance.total_energy_wh > 0.0

    def test_busy_instance_draws_more_power_than_idle(self):
        idle = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        busy = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        for i in range(20):
            busy.enqueue(make_request(n_in=800, n_out=100), now=0.0)
        idle_stats = idle.step(0.0, 1.0)
        busy_stats = busy.step(0.0, 1.0)
        assert busy_stats.power_watts > idle_stats.power_watts

    def test_offline_instance_does_not_progress(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        instance.enqueue(make_request(n_in=400, n_out=50), now=0.0)
        instance.mark_offline(until=10.0)
        stats = instance.step(0.0, 1.0)
        assert stats.prefill_tokens == 0
        assert stats.decode_tokens == 0

    def test_frequency_change_costs_serving_time(self):
        instance = InferenceInstance(
            LLAMA2_70B, tensor_parallelism=8, optimized_frequency_switching=False
        )
        instance.enqueue(make_request(n_in=8000, n_out=500), now=0.0)
        instance.set_frequency(800, now=0.0)
        stats = instance.step(0.0, 1.0)
        # One switch penalty (65 ms) of prefill work is lost.
        assert stats.prefill_tokens > 0

    def test_resharding_changes_tp_and_degrades(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        instance.begin_resharding(8, now=0.0, transfer_time_s=0.5, sync_time_s=1.0, requires_downtime=False)
        assert instance.tensor_parallelism == 8
        assert instance.degraded_until > 0.0
        assert not instance.is_offline(0.0)

    def test_resharding_with_downtime_marks_offline(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=4)
        instance.begin_resharding(2, now=0.0, transfer_time_s=0.5, sync_time_s=1.0, requires_downtime=True)
        assert instance.is_offline(1.0)
        assert not instance.is_offline(2.0)

    def test_squash_stale_requests(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=2)
        instance.enqueue(make_request(), now=0.0)
        instance.enqueue(make_request(), now=50.0)
        squashed = instance.squash_stale(now=60.0, wait_threshold_s=30.0)
        assert len(squashed) == 1
        assert squashed[0].squashed
        assert instance.queue_length == 1

    def test_steal_and_adopt_moves_waiting_requests(self):
        source = InferenceInstance(LLAMA2_70B, tensor_parallelism=2)
        target = InferenceInstance(LLAMA2_70B, tensor_parallelism=2)
        for _ in range(4):
            source.enqueue(make_request(), now=0.0)
        stolen = source.steal_waiting(2)
        target.adopt(stolen, now=1.0)
        assert source.queue_length == 2
        assert target.queue_length == 2

    def test_reorder_queue_by_deadline(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=2)
        loose = make_request(arrival=0.0, n_in=2000, n_out=50)   # 2 s TTFT SLO
        tight = make_request(arrival=0.0, n_in=100, n_out=50)    # 0.25 s TTFT SLO
        instance.enqueue(loose, now=0.0)
        instance.enqueue(tight, now=0.0)
        instance.reorder_queue_by_deadline(lambda request: 2.0 if request.input_tokens > 1000 else 0.25)
        assert instance.waiting[0].request is tight

    def test_kv_capacity_limits_admission(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=2, request_type="LL")
        for _ in range(40):
            instance.enqueue(make_request(n_in=4000, n_out=500), now=0.0)
        instance.step(0.0, 1.0)
        assert instance.kv_tokens_used <= instance.kv_capacity
        assert instance.queue_length > 0

    def test_load_estimate_tracks_arrivals(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=4, request_type="MM")
        for step in range(10):
            instance.enqueue(make_request(arrival=float(step), n_in=600, n_out=10), now=float(step))
            instance.step(float(step), 1.0)
        assert instance.load_estimate_tps > 0.0

    def test_energy_attributed_to_request_types(self):
        instance = InferenceInstance(LLAMA2_70B, tensor_parallelism=8, request_type="MM")
        instance.enqueue(make_request(n_in=600, n_out=30), now=0.0)
        instance.enqueue(make_request(n_in=100, n_out=30), now=0.0)
        for step in range(15):
            instance.step(float(step), 1.0)
        assert set(instance.energy_by_type_wh) >= {"MS", "SS"} or set(instance.energy_by_type_wh) >= {"MM"}
        assert sum(instance.energy_by_type_wh.values()) == pytest.approx(instance.total_energy_wh, rel=0.01)


class PerStateInstance(InferenceInstance):
    """Reference for the closed-form decode: the per-state step loops.

    The running batch is a plain admission-ordered list that every step
    rescans: prefill walks the pending states, decode hands each decoder
    ``min(remaining, whole_iterations)`` tokens, and the batch is rebuilt
    without the finishers.  Constants come from the latency and power
    models on every call.  Intake and reconfiguration are inherited.
    """

    running = None  # a plain list per instance, not the base class's view

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.running = []

    def step(self, now, dt):
        config = self.config
        available = dt
        if now < self.offline_until:
            available -= min(self.offline_until, now + dt) - now
        if available > 0 and now < self.degraded_until:
            degraded_overlap = min(self.degraded_until, now + dt) - max(now, self.offline_until)
            if degraded_overlap > 0:
                available -= degraded_overlap * (1.0 - self.degraded_factor)
        available = self.frequency.consume_penalty(max(0.0, available))

        prefill_tokens = 0
        decode_tokens = 0
        tokens_by_type = {}
        cursor = now + (dt - available)
        finished = []
        if available > 0:
            if self.waiting:
                self._reference_admit(now)
            if self.running:
                prefill_tokens = self._reference_prefill(config, available, cursor, tokens_by_type)
                decode_time = max(
                    0.0, available - (prefill_tokens / max(1.0, self.latency.prefill_rate(config)))
                )
                decode_tokens = self._reference_decode(config, decode_time, tokens_by_type, finished)
                self._reference_finish(finished, now + dt)

        if prefill_tokens == 0 and decode_tokens == 0:
            power = self.power_model.instance_power(config.tp, config.frequency_mhz, 0.0)
        else:
            busy_prefill = prefill_tokens / self.latency.prefill_rate(config) / dt if dt > 0 else 0.0
            batch = max(1, len(self.running)) if decode_tokens > 0 else len(self.running)
            decode_power_factor = 0.35 + 0.55 * min(1.0, batch / 64.0)
            decode_busy = 0.0
            if decode_tokens > 0 and dt > 0:
                iteration = self.latency.iteration_time(config, batch, self._reference_context())
                decode_busy = min(1.0, decode_tokens / max(1, batch) * iteration / dt)
            activity = min(1.0, busy_prefill + decode_busy * decode_power_factor)
            power = self.power_model.instance_power(config.tp, config.frequency_mhz, activity)
        energy_wh = power * dt / 3600.0
        self.total_energy_wh += energy_wh
        energy_by_type = self._attribute_energy(energy_wh, tokens_by_type)
        for type_name, value in energy_by_type.items():
            self.energy_by_type_wh[type_name] = self.energy_by_type_wh.get(type_name, 0.0) + value
        instant_tps = self._arrived_tokens_step / dt if dt > 0 else 0.0
        alpha = min(1.0, dt / 30.0)
        self._load_ema_tps = (1 - alpha) * self._load_ema_tps + alpha * instant_tps
        self._arrived_tokens_step = 0
        return StepStats(
            time=now,
            duration=dt,
            power_watts=power,
            energy_wh=energy_wh,
            prefill_tokens=prefill_tokens,
            decode_tokens=decode_tokens,
            batch_size=len(self.running),
            queue_length=len(self.waiting),
            frequency_mhz=config.frequency_mhz,
            energy_by_type_wh=energy_by_type,
        )

    def _reference_admit(self, now):
        capacity = self.latency.kv_capacity_tokens(self.config)
        reserved = self._reserved_tokens
        while self.waiting and len(self.running) < MAX_BATCH:
            projected = reserved + self.waiting[0].request.input_tokens
            if projected > capacity and self.running:
                break
            state = self.waiting.popleft()
            self._note_removed(state)
            state.admitted_time = now
            reserved = projected
            self._reserved_tokens += state.request.input_tokens + state.generated_tokens
            self._kv_tokens += (
                state.request.input_tokens - state.remaining_prefill + state.generated_tokens
            )
            self.running.append(state)

    def _reference_prefill(self, config, available, cursor, tokens_by_type):
        rate = self.latency.prefill_rate(config)
        pending = [state for state in self.running if state.remaining_prefill > 0]
        if not pending:
            return 0
        decoding = any(state.remaining_prefill <= 0 for state in self.running)
        budget_tokens = int(available * (0.6 if decoding else 1.0) * rate)
        processed = 0
        for state in pending:
            if budget_tokens <= 0:
                break
            chunk = min(state.remaining_prefill, budget_tokens)
            state.remaining_prefill -= chunk
            budget_tokens -= chunk
            processed += chunk
            cursor += chunk / rate
            if state.remaining_prefill <= 0 and state.first_token_time is None:
                isolated = self.latency.prefill_time(config, state.request.input_tokens)
                state.first_token_time = max(cursor, state.request.arrival_time + isolated)
            tokens_by_type[state.type_name] = tokens_by_type.get(state.type_name, 0) + chunk
        self._kv_tokens += processed
        return processed

    def _reference_decode(self, config, decode_time, tokens_by_type, finished):
        decoders = [
            state
            for state in self.running
            if state.remaining_prefill <= 0
            and state.generated_tokens < state.request.output_tokens
        ]
        if not decoders or decode_time <= 0:
            return 0
        iteration = self.latency.iteration_time(config, len(decoders), self._reference_context())
        iterations = decode_time / iteration + self._decode_carry
        whole_iterations = int(iterations)
        self._decode_carry = iterations - whole_iterations
        if whole_iterations <= 0:
            return 0
        produced = 0
        for state in decoders:
            remaining = state.request.output_tokens - state.generated_tokens
            tokens = min(remaining, whole_iterations)
            state.generated_tokens += tokens
            produced += tokens
            if tokens == remaining:
                finished.append(state)
            tokens_by_type[state.type_name] = tokens_by_type.get(state.type_name, 0) + tokens
        self._kv_tokens += produced
        self._reserved_tokens += produced
        return produced

    def _reference_finish(self, finished, end):
        done = {id(state) for state in finished}
        self.running = [state for state in self.running if id(state) not in done]
        for state in finished:
            released = state.request.input_tokens + state.generated_tokens
            self._kv_tokens -= released
            self._reserved_tokens -= released
            self.completed.append(
                RequestOutcome(
                    request=state.request,
                    pool=self.pool,
                    instance_id=self.instance_id,
                    start_time=state.enqueue_time,
                    first_token_time=(
                        state.first_token_time if state.first_token_time is not None else end
                    ),
                    completion_time=end,
                )
            )

    def _reference_context(self):
        if not self.running:
            return 1.0
        return max(1.0, self._kv_tokens / len(self.running))


def _batch_view(instance):
    return [
        (state.request.request_id, state.generated_tokens, state.remaining_prefill)
        for state in instance.running
    ]


class TestClosedFormDecode:
    """``InferenceInstance`` in lockstep with :class:`PerStateInstance`.

    Seeded random operation sequences drive both; after every step the
    step stats, the drained outcomes, the KV counters and the running
    batch must be equal, not merely close.
    """

    @staticmethod
    def _in_flight(rng, request, now, decoding):
        """Two equal states of ``request`` that have already made progress."""
        remaining = 0 if decoding else rng.randrange(1, request.input_tokens + 1)
        generated = rng.randrange(request.output_tokens) if decoding else 0
        first_token = now - rng.uniform(0.0, 5.0) if decoding else None
        enqueued = now - rng.uniform(0.0, 3.0)
        states = []
        for _ in range(2):
            state = RequestState(request=request, enqueue_time=enqueued)
            state.remaining_prefill = remaining
            state.generated_tokens = generated
            state.first_token_time = first_token
            states.append(state)
        return states

    def _operate(self, rng, pair, stash, now):
        """Apply one random intake or reconfiguration operation to both."""
        op = rng.randrange(11)
        if op <= 3:
            request = Request(
                arrival_time=max(0.0, now - rng.uniform(0.0, 2.0)),
                input_tokens=rng.randrange(1, 4000),
                output_tokens=rng.randrange(1, 600),
            )
            for instance in pair:
                instance.enqueue(request, now)
        elif op == 4:
            request = Request(
                arrival_time=max(0.0, now - 10.0),
                input_tokens=rng.randrange(1, 4000),
                output_tokens=rng.randrange(1, 600),
            )
            states = self._in_flight(rng, request, now, decoding=rng.random() < 0.6)
            for instance, state in zip(pair, states):
                instance.adopt([state], now)
        elif op == 5:
            count = rng.randrange(1, 4)
            stolen = [instance.steal_waiting(count) for instance in pair]
            assert [s.request for s in stolen[0]] == [s.request for s in stolen[1]]
            stash[:] = [a + b for a, b in zip(stash, stolen)] if stash else stolen
        elif op == 6 and stash:
            for instance, states in zip(pair, stash):
                instance.adopt(states, now)
            stash[:] = []
        elif op == 7:
            for instance in pair:
                instance.reorder_queue_by_deadline(lambda request: request.input_tokens / 1000.0)
        elif op == 8:
            threshold = rng.uniform(2.0, 20.0)
            squashed = [instance.squash_stale(now, threshold) for instance in pair]
            assert squashed[0] == squashed[1]
        elif op == 9:
            tp = rng.choice((2, 4, 8))
            transfer, sync = rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)
            downtime = rng.random() < 0.5
            for instance in pair:
                instance.begin_resharding(tp, now, transfer, sync, downtime)
        else:
            frequency = rng.choice((800, 1200, 1600, 1980))
            choice = rng.randrange(3)
            until = now + rng.uniform(0.0, 2.0)
            for instance in pair:
                if choice == 0:
                    instance.set_frequency(frequency, now)
                elif choice == 1:
                    instance.frequency.set_frequency(frequency, now)
                else:
                    instance.mark_offline(until)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_state_reference(self, seed):
        rng = random.Random(seed)
        tp = rng.choice((2, 4, 8))
        pair = (
            InferenceInstance(LLAMA2_70B, tensor_parallelism=tp, instance_id="lockstep"),
            PerStateInstance(LLAMA2_70B, tensor_parallelism=tp, instance_id="lockstep"),
        )
        closed, reference = pair
        stash = []
        now = 0.0
        finished = 0
        for _ in range(250):
            for _ in range(rng.randrange(5)):
                self._operate(rng, pair, stash, now)
            dt = rng.choice((1.0, 1.0, 0.5, 0.05, 2.0))
            assert closed.step(now, dt) == reference.step(now, dt)
            outcomes = closed.drain_completed()
            assert outcomes == reference.drain_completed()
            finished += len(outcomes)
            assert closed.kv_tokens_used == reference.kv_tokens_used
            assert closed._reserved_tokens == reference._reserved_tokens
            assert _batch_view(closed) == _batch_view(reference)
            now += dt
        assert closed.energy_by_type_wh == reference.energy_by_type_wh
        assert finished > 50


class TestGPUCluster:
    def make_cluster(self, servers=2):
        return GPUCluster(LLAMA2_70B, initial_servers=servers, max_servers=8)

    def test_initial_servers_online(self):
        cluster = self.make_cluster(3)
        assert cluster.online_server_count == 3
        assert cluster.online_gpu_count == 24

    def test_create_instance_allocates_gpus(self):
        cluster = self.make_cluster()
        instance = cluster.create_instance(4, pool="MM")
        assert instance is not None
        assert cluster.active_gpu_count == 4
        assert cluster.free_gpu_count == 12

    def test_create_instance_fails_when_full(self):
        cluster = self.make_cluster(1)
        assert cluster.create_instance(8) is not None
        assert cluster.create_instance(2) is None

    def test_remove_instance_returns_leftovers(self):
        cluster = self.make_cluster()
        instance = cluster.create_instance(4, pool="MM")
        instance.enqueue(make_request(), now=0.0)
        leftovers = cluster.remove_instance(instance.instance_id)
        assert len(leftovers) == 1
        assert cluster.active_gpu_count == 0

    def test_scale_out_is_delayed_by_provisioning(self):
        cluster = self.make_cluster(1)
        cluster.scale_to(3, now=0.0)
        assert cluster.online_server_count == 1
        cluster.collect_provisioned(now=1e6)
        assert cluster.online_server_count == 3

    def test_scale_in_only_removes_empty_servers(self):
        cluster = self.make_cluster(2)
        cluster.create_instance(8, pool="MM")  # occupies one server fully
        cluster.scale_to(0, now=0.0)
        assert cluster.online_server_count == 1

    def test_reshard_instance_updates_allocation(self):
        cluster = self.make_cluster()
        instance = cluster.create_instance(4, pool="MM")
        ok = cluster.reshard_instance(
            instance.instance_id, 8, now=0.0, transfer_time_s=0.1, sync_time_s=0.5, requires_downtime=False
        )
        assert ok
        assert instance.tensor_parallelism == 8
        assert cluster.active_gpu_count == 8

    def test_reshard_fails_without_room(self):
        cluster = self.make_cluster(1)
        first = cluster.create_instance(4, pool="MM")
        cluster.create_instance(4, pool="MM")
        assert not cluster.reshard_instance(
            first.instance_id, 8, now=0.0, transfer_time_s=0.1, sync_time_s=0.5, requires_downtime=False
        )

    def test_step_accounts_energy_and_outcomes(self):
        cluster = self.make_cluster(1)
        instance = cluster.create_instance(8, pool="MM", request_type="MM")
        instance.enqueue(make_request(n_in=400, n_out=10), now=0.0)
        total_outcomes = []
        for step in range(20):
            stats = cluster.step(float(step), 1.0)
            total_outcomes.extend(stats.outcomes)
        assert cluster.total_energy_wh > 0.0
        assert len(total_outcomes) == 1
        assert cluster.gpu_hours > 0.0

    def test_idle_servers_still_draw_power(self):
        cluster = self.make_cluster(2)
        stats = cluster.step(0.0, 1.0)
        assert stats.power_watts > 0.0
        assert stats.online_gpus == 16

    def test_pool_breakdown_in_step_stats(self):
        cluster = self.make_cluster(2)
        cluster.create_instance(4, pool="SS", request_type="SS")
        cluster.create_instance(4, pool="LL", request_type="LL")
        stats = cluster.step(0.0, 1.0)
        assert set(stats.pool_power_watts) == {"SS", "LL"}
        assert stats.gpus_by_tp == {4: 8}

    def test_instances_in_pool(self):
        cluster = self.make_cluster(2)
        cluster.create_instance(2, pool="SS")
        cluster.create_instance(2, pool="SS")
        cluster.create_instance(2, pool="MM")
        assert len(cluster.instances_in_pool("SS")) == 2

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            GPUCluster(LLAMA2_70B, initial_servers=5, max_servers=2)
