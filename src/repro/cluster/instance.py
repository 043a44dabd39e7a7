"""LLM inference instance simulator.

An instance is a tensor-parallel group of GPUs serving one model with
continuous batching (vLLM-style).  The simulator advances in discrete
time steps; within a step it admits waiting requests into the running
batch (subject to KV-cache capacity), interleaves prefill and decode
work according to the analytical latency model, and accounts power and
energy.  Sub-step interpolation gives requests millisecond-resolution
TTFT/TBT even with one-second simulation steps.

Reconfiguration hooks model the overheads of Section IV-C: re-sharding
transfers and engine synchronisation make the instance degraded or
offline for a while, and frequency switches cost a small slice of
serving time unless the optimised switching path is enabled.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.cluster.frequency import FrequencyController
from repro.llm.catalog import ModelSpec
from repro.llm.gpu import ServerSpec, DGX_H100
from repro.perf.config import InstanceConfig
from repro.perf.latency_model import ITERATION_OVERHEAD_S, LatencyModel, MAX_BATCH
from repro.perf.power_model import PowerModel
from repro.workload.classification import classify_request, equivalent_prompt_tokens
from repro.workload.request import Request, RequestOutcome

_INSTANCE_COUNTER = itertools.count()


@dataclass(slots=True)
class RequestState:
    """Mutable execution state of one request inside an instance."""

    request: Request
    enqueue_time: float
    admitted_time: Optional[float] = None
    remaining_prefill: int = field(init=False)
    type_name: str = field(init=False)
    generated_tokens: int = 0
    first_token_time: Optional[float] = None
    #: Decode tick of the running instance at which the last output token
    #: is produced; set when the state starts decoding there.
    finish_tick: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.remaining_prefill = self.request.input_tokens
        # Classification is a pure function of the request's true token
        # lengths; caching it here keeps it off the per-step token loops.
        self.type_name = classify_request(self.request).name

    @property
    def context_tokens(self) -> int:
        """Tokens currently resident in the KV cache for this request."""
        consumed_prefill = self.request.input_tokens - self.remaining_prefill
        return consumed_prefill + self.generated_tokens


@dataclass(slots=True)
class StepStats:
    """Per-step accounting emitted by :meth:`InferenceInstance.step`."""

    time: float
    duration: float
    power_watts: float
    energy_wh: float
    prefill_tokens: int
    decode_tokens: int
    batch_size: int
    queue_length: int
    frequency_mhz: int
    energy_by_type_wh: Dict[str, float] = field(default_factory=dict)


class InferenceInstance:
    """A tensor-parallel model instance with continuous batching."""

    def __init__(
        self,
        model: ModelSpec,
        tensor_parallelism: int,
        pool: str = "default",
        request_type: str = "MM",
        server: ServerSpec = DGX_H100,
        frequency_mhz: Optional[int] = None,
        optimized_frequency_switching: bool = True,
        instance_id: Optional[str] = None,
        record_history: bool = True,
    ) -> None:
        self.instance_id = instance_id or f"inst-{next(_INSTANCE_COUNTER)}"
        self.model = model
        self.server = server
        self.pool = pool
        self.request_type = request_type
        self.tensor_parallelism = tensor_parallelism
        self.latency = LatencyModel(model, server)
        self.power_model = PowerModel(server)
        self.frequency = FrequencyController(
            gpu=server.gpu,
            initial_frequency_mhz=frequency_mhz or server.gpu.max_frequency_mhz,
            optimized=optimized_frequency_switching,
        )
        self.waiting: Deque[RequestState] = deque()
        self.completed: List[RequestOutcome] = []
        self.total_energy_wh = 0.0
        self.energy_by_type_wh: Dict[str, float] = {}
        self.offline_until = 0.0
        self.degraded_until = 0.0
        self.degraded_factor = 1.0
        self.accepting = True
        self._decode_carry = 0.0
        self._load_ema_tps = 0.0
        self._arrived_tokens_step = 0
        #: Whether per-step :class:`StepStats` are retained.  Lean sweeps
        #: disable this (wired from the engine) so memory stays O(1) in
        #: the number of steps instead of O(steps x instances).
        self.record_history = record_history
        self._step_history: List[StepStats] = []
        # Incrementally tracked min enqueue_time of the waiting queue;
        # ``None`` means "recompute on next oldest_wait_s call".
        self._oldest_enqueue: Optional[float] = None
        # Incrementally tracked KV accounting over ``running``:
        # ``_kv_tokens``  == sum(input - remaining_prefill + generated)
        # ``_reserved_tokens`` == sum(input + generated)
        # Both are exact integers updated at every mutation of the batch
        # (admit / prefill / decode / finish), replacing O(batch) rescans
        # on the step hot path.
        self._kv_tokens = 0
        self._reserved_tokens = 0
        # The running batch by admission sequence number (dicts keep
        # insertion order, so values() is admission order).
        self._batch: Dict[int, RequestState] = {}
        self._admission_seqs = itertools.count()
        # Admitted states still in prefill, in admission order; a step's
        # prefill completions are always a prefix of this queue.
        self._prefilling: Deque[Tuple[int, RequestState]] = deque()
        # Closed-form decode.  Every decoding state gains one token per
        # decode iteration until it finishes, so its progress is the
        # instance's decode tick minus the tick it started at: a state
        # finishes at ``finish_tick`` and the heap of (finish_tick, seq,
        # state) yields a step's finishers without scanning the batch.
        # It holds every decoding state, so its length is the decoder count.
        self._decode_tick = 0
        self._finish_heap: List[Tuple[int, int, RequestState]] = []
        self._decoders_by_type: Dict[str, int] = {}
        self._kv_bytes_per_token = model.kv_bytes_per_token()
        gpu = server.gpu
        self._idle_watts = gpu.idle_watts
        self._dynamic_range = gpu.tdp_watts - gpu.idle_watts
        # (TP, frequency) that _resolve_configuration last resolved; step()
        # re-resolves whenever either has changed since (re-sharding or a
        # frequency switch), so no reconfiguration path needs a hook.
        self._config_key: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def config(self) -> InstanceConfig:
        return InstanceConfig(self.tensor_parallelism, self.frequency.current_frequency_mhz)

    @property
    def gpu_count(self) -> int:
        return self.tensor_parallelism

    def _resolve_configuration(self) -> None:
        """Resolve what depends only on (TP, frequency), once per change.

        Each value is the complete result of a model call, never a partial
        product, so reading it back is bit-identical to calling the model.
        """
        tp = self.tensor_parallelism
        frequency_mhz = self.frequency.current_frequency_mhz
        self._config_key = (tp, frequency_mhz)
        self._config = InstanceConfig(tp, frequency_mhz)
        self._latency_constants = self.latency._constants(self._config)
        self._kv_capacity = self.latency.kv_capacity_tokens(self._config)
        self._dynamic_scale = self.power_model.dynamic_scale(frequency_mhz)
        self._host_share = self.power_model.host_share(tp)
        self._idle_power = self.power_model.instance_power(tp, frequency_mhz, 0.0)

    def set_frequency(self, frequency_mhz: int, now: float = 0.0) -> bool:
        """Change the GPU frequency (pays the switching overhead)."""
        return self.frequency.set_frequency(frequency_mhz, now)

    def begin_resharding(
        self,
        new_tensor_parallelism: int,
        now: float,
        transfer_time_s: float,
        sync_time_s: float,
        requires_downtime: bool,
    ) -> None:
        """Start a re-sharding operation decided by the pool manager.

        During the weight transfer the instance keeps serving at reduced
        throughput; during the engine synchronisation it is either fully
        offline (when memory does not allow the old and new engines to
        coexist) or continues serving on the old configuration.
        """
        self.tensor_parallelism = new_tensor_parallelism
        self.degraded_until = max(self.degraded_until, now + transfer_time_s)
        self.degraded_factor = 0.7
        if requires_downtime:
            self.offline_until = max(self.offline_until, now + transfer_time_s + sync_time_s)
        else:
            # Seamless switch-over: only the transfer degradation applies.
            self.degraded_until = max(self.degraded_until, now + transfer_time_s + sync_time_s)

    def mark_offline(self, until: float) -> None:
        self.offline_until = max(self.offline_until, until)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def enqueue(self, request: Request, now: float) -> RequestState:
        """Add a request to the instance's waiting queue."""
        state = RequestState(request=request, enqueue_time=now)
        self.waiting.append(state)
        self._note_enqueued(state)
        self._arrived_tokens_step += self._equivalent_tokens(state)
        return state

    def _equivalent_tokens(self, state: RequestState) -> float:
        """Prompt tokens converted to this instance's governing-type units."""
        return equivalent_prompt_tokens(
            state.request.input_tokens, state.type_name, self.request_type
        )

    def _note_enqueued(self, state: RequestState) -> None:
        """Maintain the cached waiting-queue minimum on append."""
        cached = self._oldest_enqueue
        if cached is not None and state.enqueue_time < cached:
            self._oldest_enqueue = state.enqueue_time
        elif cached is None and len(self.waiting) == 1:
            self._oldest_enqueue = state.enqueue_time

    def _note_removed(self, state: RequestState) -> None:
        """Invalidate the cached minimum when its holder leaves the queue."""
        if state.enqueue_time == self._oldest_enqueue:
            self._oldest_enqueue = None

    def steal_waiting(self, count: int) -> List[RequestState]:
        """Remove up to ``count`` not-yet-started requests (for re-steering)."""
        stolen: List[RequestState] = []
        while self.waiting and len(stolen) < count:
            state = self.waiting.pop()
            self._note_removed(state)
            stolen.append(state)
        return stolen

    def adopt(self, states: Sequence[RequestState], now: float) -> None:
        """Accept request states re-steered from another instance."""
        for state in states:
            self.waiting.append(state)
            self._note_enqueued(state)
            self._arrived_tokens_step += self._equivalent_tokens(state)

    def squash_stale(self, now: float, wait_threshold_s: float) -> List[RequestOutcome]:
        """Drop waiting requests that exceeded the squash threshold."""
        kept: Deque[RequestState] = deque()
        squashed: List[RequestOutcome] = []
        for state in self.waiting:
            if now - state.enqueue_time > wait_threshold_s:
                squashed.append(
                    RequestOutcome(
                        request=state.request,
                        pool=self.pool,
                        instance_id=self.instance_id,
                        start_time=state.enqueue_time,
                        first_token_time=now,
                        completion_time=now,
                        squashed=True,
                    )
                )
            else:
                kept.append(state)
        for outcome in squashed:
            if outcome.start_time == self._oldest_enqueue:
                self._oldest_enqueue = None
        self.waiting = kept
        self.completed.extend(squashed)
        return squashed

    def reorder_queue_by_deadline(
        self, slo_lookup: Callable[[Request], float]
    ) -> None:
        """Earliest-deadline-first reordering of the waiting queue.

        ``slo_lookup`` maps a request to its TTFT SLO in seconds.
        """
        ordered = sorted(
            self.waiting, key=lambda s: s.enqueue_time + slo_lookup(s.request)
        )
        self.waiting = deque(ordered)

    # ------------------------------------------------------------------
    # Introspection used by the controllers
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self.waiting)

    @property
    def running(self) -> List[RequestState]:
        """The running batch in admission order.

        The step never rescans the batch, so decoding states'
        ``generated_tokens`` are brought up to date here, on read.
        """
        tick = self._decode_tick
        states = list(self._batch.values())
        for state in states:
            if state.remaining_prefill <= 0:
                state.generated_tokens = state.request.output_tokens - (
                    state.finish_tick - tick
                )
        return states

    @property
    def batch_size(self) -> int:
        return len(self._batch)

    @property
    def active_requests(self) -> int:
        return len(self.waiting) + len(self._batch)

    @property
    def kv_tokens_used(self) -> int:
        # Maintained incrementally at every batch mutation; equal to
        # sum(state.context_tokens for state in self.running).
        return self._kv_tokens

    @property
    def kv_capacity(self) -> float:
        return self.latency.kv_capacity_tokens(self.config)

    @property
    def load_estimate_tps(self) -> float:
        """Exponentially-smoothed offered prompt-token load (tokens/s)."""
        return self._load_ema_tps

    def oldest_wait_s(self, now: float) -> float:
        if not self.waiting:
            return 0.0
        oldest = self._oldest_enqueue
        if oldest is None:
            oldest = min(state.enqueue_time for state in self.waiting)
            self._oldest_enqueue = oldest
        return now - oldest

    def is_offline(self, now: float) -> bool:
        return now < self.offline_until

    def drain_completed(self) -> List[RequestOutcome]:
        outcomes = self.completed
        self.completed = []
        return outcomes

    @property
    def step_history(self) -> List[StepStats]:
        return self._step_history

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------
    def step(self, now: float, dt: float) -> StepStats:
        """Advance the instance by ``dt`` seconds starting at ``now``."""
        tp, frequency_mhz = self.tensor_parallelism, self.frequency.current_frequency_mhz
        if (tp, frequency_mhz) != self._config_key:
            self._resolve_configuration()
        rate = self._latency_constants.prefill_rate
        available = dt

        # Downtime from reconfiguration.
        if now < self.offline_until:
            overlap = min(self.offline_until, now + dt) - now
            available -= overlap
        # Throughput degradation while weights are being transferred.
        if available > 0 and now < self.degraded_until:
            degraded_overlap = min(self.degraded_until, now + dt) - max(now, self.offline_until)
            if degraded_overlap > 0:
                available -= degraded_overlap * (1.0 - self.degraded_factor)
        # Frequency-switch penalties.
        available = self.frequency.consume_penalty(max(0.0, available))

        prefill_tokens = 0
        decode_tokens = 0
        tokens_by_type: Dict[str, int] = {}
        cursor = now + (dt - available)

        if available > 0:
            if self.waiting:
                self._admit(now)
            if self._prefilling:
                prefill_tokens = self._run_prefill(available, cursor, tokens_by_type)
            if self._finish_heap:
                decode_time = max(0.0, available - (prefill_tokens / max(1.0, rate)))
                if decode_time > 0:
                    decode_tokens = self._run_decode(decode_time, now + dt, tokens_by_type)

        # Power/energy accounting.  Idle steps (no tokens processed)
        # evaluate to activity == 0.0 exactly: their power is resolved
        # once per configuration.
        if prefill_tokens == 0 and decode_tokens == 0:
            power = self._idle_power
        else:
            busy_prefill = prefill_tokens / rate / dt if dt > 0 else 0.0
            batch = max(1, len(self._batch)) if decode_tokens > 0 else len(self._batch)
            decode_power_factor = 0.35 + 0.55 * min(1.0, batch / 64.0)
            decode_busy = 0.0
            if decode_tokens > 0 and dt > 0:
                iteration = self._iteration_time(batch, self._average_context())
                decode_busy = min(1.0, decode_tokens / max(1, batch) * iteration / dt)
            activity = min(1.0, busy_prefill + decode_busy * decode_power_factor)
            # PowerModel.instance_power on the resolved dynamic scale.
            if not 0.0 <= activity <= 1.0 + 1e-9:
                raise ValueError(f"activity must be in [0, 1], got {activity}")
            gpu_power = self._idle_watts + self._dynamic_range * activity * self._dynamic_scale
            power = tp * gpu_power + self._host_share
        energy_wh = power * dt / 3600.0
        self.total_energy_wh += energy_wh

        energy_by_type = self._attribute_energy(energy_wh, tokens_by_type)
        for type_name, value in energy_by_type.items():
            self.energy_by_type_wh[type_name] = (
                self.energy_by_type_wh.get(type_name, 0.0) + value
            )

        # Load EMA update (per-step arrivals, in governing-type units).
        instant_tps = self._arrived_tokens_step / dt if dt > 0 else 0.0
        alpha = min(1.0, dt / 30.0)
        self._load_ema_tps = (1 - alpha) * self._load_ema_tps + alpha * instant_tps
        self._arrived_tokens_step = 0

        stats = StepStats(
            time=now,
            duration=dt,
            power_watts=power,
            energy_wh=energy_wh,
            prefill_tokens=prefill_tokens,
            decode_tokens=decode_tokens,
            batch_size=len(self._batch),
            queue_length=len(self.waiting),
            frequency_mhz=frequency_mhz,
            energy_by_type_wh=energy_by_type,
        )
        if self.record_history:
            self._step_history.append(stats)
        return stats

    # ------------------------------------------------------------------
    # Step internals
    # ------------------------------------------------------------------
    def _admit(self, now: float) -> None:
        capacity = self._kv_capacity
        # Reserve KV space for admitted requests up front (their prompts will
        # occupy the cache as soon as they are prefetched), so admission does
        # not overshoot the cache just because prefill has not run yet.
        # max(context_tokens, input_tokens) == input_tokens + generated_tokens:
        # while prefill is pending generated_tokens is 0 and context < input;
        # once prefill finishes context == input + generated >= input.
        # ``reserved`` mirrors the historical from-scratch sum (existing
        # batch at input+generated, newly admitted at input only) while
        # the instance-level counters track the exact batch invariants —
        # adopted mid-flight states can carry generated tokens, so the
        # two can legitimately differ within this loop.
        reserved = self._reserved_tokens
        batch = self._batch
        waiting = self.waiting
        while waiting and len(batch) < MAX_BATCH:
            candidate = waiting[0]
            projected = reserved + candidate.request.input_tokens
            if projected > capacity and batch:
                break
            state = waiting.popleft()
            self._note_removed(state)
            state.admitted_time = now
            reserved = projected
            self._reserved_tokens += (
                state.request.input_tokens + state.generated_tokens
            )
            self._kv_tokens += (
                state.request.input_tokens
                - state.remaining_prefill
                + state.generated_tokens
            )
            seq = next(self._admission_seqs)
            batch[seq] = state
            if state.remaining_prefill > 0:
                self._prefilling.append((seq, state))
            else:
                # An adopted state already past prefill resumes decoding.
                self._start_decode(seq, state)

    def _start_decode(self, seq: int, state: RequestState) -> None:
        finish_tick = (
            self._decode_tick - state.generated_tokens + state.request.output_tokens
        )
        state.finish_tick = finish_tick
        heapq.heappush(self._finish_heap, (finish_tick, seq, state))
        by_type = self._decoders_by_type
        by_type[state.type_name] = by_type.get(state.type_name, 0) + 1

    def _run_prefill(
        self, available: float, cursor: float, tokens_by_type: Dict[str, int]
    ) -> int:
        rate = self._latency_constants.prefill_rate
        # Cap prefill at 60% of the step when decodes are in flight so that
        # decode progress (TBT) is not starved by long prompts.
        budget_s = available * (0.6 if self._finish_heap else 1.0)
        budget_tokens = int(budget_s * rate)
        processed = 0
        prefilling = self._prefilling
        while prefilling and budget_tokens > 0:
            seq, state = prefilling[0]
            chunk = min(state.remaining_prefill, budget_tokens)
            state.remaining_prefill -= chunk
            budget_tokens -= chunk
            processed += chunk
            cursor += chunk / rate
            type_name = state.type_name
            tokens_by_type[type_name] = tokens_by_type.get(type_name, 0) + chunk
            if state.remaining_prefill > 0:
                break  # the budget ran out inside this prompt
            prefilling.popleft()
            if state.first_token_time is None:
                # A request can never see its first token earlier than its
                # arrival plus the isolated prefill latency (requests routed
                # mid-step would otherwise appear to finish before arriving).
                isolated = self.latency.prefill_time(
                    self._config, state.request.input_tokens
                )
                state.first_token_time = max(
                    cursor, state.request.arrival_time + isolated
                )
            self._start_decode(seq, state)
        self._kv_tokens += processed
        return processed

    def _run_decode(
        self, decode_time: float, end: float, tokens_by_type: Dict[str, int]
    ) -> int:
        heap = self._finish_heap
        decoders = len(heap)
        iteration = self._iteration_time(decoders, self._average_context())
        iterations = decode_time / iteration + self._decode_carry
        whole_iterations = int(iterations)
        self._decode_carry = iterations - whole_iterations
        if whole_iterations <= 0:
            return 0
        tick = self._decode_tick + whole_iterations
        self._decode_tick = tick
        # Every decoder gets ``whole_iterations`` tokens, less the
        # iterations past its last token for those finishing now.
        for type_name, count in self._decoders_by_type.items():
            tokens_by_type[type_name] = (
                tokens_by_type.get(type_name, 0) + whole_iterations * count
            )
        produced = whole_iterations * decoders
        finished: List[int] = []
        while heap and heap[0][0] <= tick:
            finish_tick, seq, state = heapq.heappop(heap)
            overshoot = tick - finish_tick
            produced -= overshoot
            tokens_by_type[state.type_name] -= overshoot
            finished.append(seq)
        self._kv_tokens += produced
        self._reserved_tokens += produced
        if finished:
            # Outcomes leave in admission order, as the batch is ordered.
            finished.sort()
            self._finish_completed(finished, end)
        return produced

    def _finish_completed(self, finished: List[int], end: float) -> None:
        released = 0
        by_type = self._decoders_by_type
        for seq in finished:
            state = self._batch.pop(seq)
            released += state.request.input_tokens + state.request.output_tokens
            remaining = by_type[state.type_name] - 1
            if remaining:
                by_type[state.type_name] = remaining
            else:
                del by_type[state.type_name]
            first_token = state.first_token_time if state.first_token_time is not None else end
            self.completed.append(
                RequestOutcome(
                    request=state.request,
                    pool=self.pool,
                    instance_id=self.instance_id,
                    start_time=state.enqueue_time,
                    first_token_time=first_token,
                    completion_time=end,
                )
            )
        self._kv_tokens -= released
        self._reserved_tokens -= released

    def _iteration_time(self, batch_size: int, context: float) -> float:
        """``LatencyModel.iteration_time`` on the resolved constants.

        The same operations in the same order, so bit-identical.
        """
        constants = self._latency_constants
        batch = max(1.0, batch_size)
        memory = constants.weight_read_time + batch * (
            context
            * self._kv_bytes_per_token
            / self.tensor_parallelism
            / constants.memory_bandwidth
        )
        compute = batch * constants.decode_compute_time_per_token
        return max(memory, compute) + constants.iteration_comm_time + ITERATION_OVERHEAD_S

    def _average_context(self) -> float:
        if not self._batch:
            return 1.0
        return max(1.0, self._kv_tokens / len(self._batch))

    def _attribute_energy(
        self, energy_wh: float, tokens_by_type: Dict[str, int]
    ) -> Dict[str, float]:
        """Attribute the step's energy to request types by processed tokens."""
        total_tokens = sum(tokens_by_type.values())
        if total_tokens <= 0:
            # Idle energy goes to the instance's nominal request type.
            return {self.request_type: energy_wh}
        return {
            type_name: energy_wh * count / total_tokens
            for type_name, count in tokens_by_type.items()
        }
