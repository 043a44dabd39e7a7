"""The GPU cluster: servers, instances, provisioning and accounting.

The cluster is the single object policies manipulate: they create and
remove instances, re-shard them, change frequencies (via the instance),
and scale the number of powered servers.  Each simulation step the
cluster advances every instance, sums power (active instances plus the
idle power of unassigned GPUs on powered servers), and collects the
finished request outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.instance import InferenceInstance, RequestState
from repro.cluster.server import Server
from repro.cluster.vm import VMProvisioner
from repro.llm.catalog import ModelSpec
from repro.llm.gpu import ServerSpec, DGX_H100
from repro.workload.request import RequestOutcome


@dataclass
class ClusterStepStats:
    """Aggregate accounting for one cluster simulation step."""

    time: float
    duration: float
    power_watts: float
    energy_wh: float
    online_servers: int
    online_gpus: int
    active_gpus: int
    average_frequency_mhz: float
    gpus_by_tp: Dict[int, int] = field(default_factory=dict)
    energy_by_type_wh: Dict[str, float] = field(default_factory=dict)
    pool_power_watts: Dict[str, float] = field(default_factory=dict)
    pool_gpus_by_tp: Dict[str, Dict[int, int]] = field(default_factory=dict)
    pool_frequency_mhz: Dict[str, float] = field(default_factory=dict)
    outcomes: List[RequestOutcome] = field(default_factory=list)


class GPUCluster:
    """A collection of GPU servers hosting LLM inference instances."""

    def __init__(
        self,
        model: ModelSpec,
        server_spec: ServerSpec = DGX_H100,
        initial_servers: int = 1,
        max_servers: int = 64,
        proactive_provisioning: bool = True,
        optimized_frequency_switching: bool = True,
        record_history: bool = True,
    ) -> None:
        if initial_servers < 0 or max_servers <= 0:
            raise ValueError("server counts must be positive")
        if initial_servers > max_servers:
            raise ValueError("initial_servers cannot exceed max_servers")
        self.model = model
        self.server_spec = server_spec
        self.max_servers = max_servers
        self.optimized_frequency_switching = optimized_frequency_switching
        self.provisioner = VMProvisioner(proactive=proactive_provisioning)
        self.servers: Dict[str, Server] = {}
        self.instances: Dict[str, InferenceInstance] = {}
        self._instance_server: Dict[str, str] = {}
        # Pool membership never changes after creation, so instances are
        # indexed by pool up front — the controllers query pool rosters
        # every step and a full scan shows up in profiles.
        self._instances_by_pool: Dict[str, Dict[str, InferenceInstance]] = {}
        self.total_energy_wh = 0.0
        self.energy_by_type_wh: Dict[str, float] = {}
        #: Whether per-step :class:`ClusterStepStats` are retained; lean
        #: sweeps disable this (and history on new instances) so memory
        #: stays bounded over long horizons.
        self.record_history = record_history
        self.step_history: List[ClusterStepStats] = []
        self._gpu_seconds = 0.0
        for _ in range(initial_servers):
            self._add_server()

    # ------------------------------------------------------------------
    # Server management
    # ------------------------------------------------------------------
    def _add_server(self) -> Server:
        server = Server(spec=self.server_spec)
        self.servers[server.server_id] = server
        return server

    @property
    def online_servers(self) -> List[Server]:
        return [server for server in self.servers.values() if server.online]

    @property
    def online_server_count(self) -> int:
        return len(self.online_servers)

    @property
    def online_gpu_count(self) -> int:
        return sum(server.total_gpus for server in self.online_servers)

    @property
    def active_gpu_count(self) -> int:
        return sum(server.used_gpus for server in self.online_servers)

    @property
    def free_gpu_count(self) -> int:
        return sum(server.free_gpus for server in self.online_servers)

    @property
    def gpu_hours(self) -> float:
        """Accumulated powered GPU-hours (for the cost model)."""
        return self._gpu_seconds / 3600.0

    def scale_to(self, target_servers: int, now: float) -> int:
        """Adjust the number of powered servers towards ``target_servers``.

        Scale-out is subject to provisioning delays (new servers come
        online when their boot completes); scale-in only removes servers
        that host no instances.  Returns the number of servers whose
        state changed immediately.
        """
        target_servers = max(0, min(self.max_servers, target_servers))
        changed = 0
        current = self.online_server_count + self.provisioner.pending_count()
        if target_servers > current:
            for _ in range(target_servers - current):
                self.provisioner.request_server(f"pending-{now:.0f}-{changed}", now)
                changed += 1
        elif target_servers < self.online_server_count:
            removable = [
                server
                for server in self.online_servers
                if not server.instances_hosted()
            ]
            to_remove = self.online_server_count - target_servers
            for server in removable[:to_remove]:
                server.online = False
                changed += 1
        return changed

    def collect_provisioned(self, now: float) -> int:
        """Turn on servers whose provisioning completed; returns how many."""
        ready = self.provisioner.collect_ready(now)
        added = 0
        for _ in ready:
            # Re-use a powered-off server if available, otherwise add one.
            offline = [s for s in self.servers.values() if not s.online]
            if offline:
                offline[0].online = True
            elif len(self.servers) < self.max_servers:
                self._add_server()
            else:
                continue
            added += 1
        return added

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------
    def create_instance(
        self,
        tensor_parallelism: int,
        pool: str = "default",
        request_type: str = "MM",
        frequency_mhz: Optional[int] = None,
        ready_at: float = 0.0,
    ) -> Optional[InferenceInstance]:
        """Create an instance on any server with enough free GPUs.

        Returns ``None`` when no online server can host it.
        """
        host = self._find_host(tensor_parallelism, pool)
        if host is None:
            return None
        instance = InferenceInstance(
            model=self.model,
            tensor_parallelism=tensor_parallelism,
            pool=pool,
            request_type=request_type,
            server=self.server_spec,
            frequency_mhz=frequency_mhz,
            optimized_frequency_switching=self.optimized_frequency_switching,
            record_history=self.record_history,
        )
        if ready_at > 0:
            instance.mark_offline(ready_at)
        host.allocate(instance)
        self.instances[instance.instance_id] = instance
        self._instance_server[instance.instance_id] = host.server_id
        self._instances_by_pool.setdefault(pool, {})[instance.instance_id] = instance
        return instance

    def _find_host(self, gpu_count: int, pool: str) -> Optional[Server]:
        # Prefer servers already hosting the pool (locality), then best fit.
        candidates = [s for s in self.online_servers if s.can_host(gpu_count)]
        if not candidates:
            return None
        pool_instances = {
            self._instance_server[instance_id]
            for instance_id in self._instances_by_pool.get(pool, ())
        }
        candidates.sort(
            key=lambda s: (s.server_id not in pool_instances, s.free_gpus)
        )
        return candidates[0]

    def remove_instance(self, instance_id: str) -> List[RequestState]:
        """Remove an instance, returning any requests it had not started."""
        instance = self.instances.pop(instance_id, None)
        if instance is None:
            return []
        pool_index = self._instances_by_pool.get(instance.pool)
        if pool_index is not None:
            pool_index.pop(instance_id, None)
        server_id = self._instance_server.pop(instance_id, None)
        if server_id is not None:
            self.servers[server_id].release(instance_id)
        leftover = list(instance.waiting) + list(instance.running)
        return leftover

    def reshard_instance(
        self,
        instance_id: str,
        new_tensor_parallelism: int,
        now: float,
        transfer_time_s: float,
        sync_time_s: float,
        requires_downtime: bool,
    ) -> bool:
        """Re-shard an instance in place if its server has room."""
        instance = self.instances.get(instance_id)
        if instance is None:
            return False
        server = self.servers[self._instance_server[instance_id]]
        growth = new_tensor_parallelism - instance.gpu_count
        if growth > 0 and server.free_gpus < growth:
            return False
        server.resize_allocation(instance_id, new_tensor_parallelism)
        instance.begin_resharding(
            new_tensor_parallelism,
            now,
            transfer_time_s=transfer_time_s,
            sync_time_s=sync_time_s,
            requires_downtime=requires_downtime,
        )
        return True

    def instances_in_pool(self, pool: str) -> List[InferenceInstance]:
        pool_index = self._instances_by_pool.get(pool)
        if not pool_index:
            return []
        return list(pool_index.values())

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self, now: float, dt: float, *, full_stats: bool = True) -> ClusterStepStats:
        """Advance every instance and account cluster power and energy.

        With ``full_stats=False`` (the engine's lean fast path, taken
        when no attached observer consumes timeline fields) the per-pool
        and per-TP breakdowns are skipped entirely: the returned stats
        carry the exact same scalar totals, ``energy_by_type_wh`` and
        ``outcomes``, but empty maps and zero ``active_gpus`` /
        ``average_frequency_mhz``.
        """
        self.collect_provisioned(now)
        power = 0.0
        energy_by_type: Dict[str, float] = {}
        pool_power: Dict[str, float] = {}
        pool_gpus: Dict[str, Dict[int, int]] = {}
        pool_freq_acc: Dict[str, List[float]] = {}
        gpus_by_tp: Dict[int, int] = {}
        outcomes: List[RequestOutcome] = []
        frequency_weighted = 0.0
        active_gpus = 0

        for instance in self.instances.values():
            stats = instance.step(now, dt)
            power += stats.power_watts
            if full_stats:
                active_gpus += instance.gpu_count
                frequency_weighted += stats.frequency_mhz * instance.gpu_count
                gpus_by_tp[instance.tensor_parallelism] = (
                    gpus_by_tp.get(instance.tensor_parallelism, 0) + instance.gpu_count
                )
                pool_power[instance.pool] = (
                    pool_power.get(instance.pool, 0.0) + stats.power_watts
                )
                pool_gpus.setdefault(instance.pool, {})
                pool_gpus[instance.pool][instance.tensor_parallelism] = (
                    pool_gpus[instance.pool].get(instance.tensor_parallelism, 0)
                    + instance.gpu_count
                )
                pool_freq_acc.setdefault(instance.pool, []).append(
                    float(stats.frequency_mhz)
                )
            for type_name, value in stats.energy_by_type_wh.items():
                energy_by_type[type_name] = energy_by_type.get(type_name, 0.0) + value
            outcomes.extend(instance.drain_completed())

        online = self.online_servers
        idle_power = sum(server.idle_gpu_power() for server in online)
        power += idle_power

        energy_wh = power * dt / 3600.0
        self.total_energy_wh += energy_wh
        for type_name, value in energy_by_type.items():
            self.energy_by_type_wh[type_name] = (
                self.energy_by_type_wh.get(type_name, 0.0) + value
            )
        online_gpus = sum(server.total_gpus for server in online)
        self._gpu_seconds += online_gpus * dt

        average_frequency = (
            frequency_weighted / active_gpus if active_gpus > 0 else 0.0
        )
        stats = ClusterStepStats(
            time=now,
            duration=dt,
            power_watts=power,
            energy_wh=energy_wh,
            online_servers=len(online),
            online_gpus=online_gpus,
            active_gpus=active_gpus,
            average_frequency_mhz=average_frequency,
            gpus_by_tp=gpus_by_tp,
            energy_by_type_wh=energy_by_type,
            pool_power_watts=pool_power,
            pool_gpus_by_tp=pool_gpus,
            pool_frequency_mhz={
                pool: sum(freqs) / len(freqs) for pool, freqs in pool_freq_acc.items()
            },
            outcomes=outcomes,
        )
        if self.record_history:
            self.step_history.append(stats)
        return stats
