"""Materialise a full simulated training job from a WorkloadSpec.

Builds, in dependency order: the cluster hardware, one CUDA context per
rank, the NCCL world and per-group communicators, the synthetic dataset,
and one engine per rank.  An ``api_factory`` hook lets callers interpose
the paper's interception layers between engines and the device.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from repro.cuda.runtime import CudaContext
from repro.framework.data import SyntheticDataset
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.hardware.gpu import Gpu
from repro.hardware.node import Node
from repro.nccl.communicator import NcclCommunicator, NcclWorld, RankHandle
from repro.nccl.cost import CollectiveCostModel
from repro.parallel.ddp import DataParallelEngine
from repro.parallel.deviceapi import DeviceApi
from repro.parallel.fsdp import FsdpEngine
from repro.parallel.three_d import ThreeDEngine
from repro.sim import Environment, Tracer
from repro.workloads.catalog import WorkloadSpec

ApiFactory = Callable[[CudaContext, int], DeviceApi]


class TrainingJob:
    """Everything needed to run one Table 2 workload in simulation.

    Whoever creates an :class:`Environment` ends it.  A job built with
    ``env=None`` created its own and closes it when dropped.  Nothing
    refers back to a job, so that happens by refcount as soon as the
    caller's last reference goes, and the whole simulation goes with it.
    A job built on a caller's ``env`` (a restart generation, the
    transparent system's job) leaves it to that caller; the owners of
    such shared environments are ``StrategyRun.release``,
    ``prefix.run_prefix_group`` and ``_execute_campaign_scenario``.
    """

    def __init__(self, spec: WorkloadSpec, env: Optional[Environment] = None,
                 api_factory: Optional[ApiFactory] = None,
                 tracer: Optional[Tracer] = None, spare_nodes: int = 1,
                 cluster: Optional[Cluster] = None):
        self.spec = spec
        if env is None:
            env = Environment()
            weakref.finalize(self, env.close).atexit = False
        self.env = env
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: Reusing a cluster lets a restarted job generation land on the
        #: same hardware minus any failed devices (scheduler behaviour).
        self.cluster = cluster or Cluster(
            self.env,
            ClusterSpec(node_spec=spec.node_spec, num_nodes=spec.num_nodes,
                        spare_nodes=spare_nodes),
            tracer=self.tracer)
        world_size = spec.world_size
        self._gpu_slots = self._allocate_gpus(world_size)
        # Used while building only: a factory is usually a bound method
        # of whatever owns the job, so keeping it would make them a cycle.
        api_factory = api_factory or (lambda ctx, rank: DeviceApi(ctx, rank))
        self.contexts: list[CudaContext] = []
        self.apis: list[DeviceApi] = []
        for rank in range(world_size):
            node, gpu = self._gpu_slots[rank]
            ctx = CudaContext(self.env, gpu, node, tracer=self.tracer)
            self.contexts.append(ctx)
            self.apis.append(api_factory(ctx, rank))
        self.nccl_world = NcclWorld(self.env, fabric=self.cluster.fabric,
                                    tracer=self.tracer)
        self.cost = spec.cost_model()
        self.dataset = SyntheticDataset(
            seed=spec.seed, n_features=spec.config.d_model,
            n_classes=spec.config.n_classes, global_batch=spec.global_batch)
        #: rank -> {"dp"/"tp"/"pp"/"shard"/"replica": communicator}
        self.rank_comms: list[dict[str, Optional[NcclCommunicator]]] = [
            {} for _ in range(world_size)
        ]
        from repro.framework import dedup

        #: member rank -> its replica group's leader rank: the ranks whose
        #: engines are born bound to the leader's arrays.
        self._leaders = dedup.replica_leaders(self)
        self.engines = self._build_engines()
        #: Replica arenas sharing params/grads/moments across DP groups
        #: (empty when dedup is off or no group has >= 2 members).
        self.dedup_arenas = dedup.attach_job(self)

    # -- placement -----------------------------------------------------------------

    def _allocate_gpus(self, world_size: int) -> list[tuple[Node, Gpu]]:
        """Pick healthy GPUs node-major, swapping in spares as needed.

        Node-major order keeps tensor-parallel neighbours (adjacent ranks)
        on the same node, and excludes failed GPUs the way the paper's
        scheduler reschedules "on a set of nodes which excludes any failing
        GPU(s)" (Section 3).
        """
        while True:
            slots = [(node, gpu) for node in self.cluster.nodes if node.alive
                     for gpu in node.gpus if gpu.is_usable]
            if len(slots) >= world_size:
                return slots[:world_size]
            broken = next((node for node in self.cluster.nodes
                           if not node.alive or
                           any(not gpu.is_usable for gpu in node.gpus)), None)
            if broken is None or self.cluster.spares_available == 0:
                raise RuntimeError(
                    f"{self.spec.name}: cannot place {world_size} ranks on "
                    f"{len(slots)} healthy GPUs and no spares remain")
            self.cluster.replace_node(broken)

    def _placement(self, rank: int) -> tuple[Node, Gpu]:
        return self._gpu_slots[rank]

    def node_names_of(self, ranks: list[int]) -> set[str]:
        return {self.contexts[r].node.name for r in ranks}

    # -- communicators ----------------------------------------------------------------

    def comm_cost(self, ranks: list[int]) -> CollectiveCostModel:
        names = self.node_names_of(ranks)
        nvlink = self.spec.node_spec.gpu.nvlink_bandwidth
        return CollectiveCostModel(
            bandwidth=self.cluster.fabric.bottleneck_bandwidth(names, nvlink),
            latency=self.cluster.fabric.latency(names))

    def make_comm(self, name: str, ranks: list[int]) -> NcclCommunicator:
        """Create a communicator over *ranks*, addressed by global rank.

        Collective data placement (all-gather concatenation order,
        reduce-scatter chunk ownership) follows sorted global rank, which
        matches how engines compute their shard slots.
        """
        handles = [RankHandle(r, self.contexts[r]) for r in sorted(ranks)]
        return self.nccl_world.create_communicator(name, handles,
                                                   self.comm_cost(ranks))

    # -- engines -------------------------------------------------------------------------

    def _build_engines(self) -> list:
        builder = {
            "ddp": self._build_ddp,
            "3d": self._build_3d,
            "fsdp": self._build_fsdp,
        }.get(self.spec.engine)
        if builder is None:
            raise ValueError(f"unknown engine kind {self.spec.engine!r}")
        return builder()

    def _leader(self, rank: int, engines: list):
        """The engine *rank* is born bound to, or None (private state)."""
        leader = self._leaders.get(rank)
        return None if leader is None else engines[leader]

    def _build_ddp(self) -> list[DataParallelEngine]:
        spec = self.spec
        world = spec.world_size
        comm = self.make_comm("dp", list(range(world))) if world > 1 else None
        engines = []
        for rank in range(world):
            self.rank_comms[rank]["dp"] = comm
            engines.append(DataParallelEngine(
                self.apis[rank], comm, spec.config, self.cost, self.dataset,
                dp_rank=rank, dp_world=world, seed=spec.seed,
                optimizer_kind=spec.optimizer, dropout=spec.dropout,
                leader=self._leader(rank, engines)))
        return engines

    def _build_3d(self) -> list[ThreeDEngine]:
        spec = self.spec
        layout = spec.layout
        comms_by_group: dict[tuple, NcclCommunicator] = {}

        def group_comm(kind: str, ranks: list[int]) -> Optional[NcclCommunicator]:
            if len(ranks) <= 1:
                return None
            key = (kind, tuple(sorted(ranks)))
            if key not in comms_by_group:
                comms_by_group[key] = self.make_comm(
                    f"{kind}:{'-'.join(map(str, sorted(ranks)))}", ranks)
            return comms_by_group[key]

        world_ranks = list(range(layout.world_size))
        engines = []
        for rank in range(layout.world_size):
            c = layout.coords(rank)
            comms = {
                "dp": group_comm("dp", layout.dp_group(c.pp, c.tp)),
                "tp": group_comm("tp", layout.tp_group(c.dp, c.pp)),
                "pp": group_comm("pp", layout.pp_group(c.dp, c.tp)),
                "world": group_comm("world", world_ranks),
            }
            self.rank_comms[rank] = comms
            engines.append(ThreeDEngine(
                self.apis[rank], layout, rank, comms,
                spec.config, self.cost, self.dataset,
                n_microbatches=spec.n_microbatches, seed=spec.seed,
                optimizer_kind=spec.optimizer,
                leader=self._leader(rank, engines)))
        return engines

    def _build_fsdp(self) -> list[FsdpEngine]:
        spec = self.spec
        world = spec.world_size
        per_node = spec.node_spec.gpus_per_node
        if spec.fsdp_hybrid:
            shard_groups = [list(range(n * per_node, (n + 1) * per_node))
                            for n in range(world // per_node)]
        else:
            shard_groups = [list(range(world))]
        shard_world = len(shard_groups[0])
        engines: list[FsdpEngine] = []
        shard_comms = {}
        replica_comms = {}
        for gi, group in enumerate(shard_groups):
            shard_comms[gi] = self.make_comm(f"shard{gi}", group)
        if spec.fsdp_hybrid and len(shard_groups) > 1:
            for slot in range(shard_world):
                ranks = [group[slot] for group in shard_groups]
                replica_comms[slot] = self.make_comm(f"replica{slot}", ranks)
        world_comm = (self.make_comm("world", list(range(world)))
                      if len(shard_groups) > 1 else None)
        for rank in range(world):
            gi, slot = rank // shard_world, rank % shard_world
            shard_comm = shard_comms[gi]
            replica_comm = replica_comms.get(slot)
            self.rank_comms[rank] = {"shard": shard_comm,
                                     "replica": replica_comm,
                                     "world": world_comm}
            engines.append(FsdpEngine(
                self.apis[rank], rank, world, shard_comm, shard_rank=slot,
                shard_world=shard_world, replica_comm=replica_comm,
                config=spec.config, cost=self.cost, dataset=self.dataset,
                seed=spec.seed, optimizer_kind=spec.optimizer,
                world_comm=world_comm, leader=self._leader(rank, engines)))
        return engines

    # -- replica deduplication ------------------------------------------------------------

    def dedup_groups(self) -> list[tuple[list[int], bool]]:
        """(global ranks, group_math) per group of bitwise-identical replicas.

        Mirrors the communicator topology above: pure DDP shares one group
        over all ranks (with full math memoisation when deterministic);
        3D shares each (pp, tp) cell's DP group; hybrid FSDP shares each
        shard slot's cross-node replica group.  Fully-sharded FSDP has a
        single replica of every parameter — nothing to deduplicate.
        """
        spec = self.spec
        if spec.engine == "ddp":
            return [(list(range(spec.world_size)), spec.dropout == 0.0)]
        if spec.engine == "3d":
            layout = spec.layout
            return [(layout.dp_group(pp, tp), False)
                    for pp in range(layout.pp) for tp in range(layout.tp)]
        per_node = spec.node_spec.gpus_per_node
        if not spec.fsdp_hybrid or spec.world_size <= per_node:
            return []
        n_groups = spec.world_size // per_node
        return [([group * per_node + slot for group in range(n_groups)], False)
                for slot in range(per_node)]

    # -- teardown ------------------------------------------------------------------------

    def teardown(self) -> None:
        """Kill the job's device-side residue before a restart.

        Aborts all collectives (waking blocked ranks with errors) and all
        stream executors, and releases logical GPU memory.
        """
        self.nccl_world.abort_all("job teardown")
        for ctx in self.contexts:
            ctx.destroy()
        for arena in self.dedup_arenas:
            arena.detach()

    # -- drivers -----------------------------------------------------------------------

    def run_training(self, num_iterations: int,
                     until: Optional[float] = None) -> list[list[float]]:
        """Convenience driver: run every rank for *num_iterations* steps.

        Returns per-rank loss histories.  Only valid when no failures are
        injected (otherwise use the cluster scheduler driver).
        """
        def worker(engine):
            yield from engine.setup()
            yield from engine.train(num_iterations)

        procs = [self.env.process(worker(engine), name=f"rank{i}")
                 for i, engine in enumerate(self.engines)]
        if until is None:
            self.env.run(until=self.env.all_of(procs))
        else:
            self.env.run(until=until)
        return [list(engine.loss_history) for engine in self.engines]
