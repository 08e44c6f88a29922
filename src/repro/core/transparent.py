"""Transparent just-in-time recovery (Section 4 of the paper).

:class:`RecoveryCoordinator` is the control-plane brain shared by all rank
proxies.  On a trigger (watchdog hang or surfaced device error) it runs
one recovery episode:

Transient path (Section 4.2), phase names matching Table 7:

1. ``delete_comms_handles`` — abort every communicator and stream; blocked
   worker CPUs wake at the interception layer and park until recovery
   completes.
2. ``reset_buffers`` — per rank, one of the paper's three cases:
   *healthy & version-consistent*: retain params/optimizer buffers, free
   the rest; *driver corruption*: stage params to host, restart the device
   proxy, copy back; *inaccessible (sticky) or version-behind (failed
   during optimizer)*: restart the proxy and copy parameters + optimizer
   state from a data-parallel replica (Section 4.2.2).
3. ``recreate_comms`` — new-generation NCCL communicators; every rank
   re-joins the rendezvous (the dominant cost in Table 7).
4. ``recreate_handles`` — recreate streams/events behind virtual handles.
5. ``replay`` — re-issue each rank's minibatch replay log (optimizer-phase
   records are skipped on ranks that received post-step replica state).

Hard path (Section 4.3) inserts: per-healthy-rank JIT checkpoint of GPU
state to the shared store (named by allocation tags so the failed rank can
read a replica's files), CRIU checkpoint of every worker's CPU state,
migration of the failed rank to a replacement GPU, CRIU restore, and GPU
state restore from the store — then continues with comms/handles/replay.

The application never observes any of this: its blocked API call simply
returns later.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.criu import CriuManager
from repro.core.checkpoints import CheckpointRegistry
from repro.core.config import JitConfig
from repro.core.proxy import DeviceProxyApi
from repro.core.telemetry import RecoveryTelemetry
from repro.core.watchdog import EventWatchdog
from repro.cuda.errors import CudaError
from repro.cuda.runtime import CudaContext
from repro.hardware.gpu import Gpu, GpuHealth
from repro.nccl.communicator import NcclCommunicator
from repro.sim import Environment, Event, Tracer
from repro.storage.manifest import manifest_path, write_with_manifest
from repro.storage.stores import SharedObjectStore, TornWriteError
from repro.workloads.builder import TrainingJob
from repro.workloads.catalog import WorkloadSpec


class RecoveryCoordinator:
    """Shared recovery controller for one job's rank proxies."""

    def __init__(self, env: Environment, config: JitConfig,
                 telemetry: RecoveryTelemetry,
                 criu: Optional[CriuManager] = None,
                 registry: Optional[CheckpointRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 settle_time: Optional[float] = None):
        self.env = env
        self.config = config
        self.telemetry = telemetry
        #: Delay between the first error signal and the stop-the-world
        #: abort; lets healthy devices drain in-flight local work so all
        #: healthy ranks freeze version-consistently (detection latency in
        #: the real system provides the same slack).
        self.settle_time = settle_time or config.recovery_settle_time
        self.criu = criu
        self.registry = registry
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.proxies: list[DeviceProxyApi] = []
        self.job: Optional[TrainingJob] = None
        self.in_recovery = False
        self._done_event: Event = env.event(name="recovery-done")
        self._done_event.succeed()
        #: original communicator name -> current-generation communicator.
        self._comm_map: dict[str, NcclCommunicator] = {}
        self.epoch = 0
        self.recoveries = 0

    # -- wiring ------------------------------------------------------------------------

    def register(self, proxy: DeviceProxyApi) -> None:
        self.proxies.append(proxy)

    def attach_job(self, job: TrainingJob) -> None:
        self.job = job
        self._comm_map = {comm.name: comm
                          for comm in job.nccl_world.communicators}

    def current_comm(self, comm: NcclCommunicator) -> NcclCommunicator:
        return self._comm_map.get(comm.name, comm)

    def wait_done(self) -> Event:
        return self._done_event

    # -- triggering -----------------------------------------------------------------------

    def trigger(self, reason: str, rank: int) -> None:
        """Start a recovery episode unless one is already running."""
        if self.in_recovery:
            return
        self.in_recovery = True
        self._done_event = self.env.event(name=f"recovery-done:{self.recoveries}")
        self.tracer.record(self.env.now, "recovery", "trigger",
                           reason=reason, rank=rank)
        self.env.process(self._recover(reason, rank),
                         name=f"recovery#{self.recoveries}")

    # -- the episode -------------------------------------------------------------------------

    def _classify(self) -> tuple[str, list[DeviceProxyApi]]:
        """Inspect hardware: is any rank's GPU gone for good?"""
        hard = [p for p in self.proxies
                if p.ctx.gpu.health is GpuHealth.DEAD or not p.ctx.node.alive]
        return ("hard" if hard else "transient"), hard

    def _reset_target(self) -> int:
        return max(p.current_minibatch for p in self.proxies)

    def _recover(self, reason: str, rank: int) -> Generator:
        # Settle: let healthy devices drain local in-flight work (e.g. an
        # optimizer step they already entered) before freezing the world;
        # this guarantees every healthy rank parks version-consistently.
        yield self.env.timeout(self.settle_time)

        kind, hard_ranks = self._classify()
        record = self.telemetry.start(kind, rank=rank)
        record.notes["reason"] = reason

        # Phase 1: delete communicators and GPU handles; every worker CPU
        # is forced to park at the interception layer.
        span = self.telemetry.begin(record, "delete_comms_handles")
        ncomms = len(self.job.nccl_world.communicators)
        self.job.nccl_world.abort_all("recovery")
        for proxy in self.proxies:
            proxy.abort_streams()
        yield from self._quiesce()
        yield self.env.timeout(self.config.handle_delete_time
                               + self.config.per_comm_delete_time * ncomms)
        self.telemetry.end(span)

        target = self._reset_target()
        base = self._choose_base_version(target)
        record.notes["minibatch"] = target
        record.notes["base_version"] = base

        if kind == "hard":
            yield from self._hard_error_steps(record, hard_ranks, base)
        else:
            yield from self._transient_reset(record, target, base)

        # Recreate NCCL communicators (all ranks rendezvous).
        span = self.telemetry.begin(record, "recreate_comms")
        yield from self._recreate_comms()
        self.telemetry.end(span)

        # Recreate GPU handles behind the virtual-handle table.
        span = self.telemetry.begin(record, "recreate_handles")
        handle_count = sum(proxy.recreate_handles() for proxy in self.proxies)
        yield self.env.timeout(self.config.per_handle_recreate_time
                               * max(1, handle_count))
        self.telemetry.end(span)

        # Replay each rank's minibatch log (plus the previous minibatch's
        # when the job was rolled back one parameter version).
        span = self.telemetry.begin(record, "replay")
        include_previous = base < target
        replayed = 0
        for proxy in self.proxies:
            proxy.restore_rng(include_previous=include_previous)
            replayed += proxy.replay(include_previous=include_previous)
        yield self.env.timeout(self.config.per_api_replay_time
                               * max(1, replayed))
        self.telemetry.end(span)
        record.notes["replayed_records"] = replayed

        # Fresh watchdogs (old watch lists refer to pre-reset events).
        for proxy in self.proxies:
            self._reset_watchdog(proxy)

        self.recoveries += 1
        self.epoch += 1
        self.in_recovery = False
        self.telemetry.finish(record)
        self._done_event.succeed()
        self.tracer.record(self.env.now, "recovery", "done", kind=kind)

    def _quiesce(self) -> Generator:
        """Wait until every rank's worker CPU has parked.

        Bounded: a worker that already finished its training loop never
        parks, so give up after one second of polling and proceed.
        """
        deadline = self.env.now + 1.0
        while (not all(p.parked for p in self.proxies)
               and self.env.now < deadline):
            yield self.env.timeout(self.config.quiesce_poll)

    # -- transient reset (Section 4.2) ------------------------------------------------------

    def _choose_base_version(self, target: int) -> int:
        """Pick the parameter version recovery resets the job to.

        Normally the target (the minibatch every CPU is in).  But when the
        failure froze every device *before* the previous iteration's
        (already enqueued) optimizer step executed — e.g. during replay-log
        validation, whose collectives wedge all ranks — no rank holds the
        target version, so everyone rolls back one version and the
        previous minibatch's log is replayed too (its records are retained
        for exactly this).
        """
        accessible = [p for p in self.proxies if p.ctx.gpu.is_accessible]
        if not accessible:
            raise RuntimeError(
                "every replica lost (no rank's GPU memory survives): "
                "transparent recovery impossible; restore from a periodic "
                "checkpoint instead (paper Section 6.3)")
        if any(p.completed_steps == target for p in accessible):
            return target
        if accessible and all(p.completed_steps == target - 1
                              for p in accessible):
            return target - 1
        versions = {p.rank: p.completed_steps for p in self.proxies}
        raise RuntimeError(
            f"inconsistent parameter versions at recovery: {versions} "
            f"with target {target}")

    def _transient_reset(self, record, target: int, base: int) -> Generator:
        """Reset every rank's GPU state to version *base*, in two waves.

        Wave 1: ranks whose own memory holds version *base* (retain or
        stage-through-host).  Wave 2: the rest copy from a wave-1 replica.
        """
        span = self.telemetry.begin(record, "reset_buffers")
        reset_times: dict[int, float] = {}
        wave1 = [p for p in self.proxies
                 if p.ctx.gpu.is_accessible and p.completed_steps == base]
        wave2 = [p for p in self.proxies if p not in set(wave1)]
        for wave, resetter in ((wave1, self._reset_rank_local),
                               (wave2, self._reset_rank_from_replica)):
            resets = [self.env.process(
                self._timed(resetter(proxy, base), reset_times, proxy.rank),
                name=f"reset:rank{proxy.rank}") for proxy in wave]
            if resets:
                yield self.env.all_of(resets)
        record.notes["reset_time_by_rank"] = reset_times
        self.telemetry.end(span)

    def _reset_rank_local(self, proxy: DeviceProxyApi,
                          base: int) -> Generator:
        gpu = proxy.ctx.gpu
        if gpu.health is GpuHealth.HEALTHY:
            # Cheapest path: keep params/optimizer on the GPU, free the rest.
            proxy.reset_nonpersistent_buffers()
            yield self.env.timeout(1e-3)
            return
        # Driver corruption suspected: stage persistent state to host,
        # restart the proxy (clears driver state), copy back.
        nbytes = proxy.persistent_state_bytes()
        yield from proxy.ctx.node.pcie_for(gpu).use(gpu.pcie_time(nbytes))
        self._restart_proxy(proxy, gpu)
        yield self.env.timeout(self.config.proxy_restart_time)
        yield from proxy.ctx.node.pcie_for(gpu).use(gpu.pcie_time(nbytes))
        proxy.rebind_persistent_buffers()

    def _reset_rank_from_replica(self, proxy: DeviceProxyApi,
                                 base: int) -> Generator:
        # GPU state unusable (sticky), or parameters not at the base
        # version: restart the proxy and pull state from a replica.
        self._restart_proxy(proxy, proxy.ctx.gpu)
        yield self.env.timeout(self.config.proxy_restart_time)
        yield from self._copy_from_replica(proxy, base)
        proxy.rebind_persistent_buffers()

    def _restart_proxy(self, proxy: DeviceProxyApi, gpu: Gpu) -> None:
        node = self.job.cluster.node_of(gpu)
        if gpu.health is not GpuHealth.HEALTHY:
            gpu.reset_driver()
        new_ctx = CudaContext(self.env, gpu, node, tracer=self.tracer)
        proxy.restart_proxy(new_ctx)

    def _find_replica(self, proxy: DeviceProxyApi,
                      target: int) -> Optional[DeviceProxyApi]:
        """A healthy same-shard peer whose parameters are at *target*."""
        my_shard = self.job.engines[proxy.rank].shard_id
        for peer in self.proxies:
            if peer is proxy:
                continue
            if (self.job.engines[peer.rank].shard_id == my_shard
                    and peer.ctx.gpu.is_accessible
                    and peer.completed_steps == target):
                return peer
        return None

    def _copy_from_replica(self, proxy: DeviceProxyApi,
                           target: int) -> Generator:
        replica = self._find_replica(proxy, target)
        if replica is None:
            raise RuntimeError(
                f"rank{proxy.rank}: no healthy data-parallel replica holds "
                f"version {target} — transparent recovery impossible "
                f"(full sharding or dp=1; use periodic checkpoints)")
        replica_engine = self.job.engines[replica.rank]
        my_engine = self.job.engines[proxy.rank]
        # Move the bytes: replica GPU -> (fabric) -> this GPU.
        nbytes = proxy.persistent_state_bytes() or my_engine.state_bytes
        src_node = replica.ctx.node.name
        dst_node = proxy.ctx.node.name
        bandwidth = self.job.cluster.fabric.bottleneck_bandwidth(
            {src_node, dst_node}, proxy.ctx.gpu.spec.nvlink_bandwidth)
        yield self.env.timeout(nbytes / bandwidth)
        # Same shard => same parameter names; copy replica contents in.
        for name, src in replica_engine.param_buffers.items():
            my_engine.param_buffers[name].array[...] = src.array
        for name, src in replica_engine.opt_buffers.items():
            my_engine.opt_buffers[name].array[...] = src.array
        # CPU-side optimizer bookkeeping must match the copied moments.
        my_engine.optimizer.load_state_dict(
            replica_engine.optimizer.state_dict())
        proxy.completed_steps = target

    # -- hard-error path (Section 4.3) ---------------------------------------------------------

    def _hard_error_steps(self, record, hard_ranks: list[DeviceProxyApi],
                          base: int) -> Generator:
        if self.registry is None or self.criu is None:
            raise RuntimeError("hard-error recovery needs a checkpoint "
                               "registry and a CRIU manager")
        hard_set = set(hard_ranks)

        # Healthy, version-consistent ranks JIT-checkpoint their GPU state
        # to the shared store.  A rank that froze *before* its in-flight
        # optimizer step ran (e.g. a driver corruption immediately followed
        # by this hard error) holds stale version-(base-1) parameters: it
        # must not write — it restores from a replica's file instead, the
        # hard-path analogue of the transient path's wave-2 replica copy.
        span = self.telemetry.begin(record, "jit_checkpoint")
        checkpoint_times: dict[int, float] = {}
        writes = [self.env.process(
            self._timed(self._write_gpu_checkpoint(p, base),
                        checkpoint_times, p.rank),
            name=f"hardckpt:rank{p.rank}")
            for p in self.proxies if p not in hard_set
            and p.ctx.gpu.is_accessible and p.completed_steps == base]
        yield self.env.all_of(writes)
        record.notes["checkpoint_time_by_rank"] = checkpoint_times
        record.notes["failed_ranks"] = sorted(p.rank for p in hard_ranks)
        self.telemetry.end(span)

        # CRIU checkpoint of every worker's CPU process.
        span = self.telemetry.begin(record, "criu_checkpoint")
        dumps = [self.env.process(
            self.criu.checkpoint(self.config.job_id, self.epoch, p.rank,
                                 cpu_state={"minibatch": base}),
            name=f"criu:rank{p.rank}") for p in self.proxies]
        yield self.env.all_of(dumps)
        self.telemetry.end(span)

        # Migrate failed ranks to replacement GPUs; restore CPU processes.
        span = self.telemetry.begin(record, "migrate")
        for proxy in hard_ranks:
            gpu, node = self._allocate_replacement_gpu()
            new_ctx = CudaContext(self.env, gpu, node, tracer=self.tracer)
            proxy.restart_proxy(new_ctx)
        # Surviving ranks whose GPU carries recoverable driver/sticky state
        # (a transient failure overlapped this hard error) get the same
        # proxy restart the transient path would have given them.
        for proxy in self.proxies:
            if proxy in hard_set:
                continue
            if proxy.ctx.gpu.health is not GpuHealth.HEALTHY:
                self._restart_proxy(proxy, proxy.ctx.gpu)
        restores = [self.env.process(
            self.criu.restore(self.config.job_id, self.epoch, p.rank),
            name=f"criu-restore:rank{p.rank}") for p in self.proxies]
        yield self.env.all_of(restores)
        yield self.env.timeout(self.config.proxy_restart_time)
        self.telemetry.end(span)

        # Restore GPU buffers; failed ranks read a replica's files (the
        # allocation-tag naming makes the paths match across ranks).
        span = self.telemetry.begin(record, "restore")
        reads = [self.env.process(self._read_gpu_checkpoint(p, base),
                                  name=f"hardrestore:rank{p.rank}")
                 for p in self.proxies]
        yield self.env.all_of(reads)
        self.telemetry.end(span)

    def _timed(self, generator, sink: dict[int, float], rank: int):
        """Run *generator* and record its duration under *rank*."""
        start = self.env.now
        yield from generator
        sink[rank] = self.env.now - start

    def _ckpt_path(self, shard_id: str, rank: int) -> str:
        return f"{self.config.job_id}/transparent/e{self.epoch}/{shard_id}/rank{rank}"

    def _write_gpu_checkpoint(self, proxy: DeviceProxyApi,
                              target: int) -> Generator:
        engine = self.job.engines[proxy.rank]
        payload = {vbuf.allocation_tag: vbuf.array.copy()
                   for vbuf in proxy.persistent_buffers()}
        payload["__minibatch__"] = target
        # CPU-side optimizer scalars travel with the GPU state: a reader
        # that is one version behind (its optimizer kernel was killed
        # in-flight) must adopt the writer's step count or Adam's bias
        # correction diverges by one step.
        payload["__step_count__"] = engine.optimizer.step_count
        nbytes = proxy.persistent_state_bytes()
        gpu = proxy.ctx.gpu
        yield from proxy.ctx.node.pcie_for(gpu).use(gpu.pcie_time(nbytes))
        path = self._ckpt_path(engine.shard_id, proxy.rank)
        try:
            yield from write_with_manifest(self.registry.store, path,
                                           manifest_path(path), payload,
                                           nbytes)
        except TornWriteError:
            # Upload torn mid-transfer: only an unreadable partial temp
            # object exists; a data-parallel replica's file covers the
            # shard on the restore side.
            pass

    def _read_gpu_checkpoint(self, proxy: DeviceProxyApi,
                             target: int) -> Generator:
        engine = self.job.engines[proxy.rank]
        store = self.registry.store
        # Prefer our own file; fall back to any replica of our shard.
        # Every candidate must pass manifest validation — bit rot at rest
        # condemns the file to quarantine and the next replica is tried.
        candidates = [self._ckpt_path(engine.shard_id, proxy.rank)]
        candidates += [self._ckpt_path(engine.shard_id, peer.rank)
                       for peer in self.proxies if peer is not proxy]
        path = None
        for cand in candidates:
            if not store.exists(cand):
                continue
            result = self.registry.validator.validate_at_rest(
                cand, manifest_path(cand))
            if result.ok:
                path = cand
                break
            self.registry.validator.condemn(cand, manifest_path(cand),
                                            result.detail)
        if path is None:
            raise RuntimeError(
                f"rank{proxy.rank}: no valid replica checkpoint for shard "
                f"{engine.shard_id!r}")
        payload = yield from store.read(path)
        for vbuf in proxy.persistent_buffers():
            if vbuf.allocation_tag in payload:
                vbuf.array[...] = payload[vbuf.allocation_tag]
        engine.optimizer.step_count = payload["__step_count__"]
        gpu = proxy.ctx.gpu
        nbytes = proxy.persistent_state_bytes()
        yield from proxy.ctx.node.pcie_for(gpu).use(gpu.pcie_time(nbytes))
        proxy.rebind_persistent_buffers()
        proxy.completed_steps = target

    def _allocate_replacement_gpu(self):
        used = {p.ctx.gpu for p in self.proxies}
        while True:
            for node in self.job.cluster.nodes:
                if not node.alive:
                    continue
                for gpu in node.gpus:
                    if gpu.is_usable and gpu not in used:
                        return gpu, node
            broken = next((n for n in self.job.cluster.nodes
                           if not n.alive
                           or any(not g.is_usable for g in n.gpus)), None)
            if broken is None or self.job.cluster.spares_available == 0:
                raise RuntimeError("no replacement GPU available")
            self.job.cluster.replace_node(broken)

    # -- shared helpers -----------------------------------------------------------------------

    def _recreate_comms(self) -> Generator:
        world = self.job.nccl_world
        successors: dict[str, NcclCommunicator] = {}
        for comm in list(world.communicators):
            handles = [type(h)(h.rank, self.proxies[h.rank].ctx)
                       for h in comm.handles.values()]
            successors[comm.name] = world.recreate(comm, handles=handles)
        self._comm_map = successors
        inits = []
        for comm in successors.values():
            for member in comm.ranks:
                inits.append(self.env.process(
                    comm.init_rank(member),
                    name=f"reinit:{comm.name}:r{member}"))
        if inits:
            yield self.env.all_of(inits)

    def _reset_watchdog(self, proxy: DeviceProxyApi) -> None:
        old = proxy.watchdog
        old.stop()
        proxy.watchdog = EventWatchdog(
            self.env, query=proxy._query_physical, on_hang=proxy._on_hang,
            timeout=old.timeout, poll_interval=old.poll_interval,
            name=old.name)


class TransparentJitSystem:
    """Factory + facade for running a workload under transparent JIT."""

    def __init__(self, env: Environment, spec: WorkloadSpec,
                 store: Optional[SharedObjectStore] = None,
                 config: Optional[JitConfig] = None,
                 tracer: Optional[Tracer] = None):
        self.env = env
        self.spec = spec
        self.config = config or JitConfig()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.telemetry = RecoveryTelemetry(env, self.tracer)
        registry = CheckpointRegistry(store, self.config.job_id) if store else None
        criu = CriuManager(env, store) if store else None
        self.coordinator = RecoveryCoordinator(
            env, self.config, self.telemetry, criu=criu, registry=registry,
            tracer=self.tracer,
            settle_time=max(self.config.recovery_settle_time,
                            1.5 * spec.minibatch_time))
        self.watchdog_timeout = max(self.config.watchdog_timeout,
                                    2.5 * spec.minibatch_time)

    def api_factory(self, ctx: CudaContext, rank: int) -> DeviceProxyApi:
        return DeviceProxyApi(ctx, rank, self.config, self.coordinator,
                              watchdog_timeout=self.watchdog_timeout)

    def build_job(self, **kwargs) -> TrainingJob:
        job = TrainingJob(self.spec, env=self.env,
                          api_factory=self.api_factory,
                          tracer=self.tracer, **kwargs)
        self.coordinator.attach_job(job)
        return job

    @property
    def proxies(self) -> list[DeviceProxyApi]:
        return self.coordinator.proxies

    def run_training(self, job: TrainingJob,
                     num_iterations: int) -> list[list[float]]:
        """Drive every rank for *num_iterations*; recovery is transparent."""
        def worker(engine):
            yield from engine.setup()
            yield from engine.train(num_iterations)

        procs = [self.env.process(worker(engine), name=f"rank{i}")
                 for i, engine in enumerate(job.engines)]
        self.env.run(until=self.env.all_of(procs))
        return [list(engine.loss_history) for engine in job.engines]
