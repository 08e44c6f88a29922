"""User-level just-in-time checkpointing (Section 3 of the paper).

Components, matching the paper's architecture:

* :class:`UserLevelInterceptApi` — the LD_PRELOAD-style interception
  shim: it notices ``cudaEventRecord`` on streams that carry collectives
  and adds those events to the watchdog's watch list (Section 3.1).
* :class:`JitRankClient` — the per-rank library instance: owns the
  watchdog, performs the on-hang checkpoint of GPU state over a *side
  stream* (the ``cudaMemcpy`` deadlock fix of Section 3.2), writes to a
  rank-dependent path with a trailing metadata commit, and notifies the
  scheduler.
* :class:`JitCoordinator` — the scheduler-side bookkeeping: collects hang
  reports and checkpoint acknowledgements and declares the job ready to
  restart once at least one data-parallel replica of *every* shard has
  checkpointed (Section 3.3).
* :class:`UserLevelJitRunner` — end-to-end driver tying the library into
  the cluster job manager: restart, checkpoint assembly via
  ``jit_get_checkpoint_path``, resume.
"""

from __future__ import annotations

import weakref
from typing import Generator, Optional

from repro.cluster.manager import JobManager, RunReport
from repro.cluster.worker import InitCosts, WorkerMessage, WorkerStatus
from repro.core.checkpoints import CheckpointKey, CheckpointRegistry
from repro.core.config import JitConfig
from repro.core.telemetry import RecoveryTelemetry
from repro.core.watchdog import EventWatchdog, WatchedEvent
from repro.cuda.errors import CudaApiError
from repro.cuda.runtime import CudaContext
from repro.parallel.deviceapi import DeviceApi
from repro.sim import AnyOf, Environment
from repro.storage.stores import SharedObjectStore, TornWriteError
from repro.workloads.catalog import WorkloadSpec


class UserLevelInterceptApi(DeviceApi):
    """Interception shim: feeds collective-ordered events to the watchdog."""

    def __init__(self, ctx: CudaContext, rank: int, client: "JitRankClient"):
        super().__init__(ctx, rank)
        self.client = client
        client.attach_api(self)

    def event_record(self, event, stream=None) -> None:
        super().event_record(event, stream)
        stream = stream or self.ctx.default_stream
        if stream.saw_collective:
            self.client.watch(event)

    def follow(self, batch, names: dict, twins: dict) -> None:
        # The events this rank would have recorded are the leader's,
        # watched exactly as if recorded here.
        for event in batch.events:
            if event.recorded_on.saw_collective:
                self.client.watch(event)

    def follow_retarget(self, copies: dict) -> None:
        self.client.retarget(copies)


class JitRankClient:
    """Per-rank user-level JIT library instance."""

    def __init__(self, env: Environment, rank: int, config: JitConfig,
                 registry: CheckpointRegistry, coordinator: "JitCoordinator",
                 telemetry: RecoveryTelemetry,
                 watchdog_timeout: Optional[float] = None):
        self.env = env
        self.rank = rank
        self.config = config
        self.registry = registry
        self.coordinator = coordinator
        self.telemetry = telemetry
        self.watchdog_timeout = watchdog_timeout or config.watchdog_timeout
        self.api: Optional[DeviceApi] = None
        self.engine = None
        self._watchdog: Optional[EventWatchdog] = None
        #: A user-supplied checkpoint function may replace the built-in
        #: (the paper's ``save_checkpoint`` callback); it must be a
        #: generator taking (client) and must avoid collectives.
        self.save_checkpoint_fn = None

    # -- wiring ----------------------------------------------------------------------

    # The job owns its APIs and engines, and each API owns its client:
    # the client's views of them are weak, or the three form a cycle.

    def attach_api(self, api: DeviceApi) -> None:
        self.api = weakref.proxy(api)

    def bind(self, engine) -> None:
        self.engine = weakref.proxy(engine)
        self._watchdog = EventWatchdog(
            self.env, query=self.api.ctx.event_query, on_hang=self._on_hang,
            timeout=self.watchdog_timeout, poll_interval=self.config.watchdog_poll,
            name=f"jit-watchdog:rank{self.rank}")

    def watch(self, event) -> None:
        if self._watchdog is not None:
            self._watchdog.watch(event)

    def retarget(self, copies: dict) -> None:
        if self._watchdog is not None:
            self._watchdog.retarget(copies)

    def stop(self) -> None:
        if self._watchdog is not None:
            self._watchdog.stop()

    # -- hang handling ------------------------------------------------------------------

    def _on_hang(self, watchdog: EventWatchdog, watched: WatchedEvent) -> None:
        record = self.telemetry.start("user_level", rank=self.rank)
        record.notes["iteration"] = self.engine.iteration
        self.coordinator.report_hang(self.rank, self.engine.iteration)
        # The watchdog thread performs the checkpoint; the worker stays
        # blocked in its hung API call, exactly like the paper's design.
        self.env.process(self._checkpoint_proc(record),
                         name=f"jit-ckpt:rank{self.rank}")

    def _checkpoint_proc(self, record) -> Generator:
        span = self.telemetry.begin(record, "checkpoint")
        checkpoint_fn = self.save_checkpoint_fn or self._builtin_save_checkpoint
        try:
            key = yield from checkpoint_fn(self)
        except (CudaApiError, TornWriteError) as exc:
            # This rank cannot contribute a checkpoint: its own GPU is
            # gone, or the store tore the upload mid-transfer (the torn
            # object is a partial temp file no reader can observe).  A
            # data-parallel replica covers its shard either way.
            record.notes["checkpoint_failed"] = str(exc)
            self.telemetry.end(span)
            self.telemetry.finish(record)
            self.coordinator.report_checkpoint_failed(self.rank)
            return
        self.telemetry.end(span)
        self.telemetry.finish(record)
        self.coordinator.report_checkpointed(self.rank, key)

    def _builtin_save_checkpoint(self, _client) -> Generator:
        """Default ``save_checkpoint``: engine state over a side stream.

        No collectives are issued (the paper's key rule for the on-failure
        checkpoint path), and device reads go through the rescue path on a
        fresh stream, bypassing the blocked default stream.
        """
        ctx = self.api.ctx
        engine = self.engine
        copy_time = 0.0
        for buf in (list(engine.param_buffers.values())
                    + list(engine.opt_buffers.values())):
            _array, duration = ctx.rescue_copy_d2h(buf)
            copy_time += duration
        # Serialise the copies on this GPU's PCIe link (side stream).
        yield from ctx.node.pcie_for(ctx.gpu).use(copy_time)
        state = engine.state_dict()
        # Label with the state's own resume point (the device-applied
        # version), not the run-ahead counter: a device that died with the
        # optimizer still queued is one version behind, and assembly must
        # be able to prefer a replica that got further (Section 3.3).
        key = CheckpointKey(kind="jit", epoch=self.coordinator.epoch,
                            shard_id=engine.shard_id, rank=self.rank,
                            iteration=int(state["iteration"]))
        yield from self.registry.write(key, state, nbytes=engine.state_bytes)
        return key


class JitCoordinator:
    """Scheduler-side failure/acknowledgement bookkeeping."""

    def __init__(self, env: Environment, registry: CheckpointRegistry,
                 config: JitConfig):
        self.env = env
        self.registry = registry
        self.config = config
        self.epoch = 0
        self.required_shards: set[str] = set()
        self.acked_shards: set[str] = set()
        self.hang_reports: list[tuple[int, int]] = []
        self.checkpoint_keys: list[CheckpointKey] = []
        self._ready = env.event(name="jit-ready")
        #: The job manager's control mailbox (for scheduler notification).
        self.control = None
        self._notified = False

    def begin_generation(self, engines) -> None:
        self.required_shards = {engine.shard_id for engine in engines}
        self.acked_shards = set()
        self._ready = self.env.event(name=f"jit-ready:e{self.epoch}")
        self._notified = False

    # -- reports from rank clients ---------------------------------------------------

    def report_hang(self, rank: int, iteration: int) -> None:
        self.hang_reports.append((rank, iteration))
        if self.control is not None and not self._notified:
            self._notified = True
            self.control.put(WorkerMessage(
                rank, WorkerStatus.CRASHED,
                detail="hang detected by JIT watchdog", time=self.env.now))

    def report_checkpointed(self, rank: int, key: CheckpointKey) -> None:
        self.checkpoint_keys.append(key)
        self.acked_shards.add(key.shard_id)
        if (self.required_shards and
                self.required_shards <= self.acked_shards and
                not self._ready.triggered):
            self._ready.succeed()

    def report_checkpoint_failed(self, rank: int) -> None:
        pass  # replicas cover the shard; nothing to record

    # -- scheduler side ------------------------------------------------------------------

    def wait_ready(self, timeout: float) -> Generator:
        """Wait for full shard coverage or give up after *timeout*.

        Gives the paper's guarantee a deadline: if a shard has no healthy
        replica (e.g. dp=1), restart falls back to older checkpoints.
        """
        if not self._ready.triggered:
            yield AnyOf(self.env, [self._ready, self.env.timeout(timeout)])
        return self._ready.triggered


class UserLevelJitRunner:
    """End-to-end Section 3 driver on top of the cluster job manager."""

    def __init__(self, env: Environment, spec: WorkloadSpec,
                 store: SharedObjectStore, target_iterations: int,
                 config: Optional[JitConfig] = None,
                 init_costs: Optional[InitCosts] = None,
                 progress_timeout: float = 60.0,
                 periodic_policy=None):
        self.env = env
        self.spec = spec
        self.config = config or JitConfig()
        #: Optional low-frequency periodic checkpointing alongside JIT
        #: ("JIT and periodic checkpointing may be used together ... the
        #: most recent checkpoint will be used", Section 6.3).  Needed for
        #: catastrophes that wipe every replica of a shard.
        self.periodic_policy = periodic_policy
        self.registry = CheckpointRegistry(store, self.config.job_id)
        self.telemetry = RecoveryTelemetry(env)
        self.manager = JobManager(env, spec, target_iterations,
                                  init_costs=init_costs,
                                  progress_timeout=progress_timeout)
        self.coordinator = JitCoordinator(env, self.registry, self.config)
        self.clients: dict[int, JitRankClient] = {}
        #: Collectives can legitimately stay pending for a whole minibatch,
        #: so the hang timeout scales with the workload's minibatch time.
        self.watchdog_timeout = max(self.config.watchdog_timeout,
                                    2.5 * spec.minibatch_time)
        self._resume_iteration: Optional[int] = None

    # -- manager hooks ----------------------------------------------------------------

    def _make_api_factory(self, generation: int):
        self.clients = {}

        def factory(ctx: CudaContext, rank: int) -> DeviceApi:
            client = JitRankClient(self.env, rank, self.config, self.registry,
                                   self.coordinator, self.telemetry,
                                   watchdog_timeout=self.watchdog_timeout)
            self.clients[rank] = client
            return UserLevelInterceptApi(ctx, rank, client)

        return factory

    def _on_generation_start(self, generation: int, job, workers) -> None:
        self.coordinator.begin_generation(job.engines)
        self.coordinator.control = self.manager.current_control
        for rank, engine in enumerate(job.engines):
            self.clients[rank].bind(engine)
        # Resolve the resume point once per generation (checkpoint
        # assembly): the newest iteration every shard can restore *with
        # integrity* — corrupt candidates are quarantined by the planner
        # and the plan falls back to the newest one that validates.
        shard_ids = [engine.shard_id for engine in job.engines]
        plan = self.registry.planner.plan(shard_ids)
        self._resume_iteration = plan.iteration
        # Old failure epochs are dead weight once a newer consistent
        # restore point exists; reclaim the store.
        self.registry.garbage_collect(shard_ids, keep_iterations=2)

    def _make_restore_fn(self, generation: int, rank: int, job):
        engine = job.engines[rank]

        def restore(worker) -> Generator:
            if self._resume_iteration is None:
                return  # cold start from iteration 0
            key = self.registry.valid_checkpoint_at(engine.shard_id,
                                                    self._resume_iteration)
            if key is None:  # pragma: no cover - plan implies a valid key
                return
            record = self.telemetry.start("user_level_restore", rank=rank)
            span = self.telemetry.begin(record, "restore")
            state = yield from self.registry.read_valid_replica(key)
            engine.load_state_dict(state)
            # Upload parameters + optimizer state back to the GPU.
            ctx = engine.api.ctx
            h2d_time = ctx.gpu.pcie_time(engine.state_bytes)
            yield from ctx.node.pcie_for(ctx.gpu).use(h2d_time)
            self.telemetry.end(span)
            record.notes["iteration"] = engine.iteration
            self.telemetry.finish(record)

        return restore

    def _before_restart(self, generation: int, outcome: str, job,
                        workers) -> Generator:
        yield from self.coordinator.wait_ready(
            self.config.checkpoint_wait_timeout)
        for client in self.clients.values():
            client.stop()
        self.coordinator.epoch += 1

    def _make_step_hook(self, generation: int, rank: int, job):
        if self.periodic_policy is None:
            return None
        from repro.core.periodic import PeriodicCheckpointer

        checkpointer = PeriodicCheckpointer(self.env, self.periodic_policy,
                                            self.registry, self.spec,
                                            self.telemetry)
        return checkpointer.hook

    # -- running --------------------------------------------------------------------------

    def run(self) -> Generator:
        report = yield from self.manager.run(
            make_api_factory=self._make_api_factory,
            make_restore_fn=self._make_restore_fn,
            make_step_hook=self._make_step_hook,
            before_restart=self._before_restart,
            on_generation_start=self._on_generation_start)
        return report

    def start(self):
        """Create the runner process without driving the event loop.

        Prefix-fork campaign scheduling uses this to advance the shared
        failure-free prefix with ``env.run_until_before`` before forking;
        the returned :class:`~repro.sim.Process` resolves to the
        :class:`RunReport` once ``env.run(until=proc)`` completes it.
        """
        return self.env.process(self.run(), name="jit-runner")

    def execute(self) -> RunReport:
        """Blocking convenience wrapper: run the whole job now."""
        return self.env.run(until=self.start())
