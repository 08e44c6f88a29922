"""Periodic checkpointing baselines (Section 6.3 of the paper).

Three write paths, matching the paper's baselines:

* ``PC_disk`` — ``torch.save`` to persistent disk in the critical path:
  the job pauses for the device->host copy *and* the disk write.
* ``PC_mem`` — optimised snapshot to a tmpfs mount (Nebula-style): the
  critical path pays the device->host copy and the RAM-speed file write;
  upload to the persistent store happens asynchronously.
* ``CheckFreq`` — snapshot GPU state inside device memory at HBM speed
  (the only stall), then copy out and persist fully asynchronously.

A fourth configuration, ``PC_1/day``, is PC_mem on a once-a-day interval —
the low-frequency safety net the paper suggests combining with JIT
checkpointing for catastrophic multi-node failures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, Optional

from repro.cluster.manager import JobManager, RunReport
from repro.cluster.worker import InitCosts
from repro.core.checkpoints import CheckpointKey, CheckpointRegistry
from repro.core.config import JitConfig
from repro.core.telemetry import RecoveryTelemetry
from repro.sim import Environment, Tracer
from repro.storage.stores import SharedObjectStore, TornWriteError
from repro.storage.validate import CorruptCheckpointError
from repro.workloads.catalog import WorkloadSpec


class CheckpointMode(enum.Enum):
    PC_DISK = "pc_disk"
    PC_MEM = "pc_mem"
    CHECKFREQ = "checkfreq"


@dataclass(frozen=True)
class PeriodicPolicy:
    """Checkpoint mode plus interval (in iterations)."""

    mode: CheckpointMode
    interval_iterations: int

    def __post_init__(self):
        if self.interval_iterations < 1:
            raise ValueError("interval must be >= 1 iteration")


def critical_path_seconds(spec: WorkloadSpec, mode: CheckpointMode) -> float:
    """Steady-state stall one checkpoint imposes on the job (the ``o`` of
    the Section 5 analytical model), per rank."""
    cost = spec.cost_model()
    nbytes = cost.checkpoint_bytes_local
    gpu = spec.node_spec.gpu
    node = spec.node_spec
    if mode is CheckpointMode.PC_DISK:
        return nbytes / gpu.pcie_bandwidth + nbytes / node.disk_bandwidth
    if mode is CheckpointMode.PC_MEM:
        return nbytes / gpu.pcie_bandwidth + nbytes / node.tmpfs_bandwidth
    # CheckFreq: device-side snapshot at HBM speed; everything else async.
    return 2.0 * nbytes / gpu.hbm_bandwidth


class PeriodicCheckpointer:
    """Per-rank step hook implementing one policy.

    With an :class:`~repro.core.adaptive.AdaptiveIntervalTuner` attached,
    the interval is re-derived at runtime from profiled minibatch times
    and checkpoint stalls (CheckFreq's behaviour); a profiling checkpoint
    is taken once the warmup window ends so the tuner has a stall sample.
    """

    def __init__(self, env: Environment, policy: PeriodicPolicy,
                 registry: CheckpointRegistry, spec: WorkloadSpec,
                 telemetry: Optional[RecoveryTelemetry] = None,
                 tuner=None):
        self.env = env
        self.policy = policy
        self.registry = registry
        self.spec = spec
        self.telemetry = telemetry
        self.tuner = tuner
        self.checkpoints_taken = 0
        self.stall_seconds = 0.0
        self._last_hook_time: Optional[float] = None
        self._last_iteration_checkpointed = False

    def current_interval(self) -> int:
        if self.tuner is not None and self.tuner.profiled:
            return self.tuner.interval_iterations()
        return self.policy.interval_iterations

    def should_checkpoint(self, engine) -> bool:
        iteration = engine.iteration
        if not getattr(engine, "is_checkpoint_writer", True):
            return False
        if (self.tuner is not None and not self.tuner.profiled
                and iteration == self.tuner.warmup_iterations):
            return True  # profiling checkpoint: gives the tuner a stall sample
        return iteration > 0 and iteration % self.current_interval() == 0

    def hook(self, worker) -> Generator:
        engine = worker.engine
        now = self.env.now
        if self.tuner is not None:
            if (self._last_hook_time is not None
                    and not self._last_iteration_checkpointed):
                self.tuner.observe_minibatch(now - self._last_hook_time)
            self._last_hook_time = now
            self._last_iteration_checkpointed = False
        if not self.should_checkpoint(engine):
            return
        # Drain the device so the snapshot is iteration-consistent.
        yield from engine.api.device_synchronize()
        start = self.env.now
        stall = critical_path_seconds(self.spec, self.policy.mode)
        state = engine.state_dict()
        nbytes = engine.state_bytes
        key = CheckpointKey(kind="periodic", epoch=engine.iteration,
                            shard_id=engine.shard_id, rank=worker.rank,
                            iteration=engine.iteration)
        if self.policy.mode is CheckpointMode.PC_DISK:
            # Critical path: copy + persist, then metadata.
            yield self.env.timeout(stall)
            try:
                yield from self.registry.write(key, state, nbytes=0)
            except TornWriteError:
                # Store tore the write: this checkpoint is lost (the
                # partial temp object is never published); training
                # continues and the next interval retries.
                pass
        else:
            # Critical path is only the snapshot; persistence is async.
            yield self.env.timeout(stall)
            self.env.process(self._async_persist(key, state, nbytes),
                             name=f"ckpt-upload:{key.shard_id}@{key.epoch}")
        self.checkpoints_taken += 1
        stall_observed = self.env.now - start
        self.stall_seconds += stall_observed
        if self.tuner is not None:
            self.tuner.observe_checkpoint_stall(stall_observed)
            self._last_iteration_checkpointed = True

    def _async_persist(self, key: CheckpointKey, state: dict,
                       nbytes: int) -> Generator:
        try:
            yield from self.registry.write(key, state, nbytes=nbytes)
        except TornWriteError:
            pass  # upload torn: nothing published, next interval retries


class PeriodicRunner:
    """Run a workload to completion under periodic checkpointing."""

    def __init__(self, env: Environment, spec: WorkloadSpec,
                 store: SharedObjectStore, target_iterations: int,
                 policy: PeriodicPolicy,
                 config: Optional[JitConfig] = None,
                 init_costs: Optional[InitCosts] = None,
                 tracer: Optional[Tracer] = None,
                 progress_timeout: float = 30.0,
                 make_tuner=None):
        self.env = env
        self.spec = spec
        self.policy = policy
        #: Optional factory ``() -> AdaptiveIntervalTuner`` enabling
        #: CheckFreq-style runtime frequency tuning (one tuner per writer).
        self.make_tuner = make_tuner
        self.config = config or JitConfig()
        self.registry = CheckpointRegistry(store, self.config.job_id)
        self.telemetry = RecoveryTelemetry(env, tracer)
        self.manager = JobManager(env, spec, target_iterations,
                                  init_costs=init_costs, tracer=tracer,
                                  progress_timeout=progress_timeout)
        self.checkpointers: list[PeriodicCheckpointer] = []
        self._resume_iteration: Optional[int] = None

    def _make_step_hook(self, generation: int, rank: int, job):
        tuner = self.make_tuner() if self.make_tuner is not None else None
        checkpointer = PeriodicCheckpointer(self.env, self.policy,
                                            self.registry, self.spec,
                                            self.telemetry, tuner=tuner)
        self.checkpointers.append(checkpointer)
        return checkpointer.hook

    def _on_generation_start(self, generation: int, job, workers) -> None:
        shard_ids = [engine.shard_id for engine in job.engines]
        self._resume_iteration = self.registry.planner.plan(shard_ids).iteration

    def _make_restore_fn(self, generation: int, rank: int, job):
        engine = job.engines[rank]

        def restore(worker) -> Generator:
            if self._resume_iteration is None:
                return
            key = self.registry.valid_checkpoint_at(engine.shard_id,
                                                    self._resume_iteration)
            if key is None:
                return
            state = None
            while state is None:
                try:
                    state = yield from self.registry.read_validated(key)
                except CorruptCheckpointError:
                    key = self.registry.valid_checkpoint_at(
                        engine.shard_id, self._resume_iteration)
                    if key is None:
                        raise RuntimeError(
                            f"no valid checkpoint left for {engine.shard_id} "
                            f"at iteration {self._resume_iteration}")
            engine.load_state_dict(state)
            ctx = engine.api.ctx
            yield from ctx.node.pcie_for(ctx.gpu).use(
                ctx.gpu.pcie_time(engine.state_bytes))

        return restore

    def run(self) -> Generator:
        report = yield from self.manager.run(
            make_restore_fn=self._make_restore_fn,
            make_step_hook=self._make_step_hook,
            on_generation_start=self._on_generation_start)
        return report

    def start(self):
        """Runner process handle for prefix-fork scheduling (see
        :meth:`repro.core.user_level.UserLevelJitRunner.start`)."""
        return self.env.process(self.run(), name="periodic-runner")

    def execute(self) -> RunReport:
        return self.env.run(until=self.start())

    @property
    def total_checkpoint_stall(self) -> float:
        return sum(c.stall_seconds for c in self.checkpointers)

    @property
    def checkpoints_taken(self) -> int:
        return sum(c.checkpoints_taken for c in self.checkpointers)
