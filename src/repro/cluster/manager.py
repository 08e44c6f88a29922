"""Job manager: generation loop, failure monitoring, restart orchestration.

This is the cluster scheduling/monitoring plane of the paper: it launches
worker processes for a job, watches for crashes and hangs, and on failure
kills the generation, heals the hardware (driver resets, spare swap-in)
and relaunches.  Recovery *policies* — what state to restore from, whether
to wait for JIT checkpoints before restarting — are injected by the
strategy layers in `repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.cluster.worker import InitCosts, RankWorker, WorkerStatus
from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GpuHealth
from repro.sim import AnyOf, Environment, Mailbox
from repro.workloads.builder import ApiFactory, TrainingJob
from repro.workloads.catalog import WorkloadSpec


@dataclass
class GenerationRecord:
    generation: int
    start_time: float
    end_time: Optional[float] = None
    outcome: str = "running"        # "done" | "crash" | "hang"
    detail: str = ""
    iterations_at_end: int = 0


@dataclass
class RunReport:
    """Outcome and accounting for one managed run."""

    target_iterations: int = 0
    completed: bool = False
    total_time: float = 0.0
    generations: list[GenerationRecord] = field(default_factory=list)
    #: iteration -> loss *as computed* by the reference rank in the
    #: earliest generation that executed it.  Restored loss-history
    #: prefixes (which may come from a replica's checkpoint) never
    #: overwrite these, so the stream reads exactly like a failure-free
    #: run — the paper's semantics-preservation claim.
    losses_by_iteration: dict[int, float] = field(default_factory=dict)

    @property
    def final_losses(self) -> list[float]:
        return [self.losses_by_iteration[i]
                for i in sorted(self.losses_by_iteration)]

    @property
    def restarts(self) -> int:
        return max(0, len(self.generations) - 1)

    @property
    def failures_observed(self) -> int:
        return sum(1 for g in self.generations if g.outcome in ("crash", "hang"))


class JobManager:
    """Runs one workload to completion across failures and restarts."""

    def __init__(self, env: Environment, spec: WorkloadSpec,
                 target_iterations: int,
                 cluster: Optional[Cluster] = None,
                 init_costs: Optional[InitCosts] = None,
                 progress_timeout: float = 60.0,
                 spare_nodes: int = 2):
        self.env = env
        self.spec = spec
        self.target_iterations = target_iterations
        self.init_costs = init_costs or InitCosts()
        self.progress_timeout = progress_timeout
        from repro.hardware.cluster import ClusterSpec

        self.cluster = cluster or Cluster(
            env,
            ClusterSpec(node_spec=spec.node_spec, num_nodes=spec.num_nodes,
                        spare_nodes=spare_nodes))
        self.current_job: Optional[TrainingJob] = None
        self.current_workers: list[RankWorker] = []
        #: Control mailbox of the running generation; recovery libraries
        #: push failure notifications here ("the scheduler is notified by
        #: the healthy ranks", Section 3).
        self.current_control: Optional[Mailbox] = None
        self.generation = 0

    # -- hardware healing -----------------------------------------------------------

    def heal_cluster(self) -> None:
        """Reset recoverable GPUs; dead hardware is excluded at placement."""
        for node in self.cluster.nodes:
            for gpu in node.gpus:
                if gpu.health in (GpuHealth.STICKY_ERROR,
                                  GpuHealth.DRIVER_CORRUPT):
                    gpu.reset_driver()

    # -- the generation loop ----------------------------------------------------------

    def run(self,
            make_api_factory: Optional[Callable[[int], ApiFactory]] = None,
            make_restore_fn: Optional[Callable] = None,
            make_step_hook: Optional[Callable] = None,
            before_restart: Optional[Callable] = None,
            on_generation_start: Optional[Callable] = None,
            max_generations: int = 50) -> Generator:
        """Generator process: drive the job to ``target_iterations``.

        Hooks (all optional):

        * ``make_api_factory(generation) -> ApiFactory`` — interception;
        * ``make_restore_fn(generation, rank, job) -> Generator-fn`` — how
          a restarted worker reloads state;
        * ``make_step_hook(generation, rank, job) -> Generator-fn`` — e.g.
          periodic checkpointing;
        * ``before_restart(generation, outcome, job, workers) ->
          Generator`` — e.g. user-level JIT waits here for replica
          checkpoint acknowledgements;
        * ``on_generation_start(generation, job, workers)`` — wiring hook.
        """
        report = RunReport(target_iterations=self.target_iterations)
        start_time = self.env.now
        while self.generation < max_generations:
            self.heal_cluster()
            api_factory = (make_api_factory(self.generation)
                           if make_api_factory else None)
            job = TrainingJob(self.spec, env=self.env, cluster=self.cluster,
                              api_factory=api_factory)
            control = Mailbox(self.env, name="job-control")
            self.current_control = control
            workers = []
            for rank, engine in enumerate(job.engines):
                restore_fn = (make_restore_fn(self.generation, rank, job)
                              if make_restore_fn else None)
                step_hook = (make_step_hook(self.generation, rank, job)
                             if make_step_hook else None)
                workers.append(RankWorker(
                    self.env, rank, engine, control,
                    target_iterations=self.target_iterations,
                    init_costs=self.init_costs,
                    restore_fn=restore_fn, step_hook=step_hook))
            self.current_job, self.current_workers = job, workers
            if on_generation_start is not None:
                on_generation_start(self.generation, job, workers)
            record = GenerationRecord(self.generation, self.env.now)
            report.generations.append(record)
            for worker in workers:
                worker.start()

            outcome, detail = yield from self._monitor(workers, control)
            record.end_time = self.env.now
            record.outcome = outcome
            record.detail = detail
            record.iterations_at_end = min(e.iteration for e in job.engines)
            self._collect_losses(report, job)

            if outcome == "done":
                report.completed = True
                break

            if before_restart is not None:
                yield from before_restart(self.generation, outcome, job,
                                          workers)
            for worker in workers:
                worker.kill()
            job.teardown()
            self.generation += 1

        report.total_time = self.env.now - start_time
        return report

    def _collect_losses(self, report: RunReport, job: TrainingJob) -> None:
        """Record losses the reference rank *computed* this generation.

        The reference rank is the lowest rank that reports losses (rank 0
        for DDP/FSDP, the first last-stage rank for pipeline jobs) — the
        same rank every generation, so the assembled stream is coherent.
        Entries before the generation's restore point came from a restored
        (possibly replica) checkpoint and are skipped.
        """
        for engine in job.engines:
            if not engine.loss_history:
                continue
            start = engine.iteration - len(engine.loss_history)
            for offset, loss in enumerate(engine.loss_history):
                iteration = start + offset
                if iteration >= engine.restored_at:
                    report.losses_by_iteration.setdefault(iteration, loss)
            break  # reference rank only

    # -- monitoring --------------------------------------------------------------------

    def _monitor(self, workers: list[RankWorker],
                 control: Mailbox) -> Generator:
        """Wait until the generation completes or fails.

        Failure is either a worker crash report (non-zero exit) or lack of
        progress for ``progress_timeout`` — the cluster-level hang
        detection any production monitoring plane implements.
        """
        done_count = 0
        last_progress = self._progress(workers)
        message_event = None
        while True:
            # Reuse a pending mailbox get across timeout ticks so no
            # message is ever consumed by an abandoned getter.
            if message_event is None or message_event.processed:
                message_event = control.get()
            tick = self.env.timeout(self.progress_timeout)
            yield AnyOf(self.env, [message_event, tick])
            if message_event.processed:
                message = message_event.value
                if message.status is WorkerStatus.CRASHED:
                    return "crash", f"rank{message.rank}: {message.detail}"
                if message.status is WorkerStatus.DONE:
                    done_count += 1
                    if done_count == len(workers):
                        return "done", ""
            else:
                progress = self._progress(workers)
                if progress == last_progress:
                    return "hang", f"no progress for {self.progress_timeout}s"
                last_progress = progress

    @staticmethod
    def _progress(workers: list[RankWorker]) -> int:
        return sum(worker.engine.iteration for worker in workers)
