"""Rank worker: one simulated training process.

A worker owns an engine, runs the training loop, reports status to the
job manager's mailbox, and — in the user-level design — crashes on device
errors exactly like an uninstrumented training script would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.cuda.errors import CudaApiError
from repro.sim import Environment, Mailbox, Process


@dataclass(frozen=True)
class InitCosts:
    """Fixed job (re)start costs — the ``r`` of the Section 5 model.

    These are paid on every cold start: spawning the worker process,
    importing/initialising the framework, and preparing training data.
    Transparent recovery avoids them entirely (Section 5.5).
    """

    process_start: float = 3.0
    framework_init: float = 2.0
    data_prep: float = 2.0

    @property
    def total(self) -> float:
        return self.process_start + self.framework_init + self.data_prep


class WorkerStatus(enum.Enum):
    COLD = "cold"
    INITIALIZING = "initializing"
    RUNNING = "running"
    CRASHED = "crashed"
    DONE = "done"
    KILLED = "killed"


@dataclass(frozen=True)
class WorkerMessage:
    rank: int
    status: WorkerStatus
    detail: str = ""
    time: float = 0.0


class RankWorker:
    """Drives one engine through the training loop."""

    def __init__(self, env: Environment, rank: int, engine,
                 control: Mailbox, target_iterations: int,
                 init_costs: Optional[InitCosts] = None,
                 restore_fn: Optional[Callable[["RankWorker"], Generator]] = None,
                 step_hook: Optional[Callable[["RankWorker"], Generator]] = None,
                 warm_start: bool = False):
        self.env = env
        self.rank = rank
        self.engine = engine
        self.control = control
        self.target_iterations = target_iterations
        self.init_costs = init_costs or InitCosts()
        self.restore_fn = restore_fn
        #: Called before every train_step — periodic checkpoint policies
        #: hook in here.
        self.step_hook = step_hook
        #: Warm starts (CRIU-restored processes) skip job initialisation.
        self.warm_start = warm_start
        self.status = WorkerStatus.COLD
        self.crash_reason: Optional[str] = None
        self.process: Optional[Process] = None
        #: Timestamps for restore-time accounting (Table 4): process
        #: start and the moment training actually (re)began.
        self.started_at: Optional[float] = None
        self.running_at: Optional[float] = None

    def start(self) -> Process:
        self.process = self.env.process(self._run(), name=f"worker{self.rank}")
        return self.process

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive:
            self.process.kill()
        if self.status not in (WorkerStatus.DONE, WorkerStatus.CRASHED):
            self.status = WorkerStatus.KILLED

    def _notify(self, detail: str = "") -> None:
        self.control.put(WorkerMessage(self.rank, self.status, detail,
                                       time=self.env.now))

    def _run(self) -> Generator:
        try:
            self.status = WorkerStatus.INITIALIZING
            self.started_at = self.env.now
            if not self.warm_start:
                yield self.env.timeout(self.init_costs.total)
            if self.restore_fn is not None:
                yield from self.restore_fn(self)
            try:
                yield from self.engine.setup()
                self.status = WorkerStatus.RUNNING
                self.running_at = self.env.now
                self._notify()
                while self.engine.iteration < self.target_iterations:
                    if self.step_hook is not None:
                        yield from self.step_hook(self)
                    yield from self.engine.train_step()
                yield from self.engine.finish()
            except CudaApiError as exc:
                # An uninstrumented script hits the device error and
                # dies; the monitoring plane sees the non-zero exit.
                self.status = WorkerStatus.CRASHED
                self.crash_reason = str(exc)
                self._notify(self.crash_reason)
                return
            self.status = WorkerStatus.DONE
            self._notify()
        finally:
            # The hooks are the runner's closures, and the runner keeps
            # its current workers: a worker that stopped lets go of them.
            self.restore_fn = self.step_hook = None
