"""Hang-detection watchdog (Section 3.1 of the paper).

Watches ``cudaEvent``s that were recorded after collective operations.  In
steady state every watched event triggers shortly after its collective
completes and is dropped from the watch list; if any event stays pending
past the timeout, some participating rank has failed and the hang callback
fires.  The watchdog polls via ``cudaEventQuery`` exactly like the paper's
watchdog thread, so it works even when the whole device is frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cuda.errors import CudaError
from repro.cuda.event import CudaEvent
from repro.sim import Environment, Process, weak_method


@dataclass
class WatchedEvent:
    event: CudaEvent
    recorded_at: float


class EventWatchdog:
    """Polls a watch-list of collective-ordered events for hangs."""

    def __init__(self, env: Environment, query: Callable[[CudaEvent], CudaError],
                 on_hang: Callable[["EventWatchdog", WatchedEvent], None],
                 timeout: float, poll_interval: float, name: str = "watchdog"):
        self.env = env
        # Usually the owner's bound methods: held weakly (see weak_method).
        self._query = weak_method(query)
        self._on_hang = weak_method(on_hang)
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.name = name
        self._watch: list[WatchedEvent] = []
        self._process: Optional[Process] = None
        self.stopped = False
        self.fired = False

    # -- watch-list management ------------------------------------------------------

    def watch(self, event: CudaEvent) -> None:
        """Add an event to the watch list; starts the thread lazily.

        Mirrors the paper: "we start a watchdog thread at the first
        intercepted cudaStreamWaitEvent".
        """
        if self.stopped:
            return
        self._watch.append(WatchedEvent(event, self.env.now))
        if self._process is None:
            self._process = self.env.process(self._run(), name=self.name)

    def retarget(self, copies: dict) -> None:
        """Watch ``copies[e]`` in place of each watched event ``e``."""
        for watched in self._watch:
            watched.event = copies.get(watched.event, watched.event)

    @property
    def pending(self) -> int:
        return len(self._watch)

    def stop(self) -> None:
        self.stopped = True
        if self._process is not None and self._process.is_alive:
            self._process.kill()

    # -- polling loop ------------------------------------------------------------------

    def _run(self):
        while not self.stopped:
            yield self.env.timeout(self.poll_interval)
            still_pending = []
            hung: Optional[WatchedEvent] = None
            for watched in self._watch:
                code = self._query(watched.event)
                if code is CudaError.SUCCESS:
                    continue        # completed: drop from watch list
                if code is not CudaError.NOT_READY:
                    # The context itself is erroring (sticky/dead): treat
                    # like a hang — recovery must take over.
                    hung = watched
                    break
                if self.env.now - watched.recorded_at > self.timeout:
                    hung = watched
                    break
                still_pending.append(watched)
            if hung is not None:
                self.fired = True
                self.stopped = True
                self._on_hang(self, hung)
                return
            self._watch = still_pending
