"""Shared resources for simulation processes.

:class:`Resource` is a counting semaphore with FIFO queuing (used to model
exclusive devices such as a PCIe link or a disk).  :class:`Mailbox` is an
unbounded FIFO channel between processes (used for scheduler <-> worker
control messages).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.sim.core import Environment, Event


class Resource:
    """Counting semaphore with FIFO fairness."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires once a slot is held by the caller."""
        # No f-string name: acquire events are hot-path debug aids only.
        event = Event(self.env)
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def take(self) -> None:
        """Hold a free slot at once, without an event.

        For handing over a slot some other holder's state says is held
        (replica materialisation); the slot must be free and unclaimed.
        """
        if self._in_use >= self.capacity or self._waiters:
            raise RuntimeError(f"take of a busy resource {self.name!r}")
        self._in_use += 1

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of unheld resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1

    def use(self, duration: float) -> Generator:
        """Generator helper: hold the resource for *duration* sim seconds."""
        yield self.acquire()
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()


class Mailbox:
    """Unbounded FIFO message channel."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next message."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def drain(self) -> list[Any]:
        """Remove and return all queued messages without waiting."""
        items = list(self._items)
        self._items.clear()
        return items
