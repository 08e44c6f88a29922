"""Composite wait conditions: wait for any / all of a set of events.

The watchdog uses :class:`AnyOf` to wait for "collective completed OR
timeout elapsed"; the scheduler uses :class:`AllOf` to wait for checkpoint
acknowledgements from every pipeline stage.
"""

from __future__ import annotations

from typing import Any

from repro.sim.core import Environment, Event, SimulationError


class Condition(Event):
    """Base class: fires when ``_check`` says enough sub-events triggered."""

    __slots__ = ("events", "_count")

    def __init__(self, env: Environment, events: list[Event], name: str = ""):
        super().__init__(env, name=name)
        self.events = list(events)
        for sub in self.events:
            if sub.env is not env:
                raise SimulationError("all events of a condition must share one env")
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for sub in self.events:
            if sub.processed:
                self._on_sub(sub)
            else:
                sub.callbacks.append(self._on_sub)
            if self.triggered:
                break

    def _on_sub(self, sub: Event) -> None:
        if self.triggered:
            return
        if not sub._ok:
            sub.defuse()
            self.fail(sub._value)
            if not self.callbacks:
                # No process is attached (the waiter was killed and detached
                # while the condition was pending): nobody can observe this
                # failure, so it must not crash the whole run.
                self.defuse()
            self._stop_listening()
            return
        self._count += 1
        if self._check():
            self.succeed(self._collect())
            self._stop_listening()

    def _stop_listening(self) -> None:
        """Leave the sub-events that have not fired: the condition holds
        them, so their callbacks must not hold it (a reference cycle that
        would outlive the wait, e.g. a watchdog's poll tick)."""
        on_sub = self._on_sub
        for sub in self.events:
            if sub.callbacks:
                try:
                    sub.callbacks.remove(on_sub)
                except ValueError:
                    pass

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        """Outcome: mapping of every already-fired sub-event to its value.

        Uses ``processed`` (callbacks have run), not ``triggered``: a
        :class:`~repro.sim.core.Timeout` is born triggered but has not
        *happened* until the clock reaches it.
        """
        return {sub: sub._value for sub in self.events if sub.processed and sub._ok}


class AnyOf(Condition):
    """Triggers as soon as the first sub-event triggers."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._count >= 1


class AllOf(Condition):
    """Triggers once every sub-event has triggered."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._count >= len(self.events)
