"""``cudaEvent`` model.

Events are the paper's hang-detection anchor: the user-level library
watches events recorded after collectives on the communication stream, and
a hang is declared when ``cudaEventQuery`` keeps returning ``NOT_READY``
past a timeout (Section 3.1).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.cuda.errors import CudaError
from repro.sim import Environment, Event

_event_ids = itertools.count()


class EventState(enum.Enum):
    CREATED = "created"
    RECORDED = "recorded"   # enqueued on a stream, not yet reached
    TRIGGERED = "triggered"


class CudaEvent:
    """One CUDA event; re-recordable like the real API."""

    __slots__ = ("env", "event_id", "_name", "hint", "state", "destroyed",
                 "_completion", "trigger_time", "recorded_on")

    def __init__(self, env: Environment, name: str = "", hint: str = ""):
        self.env = env
        self.event_id = next(_event_ids)
        self._name = name
        #: The creator's name hint, from which its context composed
        #: ``name``; a replica's copy of the event is named from it.
        self.hint = hint
        self.state = EventState.CREATED
        self.destroyed = False
        #: Sim event that fires when the recorded occurrence triggers.
        #: Recreated on every record so the event can be reused.  It
        #: fires with ``None``: as its own completion's value, the event
        #: would form a reference cycle with it.
        self._completion: Optional[Event] = None
        self.trigger_time: Optional[float] = None
        #: Stream the current recording sits on (for watchdog bookkeeping).
        self.recorded_on = None

    @property
    def name(self) -> str:
        # Lazy, mirroring the kernel's lazy event names: record/trigger is
        # the hot path and names are only read by tracing and ``repr``.
        return self._name or f"cudaEvent{self.event_id}"

    def mark_recorded(self, stream) -> Event:
        """Called by ``cudaEventRecord``: arm the event on *stream*."""
        self.state = EventState.RECORDED
        self.recorded_on = stream
        self.trigger_time = None
        self._completion = self.env.event()
        return self._completion

    def adopt_trigger(self, stream, trigger_time: float) -> None:
        """Take the triggered state of a replica's identical event.

        The completion is marked already processed: its dispatch was
        accounted to the replica's event, and a waiter resumes at once.
        """
        self.state = EventState.TRIGGERED
        self.recorded_on = stream
        self.trigger_time = trigger_time
        done = self.env.event()
        done._ok = True
        done._value = None
        done.callbacks = None
        self._completion = done

    def trigger(self) -> None:
        """Called by the stream executor when the record point is reached."""
        self.state = EventState.TRIGGERED
        self.trigger_time = self.env.now
        if self._completion is not None and not self._completion.triggered:
            self._completion.succeed()

    def query(self) -> CudaError:
        """``cudaEventQuery``: non-blocking readiness check."""
        if self.state is EventState.TRIGGERED:
            return CudaError.SUCCESS
        if self.state is EventState.CREATED:
            # CUDA returns success for a never-recorded event.
            return CudaError.SUCCESS
        return CudaError.NOT_READY

    @property
    def completion(self) -> Event:
        """Sim event for waiting on this cuda event; fires on trigger."""
        if self._completion is None:
            # Never recorded: waiting on it completes immediately (CUDA
            # semantics for a fresh event).
            done = self.env.event(name=f"trigger:{self.name}")
            done.succeed()
            return done
        return self._completion

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CudaEvent {self.name} {self.state.value}>"
