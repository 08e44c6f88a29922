"""Deterministic discrete-event simulation kernel.

Every other subsystem in this reproduction (the simulated CUDA runtime, NCCL
collectives, cluster scheduler, failure injector, ...) is built as processes
running on this engine.  The design follows the classic generator-coroutine
style: a *process* is a Python generator that ``yield``s :class:`Event`
objects and is resumed when the event fires.

Determinism rules
-----------------
* The event queue is ordered by ``(time, priority, sequence)`` where the
  sequence number is a monotonically increasing counter.  Two events scheduled
  for the same time therefore fire in scheduling order, which makes every
  simulation bit-reproducible.
* Nothing in the kernel reads wall-clock time or OS randomness.
"""

from repro.sim.core import (
    Environment,
    Event,
    Interrupt,
    Process,
    ProcessKilled,
    SimulationError,
    Timeout,
    PRIORITY_URGENT,
    PRIORITY_NORMAL,
    PRIORITY_LOW,
    weak_method,
)
from repro.sim.conditions import AllOf, AnyOf, Condition
from repro.sim.resources import Mailbox, Resource
from repro.sim.trace import TraceEvent, TraceSpan, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "Mailbox",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "ProcessKilled",
    "Resource",
    "SimulationError",
    "Timeout",
    "TraceEvent",
    "TraceSpan",
    "Tracer",
    "weak_method",
]
