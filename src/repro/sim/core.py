"""Core event loop, events, processes and timeouts.

This module is the hottest path in the whole reproduction: every simulated
CUDA kernel, NCCL collective, checkpoint write and failure is an
:class:`Event` flowing through :meth:`Environment.run`.  The implementation
therefore trades a little readability for speed:

* every kernel class declares ``__slots__`` (no per-instance ``__dict__``),
* event names are lazy — debug aids only, never built on the hot path,
* :class:`Timeout` objects are recycled through a per-environment free list
  (a dispatched timeout with no remaining references is reused by the next
  ``env.timeout()`` call instead of being reallocated),
* the schedule/dispatch path is inlined in :meth:`Environment.run` rather
  than bouncing through ``step()`` per event.

``benchmarks/bench_simulator_perf.py`` measures this file; run
``benchmarks/run_perf_baseline.py`` to refresh ``BENCH_simulator.json``
after touching it.
"""

from __future__ import annotations

import sys
import weakref
from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, Generator, Iterable, Optional

PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Sentinel stored in ``Event._value`` while the event is untriggered.
_PENDING = object()

#: Upper bound on the per-environment ``Timeout`` free list.
_TIMEOUT_POOL_LIMIT = 4096

_getrefcount = sys.getrefcount


def weak_method(callback: Callable) -> Callable:
    """*callback*, holding its object weakly if it is a bound method.

    For callbacks an object hands to something it owns (a watchdog's
    hang handler, a hook on a stream): held strongly, they would make
    owner and owned a reference cycle.  The owner must outlive the
    callback's last call.
    """
    if not isinstance(callback, MethodType):
        return callback
    return _WeakMethod(callback)


class _WeakMethod:
    """A bound method that holds its object weakly (see ``weak_method``)."""

    __slots__ = ("_method",)

    def __init__(self, method: MethodType):
        self._method = weakref.WeakMethod(method)

    def __call__(self, *args, **kwargs):
        return self._method()(*args, **kwargs)

    @property
    def __self__(self) -> Any:
        return self._method().__self__


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupted process receives the interrupt at its current ``yield``
    statement and may catch it to run recovery logic (this is how watchdogs
    abort workers blocked on a hung collective).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Thrown into a process when it is killed (no recovery expected)."""


class Event:
    """A single occurrence that processes can wait for.

    An event starts *pending*; it becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, which schedules it on the environment queue;
    it is *processed* once its callbacks have run.
    """

    __slots__ = ("env", "_name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self._name = name
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def name(self) -> str:
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority=priority)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Construction is inlined (no ``Event.__init__`` / ``_schedule`` calls)
    and the name is computed lazily in :attr:`name` — timeouts are by far
    the most frequently created kernel object.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = PRIORITY_NORMAL):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        seq = env._seq + 1
        env._seq = seq
        heappush(env._queue, (env._now + delay, priority, seq, self))

    @property
    def name(self) -> str:  # pragma: no cover - debug aid
        return f"timeout({self._delay})"

    @property
    def delay(self) -> float:
        return self._delay


class Process(Event):
    """A running generator; also an event that fires when the generator exits.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, the generator is resumed with the event's value; when it fails,
    the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        self._generator = generator
        env._live[self] = None
        self._target: Optional[Event] = None
        #: Cached bound method: one allocation per process instead of one
        #: per wait (``callbacks.append(self._resume)`` otherwise rebinds).
        self._resume_cb = self._resume
        # Kick the process off via an already-succeeded initialisation event.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume_cb)
        env._schedule(init, priority=PRIORITY_URGENT)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (None if running)."""
        return self._target

    def retarget(self, event: Event) -> None:
        """Wait on the pending *event* instead of the current target.

        A state handover, not a wakeup: used when the event a process is
        blocked on is replaced by another that fires in its stead.
        """
        self._detach_from_target()
        event.callbacks.append(self._resume_cb)
        self._target = event

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._value is not _PENDING:
            return
        self.env._schedule_interrupt(self, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled`.

        Used by the failure injector / scheduler to model killing a worker
        OS process.  A killed process's completion event *succeeds* with
        ``None`` (the death is expected, not an error of the simulation).
        """
        if self._value is not _PENDING:
            return
        self.env._schedule_interrupt(self, ProcessKilled())

    # -- internal machinery -------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        if self._value is not _PENDING:
            # The process already finished (e.g. it aborted itself and a
            # late interrupt arrives): nothing to resume.
            return
        target = self._target
        if target is not None:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
            self._target = None
        env = self.env
        generator = self._generator
        env._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        next_target = generator.send(event._value)
                    else:
                        next_target = _throw(generator, event)
                except StopIteration as stop:
                    self._finish(ok=True, value=stop.value)
                    return
                except ProcessKilled as killed:
                    # Fresh from ``kill()``: forget the frames it unwound.
                    killed.__traceback__ = None
                    generator.close()
                    self._finish(ok=True, value=None)
                    return
                except BaseException as exc:
                    self._finish(ok=False, value=_detached(exc))
                    return

                if not isinstance(next_target, Event):
                    exc = SimulationError(
                        f"process {self.name!r} yielded {next_target!r}, expected an Event")
                    generator.throw(exc)
                    raise exc
                callbacks = next_target.callbacks
                if callbacks is None:
                    # Already-processed events resume the generator in place.
                    event = next_target
                    continue
                callbacks.append(self._resume_cb)
                self._target = next_target
                return
        finally:
            env._active_process = None

    def _detach_from_target(self) -> None:
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None

    def _finish(self, ok: bool, value: Any) -> None:
        self._detach_from_target()
        # The cached bound method is the process's reference to itself.
        self._resume_cb = None
        del self.env._live[self]
        if ok:
            self.succeed(value)
        else:
            self._ok = False
            self._value = value
            self.env._schedule(self)


def _throw(generator: Generator, event: Event) -> Any:
    """Throw failed *event*'s exception into *generator*.

    The exception outlives the throw on *event*, which may be shared by
    several waiters (a collective's arrival, a failed child process).
    A generator that handles it must not leave its own frames on the
    exception's traceback: they reference the process, its owner and
    often *event* itself, so they would keep the whole graph cyclic.
    """
    event._defused = True
    thrown = event._value
    frames = thrown.__traceback__
    try:
        target = generator.throw(thrown)
    except StopIteration:
        thrown.__traceback__ = frames
        raise
    thrown.__traceback__ = frames
    return target


_KERNEL_CODES = frozenset((Process._resume.__code__, _throw.__code__))


def _detached(exc: BaseException) -> BaseException:
    """*exc*, failing a process, without the kernel's frames.

    The failed process keeps *exc* as its value, so the traceback must
    not reach back to it: the kernel's own frames, which hold the
    process, are dropped.  The frames the failure unwound stay, so the
    traceback still prints from the process's generator down.
    """
    tb = exc.__traceback__
    while tb is not None and tb.tb_frame.f_code in _KERNEL_CODES:
        tb = tb.tb_next
    exc.__traceback__ = tb
    return exc


def _escape(failed: list) -> None:
    """Raise the exception of the one failed event in *failed* (emptied).

    The exception stays that event's value, and its traceback keeps every
    frame it passes through: if one of them still referenced the event,
    the traceback would reach back to the exception, a cycle holding the
    whole simulation.  So the callers hand the event over in a list and
    null their other locals first, and this frame keeps nothing either.
    """
    failure = failed.pop()._value
    try:
        raise failure
    finally:
        del failure


class Environment:
    """The simulation environment: clock plus ordered event queue."""

    __slots__ = ("_now", "_queue", "_seq", "_active_process", "_timeout_pool",
                 "_processed", "_credited", "_live", "_closed")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Recycled Timeout instances (see ``timeout()`` / ``run()``).
        self._timeout_pool: list[Timeout] = []
        self._processed = 0
        #: Logical events the fast path elided (see ``credit_events``).
        self._credited = 0
        #: Processes not yet finished (see ``close``).
        self._live: dict[Process, None] = {}
        #: Set by ``close``: the environment accepts no more work.
        self._closed = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def events_processed(self) -> int:
        """Total logical events processed so far (throughput telemetry).

        This is real heap dispatches plus events *credited* by the
        macro-event fast path: when a chain of stream ops collapses into
        one timeout, or a batched rendezvous replaces per-bucket arrival
        events, the elided dispatches are credited so the counter stays
        comparable between fast-path-on and fast-path-off runs.
        """
        return self._processed + self._credited

    def credit_events(self, count: int) -> None:
        """Account for *count* logical events elided by the fast path.

        Kept separate from ``_processed`` because ``run()`` caches that
        counter in a local during its inlined dispatch loop; credits
        accumulated by callbacks would be clobbered on writeback.
        """
        self._credited += count

    # -- public factory helpers --------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay}")
            timeout = pool.pop()
            timeout.env = self
            timeout.callbacks = []
            timeout._value = value
            timeout._delay = delay
            seq = self._seq + 1
            self._seq = seq
            heappush(self._queue, (self._now + delay, PRIORITY_NORMAL, seq, timeout))
            return timeout
        return Timeout(self, delay, value=value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event firing at *absolute* sim time ``when`` (>= now).

        Used by macro-event coalescing: a chain of back-to-back ops must
        land its single wakeup on the exact float the per-op path reaches
        by accumulating ``now + d`` once per op — re-deriving it as
        ``now + (d1 + d2 + ...)`` rounds differently in the last ulp.
        """
        if when < self._now:
            raise SimulationError(
                f"timeout_at in the past: {when} < {self._now}")
        event = Event(self)
        event._value = value
        event._ok = True
        seq = self._seq + 1
        self._seq = seq
        heappush(self._queue, (when, PRIORITY_NORMAL, seq, event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        if self._closed:
            raise SimulationError("environment closed")
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AnyOf

        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.sim.conditions import AllOf

        return AllOf(self, list(events))

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, priority: int = PRIORITY_NORMAL,
                  delay: float = 0.0) -> None:
        seq = self._seq + 1
        self._seq = seq
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def _schedule_interrupt(self, process: Process, exc: BaseException) -> None:
        """Deliver *exc* to *process* as an urgent synthetic event."""
        carrier = Event(self)
        carrier._ok = False
        carrier._value = exc
        carrier._defused = True
        # Detach the process from whatever it currently waits on so the
        # original event no longer resumes it.
        process._detach_from_target()
        carrier.callbacks.append(process._resume_cb)
        self._schedule(carrier, priority=PRIORITY_URGENT)

    # -- execution ----------------------------------------------------------
    #
    # Timeout recycling: after a timeout's callbacks have run, if nothing
    # else references it (the dispatch loop's local plus ``getrefcount``'s
    # own argument are the only two references) it is returned to the free
    # list for ``timeout()`` to reuse.  A timeout that a condition, process
    # or user variable still holds keeps a higher refcount and is simply
    # freed with its last holder.  A pooled timeout drops its ``env`` (the
    # pool would otherwise make the environment a reference cycle).

    def step(self) -> None:
        """Process the next event in the queue."""
        failed = self._step()
        if failed is not None:
            failed, self = [failed], None
            _escape(failed)

    def _step(self) -> Optional[Event]:
        """``step()``; returns (does not raise) an unhandled failure."""
        if not self._queue:
            raise SimulationError("step() on an empty queue")
        time, _priority, _seq, event = heappop(self._queue)
        if time < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = time
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        self._processed += 1
        if event._ok:
            if (type(event) is Timeout and _getrefcount(event) == 2
                    and len(self._timeout_pool) < _TIMEOUT_POOL_LIMIT):
                event._value = event.env = None
                self._timeout_pool.append(event)
        elif not event._defused:
            return event
        return None

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        Returns the value of *until* when it is an event, otherwise ``None``.
        """
        if self._closed:
            raise SimulationError("environment closed")
        if isinstance(until, Event):
            failed = self._run_until_event(until)
            if failed is None:
                return until._value
        else:
            failed = self._run_until_time(until)
            if failed is None:
                return None
        failed, self, until = [failed], None, None
        _escape(failed)

    def _run_until_event(self, stop_event: Event) -> Optional[Event]:
        """``run(until=event)``; returns (does not raise) the failed event
        that ends the run."""
        # Same inlined dispatch body as the deadline loop below — this
        # is the path every training/campaign driver runs.
        queue = self._queue
        pool = self._timeout_pool
        processed = self._processed
        try:
            while stop_event._value is _PENDING:
                if not queue:
                    raise SimulationError(
                        f"deadlock: queue empty but {stop_event!r} never triggered")
                time, _priority, _seq, event = heappop(queue)
                self._now = time
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                processed += 1
                if event._ok:
                    if (type(event) is Timeout and _getrefcount(event) == 2
                            and len(pool) < _TIMEOUT_POOL_LIMIT):
                        event._value = event.env = None
                        pool.append(event)
                elif not event._defused:
                    return event
        finally:
            self._processed = processed
        # Drain the trigger through its callbacks so value access is safe.
        while not stop_event.processed and self._queue:
            next_time = self._queue[0][0]
            if next_time > self._now:
                break
            failed = self._step()
            if failed is not None:
                return failed
        if not stop_event._ok and not stop_event._defused:
            return stop_event
        return None

    def _run_until_time(self, until: Optional[float]) -> Optional[Event]:
        """``run(until=time)``; returns (does not raise) an unhandled
        failure."""
        deadline = float("inf") if until is None else float(until)
        # Inlined dispatch loop: identical semantics to step() minus the
        # impossible scheduled-in-the-past check (_schedule never rewinds).
        queue = self._queue
        pool = self._timeout_pool
        processed = self._processed
        try:
            while queue and queue[0][0] <= deadline:
                time, _priority, _seq, event = heappop(queue)
                self._now = time
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                processed += 1
                if event._ok:
                    if (type(event) is Timeout and _getrefcount(event) == 2
                            and len(pool) < _TIMEOUT_POOL_LIMIT):
                        event._value = event.env = None
                        pool.append(event)
                elif not event._defused:
                    return event
        finally:
            self._processed = processed
        if until is not None:
            self._now = max(self._now, deadline)
        return None

    def run_until_before(self, when: float, until: Event) -> None:
        """Dispatch every event scheduled strictly before *when*.

        Unlike ``run(until=t)`` this never advances the clock to *when*:
        ``now`` is left at the last dispatched event's timestamp, so work
        scheduled later (e.g. a failure injected at exactly *when*) lands
        on the same floats it would in an uninterrupted run.  This is the
        parent-side primitive of prefix-fork campaign scheduling: simulate
        the failure-free prefix shared by a scenario group, then fork a
        child per scenario to arm its schedule and run the divergent tail.

        Dispatch also stops as soon as *until* (the run's process)
        triggers, exactly where ``run(until=until)`` would stop before
        draining it.
        """
        if self._closed:
            raise SimulationError("environment closed")
        failed = self._run_before(when, until)
        if failed is not None:
            failed, self, until = [failed], None, None
            _escape(failed)

    def _run_before(self, when: float, until: Event) -> Optional[Event]:
        queue = self._queue
        pool = self._timeout_pool
        processed = self._processed
        try:
            while (queue and queue[0][0] < when
                   and until._value is _PENDING):
                time, _priority, _seq, event = heappop(queue)
                self._now = time
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                processed += 1
                if event._ok:
                    if (type(event) is Timeout and _getrefcount(event) == 2
                            and len(pool) < _TIMEOUT_POOL_LIMIT):
                        event._value = event.env = None
                        pool.append(event)
                elif not event._defused:
                    return event
        finally:
            self._processed = processed
        return None

    def close(self) -> None:
        """End the simulation; the environment cannot run again.

        A finished run still has live processes (idle stream executors,
        watchdog polls) waiting on events that will never fire, and each
        is a reference cycle through its suspended generator's frame.
        Closing their generators, and dropping every queued event, lets
        the run's whole object graph go by refcount once its owner does.
        A closed process reads as killed: it succeeded with ``None``.
        ``process``, ``run`` and ``run_until_before`` then raise
        :class:`SimulationError`: the work would wait on ended processes.
        """
        self._closed = True
        while self._live:
            process = next(iter(self._live))
            process._detach_from_target()
            process._resume_cb = None
            del self._live[process]
            process._ok = True
            process._value = None
            process.callbacks = None
            process._generator.close()
        self._queue.clear()
        self._timeout_pool.clear()

    def peek(self) -> float:
        """Time of the next scheduled event (inf when the queue is empty)."""
        return self._queue[0][0] if self._queue else float("inf")
