"""CUDA streams: FIFO queues of device operations with an executor process.

Execution semantics reproduced from real CUDA:

* operations on one stream run strictly in enqueue order;
* different streams run concurrently (each has its own executor process);
* ``WaitEventOp`` blocks the stream until the event triggers — if the event
  was recorded after a collective that hangs, the whole stream hangs, which
  is exactly the deadlock Section 3.2 of the paper works around;
* a kernel on a failed GPU never completes (hang) rather than erroring, so
  failures must be detected by watchdog timeout, as in the paper.

Macro-event fast path
---------------------
When `repro.flags.fast_path` is on and the stream is untraced, the
executor coalesces a maximal run of consecutive ``KernelOp``s (and
PCIe-free ``MemcpyOp``s) at the queue head into one *macro chain*: a
single simulator timeout spans the whole run, and on wake every op's
thunk executes in order with ``started_at``/``finished_at`` set from
precomputed offsets.  Chains split at wait/record ops, collectives,
PCIe-arbitrated copies, and at any op whose ``done`` event has been
observed (such an op may only *end* a chain, so its ``done`` still fires
at its natural finish time).  On abort, stream destruction or a GPU
epoch change mid-chain, `_settle_chain` completes exactly the prefix of
ops that finished before the first failure transition and hangs/fails
the rest — bit-identical recovery behaviour to the one-event-per-op
path.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Optional

from repro import flags
from repro.cuda.errors import CudaApiError, CudaError
from repro.cuda.event import CudaEvent
from repro.hardware.gpu import Gpu, GpuHealth
from repro.obs.metrics import instrument as _instrument
from repro.obs.metrics import registry as _metrics
from repro.sim import Environment, Event, Process, Resource, Tracer
from repro.sim.core import _PENDING as _EVENT_PENDING

_stream_ids = itertools.count()
_op_ids = itertools.count()


def _fail_defused(event: Event, exc: BaseException) -> None:
    """Fail *event* without crashing the run if nobody is waiting on it."""
    if not event.triggered:
        event.fail(exc)
        event.defuse()


class StreamOp:
    """Base class for everything that can sit in a stream FIFO.

    The ``done`` event is materialised lazily: most ops are never waited
    on individually (callers synchronise through recorded events or
    ``sync_marker``), so allocating and dispatching a completion event per
    op would be pure overhead.  An op whose ``done`` was never observed
    credits one logical event on completion to keep ``events_processed``
    comparable with the historical eager behaviour.

    The hierarchy is ``__slots__``-only: thousands of ops churn per
    simulated iteration, and skipping the per-instance ``__dict__`` is a
    measurable share of enqueue cost.
    """

    __slots__ = ("op_id", "name", "_env", "_done", "started_at",
                 "finished_at")

    def __init__(self, name: str):
        self.op_id = next(_op_ids)
        self.name = name
        self._env: Optional[Environment] = None
        self._done: Optional[Event] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def bind(self, env: Environment) -> None:
        self._env = env

    @property
    def done(self) -> Event:
        if self._done is None:
            if self._env is None:
                raise CudaApiError(CudaError.INVALID_HANDLE,
                                   f"{self.name} not enqueued on a stream")
            self._done = self._env.event(name=f"done:{self.name}#{self.op_id}")
        return self._done

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}#{self.op_id}>"


class KernelOp(StreamOp):
    """A compute kernel: fixed duration plus an optional numpy side effect."""

    __slots__ = ("duration", "thunk")

    def __init__(self, name: str, duration: float,
                 thunk: Optional[Callable[[], None]] = None):
        super().__init__(name)
        if duration < 0:
            raise ValueError("kernel duration must be non-negative")
        self.duration = duration
        self.thunk = thunk


class MemcpyOp(StreamOp):
    """Host<->device or device->device copy, timed over the PCIe resource."""

    __slots__ = ("nbytes", "bandwidth", "pcie", "thunk")

    def __init__(self, name: str, nbytes: int, bandwidth: float,
                 pcie: Optional[Resource],
                 thunk: Optional[Callable[[], None]] = None):
        super().__init__(name)
        self.nbytes = int(nbytes)
        self.bandwidth = float(bandwidth)
        self.pcie = pcie
        self.thunk = thunk

    @property
    def duration(self) -> float:
        return self.nbytes / self.bandwidth


class WaitEventOp(StreamOp):
    """``cudaStreamWaitEvent``: stall the stream until the event triggers."""

    __slots__ = ("event",)

    def __init__(self, event: CudaEvent):
        super().__init__(f"wait:{event.name}")
        self.event = event


class RecordEventOp(StreamOp):
    """``cudaEventRecord``: trigger the event when the stream reaches it."""

    __slots__ = ("event", "completion")

    def __init__(self, event: CudaEvent, completion: Event):
        super().__init__(f"record:{event.name}")
        self.event = event
        self.completion = completion


class CollectiveKernelOp(StreamOp):
    """An NCCL collective kernel; blocks until all ranks arrive.

    The cross-rank synchronisation lives in the rendezvous object supplied
    by `repro.nccl`; this op just arrives and waits.
    """

    __slots__ = ("rendezvous", "rank", "thunk")

    def __init__(self, name: str, rendezvous, rank: int,
                 thunk: Optional[Callable[[], None]] = None):
        super().__init__(name)
        self.rendezvous = rendezvous
        self.rank = rank
        self.thunk = thunk


class CudaStream:
    """One stream: a FIFO of :class:`StreamOp` driven by an executor."""

    def __init__(self, env: Environment, gpu: Gpu, name: str = "",
                 tracer: Optional[Tracer] = None):
        self.env = env
        self.gpu = gpu
        self.stream_id = next(_stream_ids)
        self.name = name or f"stream{self.stream_id}"
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._queue: deque[StreamOp] = deque()
        self._wakeup: Optional[Event] = None
        self._creation_epoch = gpu.epoch
        self.error: Optional[CudaError] = None
        self.aborted = False
        self.destroyed = False
        #: (ops, start time, end offsets) of an in-flight macro chain, so
        #: abort()/destroy() can settle the completed prefix first.
        self._active_chain: Optional[tuple[list[StreamOp], float, list[float]]] = None
        self._executor: Process = env.process(self._run(), name=f"exec:{self.name}")
        #: Completed op names in order (used by tests and figure traces).
        self.completed_ops: list[str] = []
        #: True once a collective kernel has been enqueued here; the
        #: interception layer uses this to identify the NCCL stream, like
        #: the paper identifies it from intercepted NCCL APIs.
        self.saw_collective = False
        reg = _metrics.active()
        if reg is not None:
            _instrument.attach_stream_gauge(reg, self)

    # -- queue management ------------------------------------------------------

    def enqueue(self, op: StreamOp) -> StreamOp:
        if self.destroyed:
            raise CudaApiError(CudaError.INVALID_HANDLE, f"{self.name} destroyed")
        op._env = self.env  # inlined op.bind()
        if not self.saw_collective and isinstance(op, CollectiveKernelOp):
            self.saw_collective = True
        self._queue.append(op)
        wakeup = self._wakeup
        if wakeup is not None and wakeup._value is _EVENT_PENDING:
            wakeup.succeed()
        return op

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def idle(self) -> bool:
        return not self._queue and (self._wakeup is not None)

    def sync_marker(self) -> Event:
        """Enqueue a no-op and return its completion (stream-synchronize)."""
        op = KernelOp("sync_marker", duration=0.0)
        self.enqueue(op)
        return op.done

    def abort(self, error: CudaError = CudaError.STICKY) -> None:
        """Tear the stream down during recovery: fail all pending ops."""
        if self.aborted:
            return
        self.aborted = True
        self.error = self.error or error
        self._executor.kill()
        if self._active_chain is not None:
            # Ops of the coalesced chain that already finished before the
            # abort (or before the GPU's failure transition) completed in
            # the one-event-per-op path; settle them before failing the
            # remainder so both paths fail the exact same set of ops.
            chain, start, ends = self._active_chain
            self._active_chain = None
            cutoff = min(self.env.now, self._epoch_cutoff(start))
            count = self._settled_count(chain, start, ends, cutoff)
            self._complete_chain(chain, start, ends, count)
        exc = CudaApiError(error, f"{self.name} aborted for recovery")
        while self._queue:
            op = self._queue.popleft()
            _fail_defused(op.done, exc)
            if isinstance(op, RecordEventOp):
                _fail_defused(op.completion, exc)
        self.tracer.record(self.env.now, self.name, "stream_abort", error=error.value)

    def destroy(self) -> None:
        self.abort(CudaError.INVALID_HANDLE)
        self.destroyed = True

    # -- executor ----------------------------------------------------------------

    def _park(self):
        """Block forever: the stream has hung (failed GPU / poisoned op)."""
        self.tracer.record(self.env.now, self.name, "stream_hang")
        yield self.env.event(name=f"park:{self.name}")

    def _gpu_ok(self) -> bool:
        # Checked before/after every op; reads the enum directly instead
        # of going through two property descriptors.
        gpu = self.gpu
        health = gpu._health
        return ((health is GpuHealth.HEALTHY or health is GpuHealth.DRIVER_CORRUPT)
                and gpu.epoch == self._creation_epoch)

    # -- macro chains ----------------------------------------------------------

    @staticmethod
    def _chainable(op: StreamOp) -> bool:
        kind = type(op)
        if kind is KernelOp:
            return True
        if kind is MemcpyOp:
            return op.pcie is None
        return False

    def _collect_chain(self) -> list[StreamOp]:
        """Maximal coalescable run at the queue head.

        An op whose ``done`` event is already materialised may only end a
        chain: its waiters expect the event at the op's natural finish
        time, which coincides with the chain end only in last position.
        """
        chain: list[StreamOp] = []
        for op in self._queue:
            # Inlined _chainable: this loop walks the whole queue head on
            # every executor wakeup.
            kind = type(op)
            if kind is not KernelOp and (kind is not MemcpyOp or op.pcie is not None):
                break
            chain.append(op)
            if op._done is not None:
                break
        return chain

    def _epoch_cutoff(self, start: float) -> float:
        """Time of the GPU's first epoch transition at/after *start*."""
        for when in self.gpu.epoch_times:
            if when >= start:
                return when
        return float("inf")

    @staticmethod
    def _settled_count(chain: list[StreamOp], start: float,
                       ends: list[float], cutoff: float) -> int:
        """How many leading chain ops finished by *cutoff*.

        An op ending exactly at the failure transition completes, matching
        the one-event-per-op path where its timeout fires before the
        executor re-checks GPU health.
        """
        count = 0
        for end in ends:
            if end > cutoff:
                break
            count += 1
        return count

    def _complete_chain(self, chain: list[StreamOp], start: float,
                        ends: list[float], count: int) -> None:
        """Retire the first *count* chain ops (thunks, dones, bookkeeping)."""
        env = self.env
        elided = 0
        previous_end = start
        trace = self.tracer.enabled
        completed = self.completed_ops
        queue = self._queue
        for index in range(count):
            op = chain[index]
            op.started_at = previous_end
            op.finished_at = ends[index]
            previous_end = ends[index]
            if op.thunk is not None:
                op.thunk()
            completed.append(op.name)
            queue.popleft()
            done = op._done
            if done is None:
                elided += 1
            elif not done.triggered:
                done.succeed(op)
            if trace:
                self.tracer.record(op.finished_at, self.name, "op_done",
                                   op=op.name, started=op.started_at)
        if count < len(chain):
            # The next op was in flight when the GPU failed; it started but
            # never finishes, as in the one-event-per-op path.
            chain[count].started_at = previous_end
        if trace and count > 1:
            # One chain-level record so traces of coalesced runs show the
            # macro event itself (and its per-op credit) alongside the
            # back-filled op_done records above.
            self.tracer.record(previous_end, self.name, "macro_chain",
                               ops=count, started=start)
        if elided:
            env.credit_events(elided)

    def _run_chain(self, chain: list[StreamOp]):
        env = self.env
        start = env.now
        # Absolute per-op end times, accumulated one addition per timed op
        # exactly as the per-op path's now + d sequence would: summing the
        # durations first and adding once rounds differently in the last
        # ulp, and the equivalence oracle compares clocks bit for bit.
        ends: list[float] = []
        finish = start
        timed_ops = 0
        for op in chain:
            duration = op.duration
            if duration > 0:
                finish = finish + duration
                timed_ops += 1
            ends.append(finish)
        self._active_chain = (chain, start, ends)
        if finish > start:
            yield env.timeout_at(finish)
        self._active_chain = None
        if self._gpu_ok():
            if timed_ops > 1:
                # The off path dispatches one timeout per timed op; the
                # chain dispatched exactly one.
                env.credit_events(timed_ops - 1)
            self._complete_chain(chain, start, ends, len(chain))
            return
        # GPU failed (or was reset) while the chain slept: complete the
        # prefix that finished before the first epoch transition, then hang.
        cutoff = self._epoch_cutoff(start)
        count = self._settled_count(chain, start, ends, cutoff)
        settled_timed = sum(1 for index in range(count) if ends[index] >
                            (ends[index - 1] if index else start))
        # Off path: one timeout per completed timed op, plus the in-flight
        # op's timeout still fires (the executor wakes, sees the failure
        # and parks).  The chain dispatched one.
        in_flight_timed = (count < len(chain)
                           and ends[count] > (ends[count - 1] if count else start))
        credit = settled_timed + (1 if in_flight_timed else 0) - 1
        if credit > 0:
            env.credit_events(credit)
        self._complete_chain(chain, start, ends, count)
        yield from self._park()

    # -- main loop ---------------------------------------------------------------

    def _run(self):
        env = self.env
        wakeup_name = f"wakeup:{self.name}"
        while True:
            if not self._queue:
                self._wakeup = env.event(name=wakeup_name)
                yield self._wakeup
                self._wakeup = None
                continue
            op = self._queue[0]
            kind = type(op)

            if ((kind is KernelOp or (kind is MemcpyOp and op.pcie is None))
                    and flags.fast_path):
                if not self._gpu_ok():
                    yield from self._park()
                chain = self._collect_chain()
                if len(chain) > 1:
                    yield from self._run_chain(chain)
                    continue

            op.started_at = env.now

            # Identity dispatch: the op hierarchy is closed (no subclasses),
            # so ``kind is`` replaces the isinstance ladder.
            if kind is WaitEventOp:
                completion = op.event.completion
                if not completion.triggered:
                    yield completion
            elif kind is RecordEventOp:
                op.event.trigger()
                if not op.completion.triggered:
                    op.completion.succeed(op.event)
            elif kind is CollectiveKernelOp:
                if not self._gpu_ok():
                    yield from self._park()
                arrival = op.rendezvous.arrive(op.rank)
                try:
                    yield arrival
                except CudaApiError as exc:
                    # Collective aborted during recovery: poison the stream
                    # and fail everything queued behind it so blocked CPU
                    # threads wake with an error the interception layer can
                    # catch.
                    self.error = self.error or exc.code
                    _fail_defused(op.done, exc)
                    self._queue.popleft()
                    self.abort(exc.code)
                    return
                if not self._gpu_ok():
                    yield from self._park()
                if op.thunk is not None:
                    op.thunk()
            else:  # KernelOp / MemcpyOp
                if not self._gpu_ok():
                    yield from self._park()
                pcie = op.pcie if kind is MemcpyOp else None
                if pcie is not None:
                    yield pcie.acquire()
                try:
                    if op.duration > 0:
                        yield env.timeout(op.duration)
                finally:
                    if pcie is not None:
                        pcie.release()
                if not self._gpu_ok():
                    # GPU failed while the kernel was in flight: it never
                    # completes, matching real CUDA hang behaviour.
                    yield from self._park()
                if op.thunk is not None:
                    op.thunk()

            op.finished_at = env.now
            self.completed_ops.append(op.name)
            self._queue.popleft()
            done = op._done
            if done is None:
                env.credit_events(1)
            elif not done.triggered:
                done.succeed(op)
            if self.tracer.enabled:
                self.tracer.record(env.now, self.name, "op_done", op=op.name,
                                   started=op.started_at)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CudaStream {self.name} on {self.gpu.gpu_id} pending={self.pending}>"
