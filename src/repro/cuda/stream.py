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
When `repro.flags.fast_path` is on, traced or not, the
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

Replica timelines
-----------------
Ops enqueued while a stream has an open replica batch carry it
(``op.batch``).  Its *riders* are data-parallel replicas that enqueue
no copies of those ops (:mod:`repro.framework.dedup`): the stream
arrives at collectives for them, credits each the logical events its
copy would have dispatched and, when its tracer takes per-op records,
writes the records its copy's stream would have written.
:meth:`CudaStream.adopt` hands a rider its own copies, in the leader's
exact executor state, when it materialises.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Callable, Optional

from repro import flags
from repro.cuda.errors import CudaApiError, CudaError
from repro.cuda.event import CudaEvent
from repro.hardware.gpu import Gpu, GpuHealth
from repro.sim import Environment, Event, Process, Resource
from repro.sim.core import _PENDING as _EVENT_PENDING
from repro.sim.core import Timeout

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
    comparable with the historical eager behaviour.  ``done`` fires with
    ``None``, not the op, so that the two are not a reference cycle.

    The hierarchy is ``__slots__``-only: thousands of ops churn per
    simulated iteration, and skipping the per-instance ``__dict__`` is a
    measurable share of enqueue cost.
    """

    __slots__ = ("op_id", "name", "_env", "_done", "started_at",
                 "finished_at", "batch")

    def __init__(self, name: str):
        self.op_id = next(_op_ids)
        self.name = name
        self._env: Optional[Environment] = None
        self._done: Optional[Event] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Replica timeline this op belongs to (set on enqueue from the
        #: stream's open batch; see :mod:`repro.framework.dedup`).
        self.batch = None

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


def _rider_events(op: StreamOp, kind: type) -> int:
    """Logical events one rider's copy of *op* dispatches on completion.

    Its done credit; a timed kernel or copy's timeout; a recorded event's
    completion.  (A PCIe copy's slot acquisition is credited when the
    leader acquires its own; a collective's arrival event is shared.)
    """
    if kind is RecordEventOp:
        return 2
    if kind is KernelOp or kind is MemcpyOp:
        return 2 if op.duration > 0 else 1
    return 1


class CudaStream:
    """One stream: a FIFO of :class:`StreamOp` driven by an executor."""

    def __init__(self, env: Environment, gpu: Gpu, name: str = ""):
        self.env = env
        self.gpu = gpu
        self.stream_id = next(_stream_ids)
        self.name = name or f"stream{self.stream_id}"
        #: ``env.tracer``, bound once: the executor reads it per op.
        self.tracer = env.tracer
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
        #: Replica timeline stamped on every op enqueued while it is set.
        #: A timeline's *riders* are replicas whose identical copies of
        #: its ops are not enqueued anywhere: this stream dispatches the
        #: ops once and credits each rider the logical events its own
        #: copy would have dispatched.
        self._batch = None
        #: Called before anything but the owner's training step observes
        #: or tears down this stream (riders must materialise first).
        self.follow_hook: Optional[Callable[[], None]] = None
        #: In-flight phase handed over by :meth:`adopt`, resumed on wakeup.
        self._resume: Optional[tuple] = None
        #: True once a collective kernel has been enqueued here; the
        #: interception layer uses this to identify the NCCL stream, like
        #: the paper identifies it from intercepted NCCL APIs.
        self.saw_collective = False

    # -- queue management ------------------------------------------------------

    def enqueue(self, op: StreamOp) -> StreamOp:
        if self.destroyed:
            raise CudaApiError(CudaError.INVALID_HANDLE, f"{self.name} destroyed")
        op._env = self.env  # inlined op.bind()
        batch = op.batch = self._batch
        if not self.saw_collective and isinstance(op, CollectiveKernelOp):
            self.saw_collective = True
        self._queue.append(op)
        wakeup = self._wakeup
        if wakeup is not None and wakeup._value is _EVENT_PENDING:
            wakeup.succeed()
            if batch is not None:
                batch.woken.append(self)
        if batch is not None:
            batch.remaining += 1
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
        hook = self.follow_hook
        if hook is not None:
            hook()
        self.aborted = True
        self.error = self.error or error
        self._executor.kill()
        resume = self._resume
        if resume is not None:
            # Killed before resuming an adopted copy: give back the PCIe
            # slot the copy held (the executor's ``finally`` would have).
            self._resume = None
            op = resume[1]
            if type(op) is MemcpyOp and op.pcie is not None:
                op.pcie.release()
        if self._active_chain is not None:
            # Ops of the coalesced chain that already finished before the
            # abort (or before the GPU's failure transition) completed in
            # the one-event-per-op path; settle them before failing the
            # remainder so both paths fail the exact same set of ops.
            chain, start, ends = self._active_chain
            self._active_chain = None
            now = self.env.now
            failed_at = self._epoch_cutoff(start)
            count = self._settled_count(chain, start, ends, min(now, failed_at))
            self._complete_chain(chain, start, ends, count)
            self.env.credit_events(self._timeouts_through(start, ends, count) - 1)
            if failed_at <= now and count < len(chain) and ends[count] <= now:
                # The one-event-per-op executor has parked already, when
                # the op in flight at the failure ended.
                self.tracer.record(ends[count], self.name, "stream_hang")
        exc = CudaApiError(error, f"{self.name} aborted for recovery")
        while self._queue:
            op = self._queue.popleft()
            self._fail_op(op, exc)
            if isinstance(op, RecordEventOp):
                _fail_defused(op.completion, exc)
        self.tracer.record(self.env.now, self.name, "stream_abort", error=error.value)

    def destroy(self) -> None:
        self.abort(CudaError.INVALID_HANDLE)
        self.destroyed = True

    # -- executor ----------------------------------------------------------------

    def _park(self, since: Optional[float] = None):
        """Block forever: the stream has hung (failed GPU / poisoned op).

        *since* is when the hang began, if before now (see `_run_chain`).
        """
        self.tracer.record(self.env.now if since is None else since,
                           self.name, "stream_hang")
        yield self.env.event(name=f"park:{self.name}")

    def _gpu_ok(self) -> bool:
        # Checked before/after every op; reads the enum directly instead
        # of going through two property descriptors.
        gpu = self.gpu
        health = gpu._health
        return ((health is GpuHealth.HEALTHY or health is GpuHealth.DRIVER_CORRUPT)
                and gpu.epoch == self._creation_epoch)

    def gpu_failed_at(self) -> float:
        """When `_gpu_ok` turned false: the GPU's first epoch transition
        since this stream was created (``-inf`` if it never was usable).
        """
        gpu = self.gpu
        if gpu.epoch > self._creation_epoch:
            return gpu.epoch_times[self._creation_epoch]
        return -math.inf

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

    @staticmethod
    def _timeouts_through(start: float, ends: list[float], count: int) -> int:
        """Timeouts the one-event-per-op path dispatches for the first
        *count* chain ops and the op then in flight, whose timeout fires
        too; the chain itself dispatches one."""
        timeouts = 0
        previous = start
        for end in ends[:count + 1]:
            if end > previous:
                timeouts += 1
            previous = end
        return timeouts

    def _complete_chain(self, chain: list[StreamOp], start: float,
                        ends: list[float], count: int) -> None:
        """Retire the first *count* chain ops (thunks, dones, bookkeeping)."""
        env = self.env
        elided = 0
        previous_end = start
        trace = self.tracer.ops
        queue = self._queue
        for index in range(count):
            op = chain[index]
            end = ends[index]
            op.started_at = previous_end
            op.finished_at = end
            batch = op.batch
            if batch is not None:
                batch.remaining -= 1
                if batch.riders:
                    # Each rider's copy: its done credit, plus one timeout
                    # if the op is timed.
                    elided += len(batch.riders) * (
                        2 if end > previous_end else 1)
            previous_end = end
            if op.thunk is not None:
                op.thunk()
            queue.popleft()
            done = op._done
            if done is None:
                elided += 1
            elif not done.triggered:
                done.succeed()
            if trace:
                self.tracer.record(end, self.name, "op_done",
                                   op=op.name, started=op.started_at)
                if batch is not None and batch.riders:
                    self._trace_riders(batch.riders, op)
        if count < len(chain):
            # The next op was in flight when the GPU failed; it started but
            # never finishes, as in the one-event-per-op path.
            chain[count].started_at = previous_end
        if trace and count > 1:
            # One chain-level record so traces of coalesced runs show the
            # macro event itself (and its per-op credit) alongside the
            # back-filled op_done records above.  A chain never spans two
            # replica batches: each opens with a PCIe copy or a wait and
            # ends with an event record or a lone optimizer kernel.
            self.tracer.record(previous_end, self.name, "macro_chain",
                               ops=count, started=start)
            batch = chain[0].batch
            if batch is not None:
                for rider in batch.riders:
                    self.tracer.record(previous_end, rider.twins[self].name,
                                       "macro_chain", ops=count,
                                       started=start)
        if elided:
            env.credit_events(elided)

    def _run_chain(self, chain: list[StreamOp], start: Optional[float] = None,
                   ends: Optional[list[float]] = None):
        env = self.env
        if ends is None:
            start = env.now
            # Absolute per-op end times, accumulated one addition per
            # timed op exactly as the per-op path's now + d sequence
            # would: summing the durations first and adding once rounds
            # differently in the last ulp, and the equivalence oracle
            # compares clocks bit for bit.
            ends = []
            finish = start
            timed_ops = 0
            for op in chain:
                duration = op.duration
                if duration > 0:
                    finish = finish + duration
                    timed_ops += 1
                ends.append(finish)
        else:
            # A chain adopted mid-flight (see adopt), woken by its own
            # timeout at the same end time.
            finish = start
            timed_ops = sum(1 for index, end in enumerate(ends)
                            if end > (ends[index - 1] if index else start))
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
        credit = self._timeouts_through(start, ends, count) - 1
        if credit > 0:
            env.credit_events(credit)
        self._complete_chain(chain, start, ends, count)
        # The one-event-per-op executor wakes when the op in flight at the
        # failure ends, sees the failure and parks: before the chain's end.
        yield from self._park(ends[count] if count < len(chain) else None)

    # -- replica timelines ---------------------------------------------------------

    def _trace_riders(self, riders: list, op: StreamOp) -> None:
        """Write the ``op_done`` each rider's own copy of *op* would have.

        A rider's copy runs on its stream of the same role, and an event
        op names the rider's own copy of the event.
        """
        kind = type(op)
        for rider in riders:
            if kind is RecordEventOp:
                name = "record:" + rider.event_names[op.event]
            elif kind is WaitEventOp:
                name = "wait:" + rider.event_names[op.event]
            else:
                name = op.name
            self.tracer.record(op.finished_at, rider.twins[self].name,
                               "op_done", op=name, started=op.started_at)

    def adopt(self, copies: list[StreamOp], leader: "CudaStream",
              ridden: list[StreamOp], wakeup: Optional[Event] = None) -> None:
        """Take over *ridden*, ops still queued on *leader*, as *copies*.

        Materialises a rider (see :mod:`repro.framework.dedup`): *copies*
        are this stream's own versions of the leader's ops the rider never
        enqueued, in queue order.  Queued behind ops of this stream's own,
        they simply wait their turn.  *wakeup* is the event that stood in
        for this stream's wakeup when the rider joined; while it is still
        pending the private executor would not have woken yet, and waits
        on it.  Otherwise the executor takes over the phase the leader's
        executor is in: the same macro chain or op in flight (its own
        timeout at the same end time, a held PCIe slot) or the same wait,
        so the heap holds what the private stream's would.  Where the
        private executor would have nothing pending, a wakeup resumes it;
        that dispatch is credited back.
        """
        queue = self._queue
        busy = bool(queue)
        queue.extend(copies)
        if busy:
            return
        if wakeup is not None and wakeup.callbacks is not None:
            self._wakeup = None
            self._executor.retarget(wakeup)
            return
        env = self.env
        phase = waiting = None
        head = leader._queue[0] if leader._queue else None
        if head is ridden[0]:
            chain = leader._active_chain
            if chain is not None:
                ops, start, ends = chain
                count = 0
                while (count < len(ops) and count < len(ridden)
                       and ops[count] is ridden[count]):
                    count += 1
                self._active_chain = (copies[:count], start, ends[:count])
                phase = ("chain", copies[:count], start, ends[:count])
                waiting = env.timeout_at(ends[count - 1])
            elif head.started_at is not None:
                copy = copies[0]
                copy.started_at = head.started_at
                kind = type(head)
                if kind is WaitEventOp:
                    phase = ("wait", copy)
                    completion = copy.event.completion
                    if not completion.triggered:
                        waiting = completion
                elif kind is CollectiveKernelOp:
                    phase = ("collective", copy)
                    arrival = head.rendezvous._arrival
                    if arrival is not None and arrival.callbacks is not None:
                        waiting = arrival
                else:
                    if kind is MemcpyOp and copy.pcie is not None:
                        copy.pcie.take()
                    # In its timeout already, or about to start it once
                    # its PCIe acquisition dispatches.
                    timed = type(leader._executor.target) is Timeout
                    phase = ("op", copy, timed)
                    if timed:
                        waiting = env.timeout_at(copy.started_at
                                                 + copy.duration)
        self._resume = phase
        if waiting is not None:
            self._wakeup = None
            self._executor.retarget(waiting)
        else:
            self._wakeup.succeed()
            env.credit_events(-1)

    def _resume_phase(self, phase: tuple):
        """Finish the in-flight op or chain handed over by :meth:`adopt`.

        Returns True when the stream was torn down and the executor must
        stop (the leader's collective failed).
        """
        env = self.env
        tag, op = phase[0], phase[1]
        if tag == "chain":
            yield from self._run_chain(op, phase[2], phase[3])
            return False
        if tag == "wait":
            completion = op.event.completion
            if not completion.triggered:
                yield completion
        elif tag == "collective":
            rendezvous = op.rendezvous
            arrival = rendezvous._arrival
            try:
                yield (arrival if arrival is not None
                       else rendezvous.arrive(op.rank))
            except CudaApiError as exc:
                if rendezvous.parked_since(op.rank) is None:
                    self._collective_failed(op, exc)
                    return True
            if not self._gpu_ok():
                yield from self._park(rendezvous.parked_since(op.rank))
            if op.thunk is not None:
                op.thunk()
        else:
            pcie = op.pcie if type(op) is MemcpyOp else None
            try:
                if not phase[2] and op.duration > 0:
                    yield env.timeout(op.duration)
            finally:
                if pcie is not None:
                    pcie.release()
            if not self._gpu_ok():
                yield from self._park()
            if op.thunk is not None:
                op.thunk()
        op.finished_at = env.now
        self._queue.popleft()
        done = op._done
        if done is None:
            env.credit_events(1)
        elif not done.triggered:
            done.succeed()
        if self.tracer.ops:
            self.tracer.record(env.now, self.name, "op_done", op=op.name,
                               started=op.started_at)
        return False

    def _collective_failed(self, op: StreamOp, exc: CudaApiError) -> None:
        # Collective aborted during recovery: poison the stream and fail
        # everything queued behind it so blocked CPU threads wake with an
        # error the interception layer can catch.  Riders materialise
        # while the failed op still heads the queue.
        hook = self.follow_hook
        if hook is not None:
            hook()
        self.error = self.error or exc.code
        self._fail_op(op, exc)
        self._queue.popleft()
        self.abort(exc.code)

    def _fail_op(self, op: StreamOp, exc: CudaApiError) -> None:
        """Fail *op*'s completion.  A batched collective's op stands for
        one op per segment: it credits the failures of those its rank did
        not complete beyond itself."""
        _fail_defused(op.done, exc)
        if type(op) is CollectiveKernelOp:
            extra = op.rendezvous.unfinished_ops(op.rank) - 1
            if extra:
                self.env.credit_events(extra)

    # -- main loop ---------------------------------------------------------------

    def _run(self):
        env = self.env
        wakeup_name = f"wakeup:{self.name}"
        while True:
            if not self._queue:
                self._wakeup = env.event(name=wakeup_name)
                yield self._wakeup
                self._wakeup = None
                phase = self._resume
                if phase is not None:
                    self._resume = None
                    if (yield from self._resume_phase(phase)):
                        return
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
            batch = op.batch

            # Identity dispatch: the op hierarchy is closed (no subclasses),
            # so ``kind is`` replaces the isinstance ladder.
            if kind is WaitEventOp:
                completion = op.event.completion
                if not completion.triggered:
                    yield completion
            elif kind is RecordEventOp:
                op.event.trigger()
                if not op.completion.triggered:
                    op.completion.succeed()
            elif kind is CollectiveKernelOp:
                if not self._gpu_ok():
                    yield from self._park()
                rendezvous = op.rendezvous
                # A rider's copy reaches the head of its stream at this
                # same instant: it arrives with the leader.
                arrival = rendezvous.arrive(
                    op.rank, batch.riders if batch is not None else ())
                try:
                    yield arrival
                except CudaApiError as exc:
                    # A rank that parked inside a stalled batch hangs on.
                    if rendezvous.parked_since(op.rank) is None:
                        self._collective_failed(op, exc)
                        return
                if not self._gpu_ok():
                    yield from self._park(rendezvous.parked_since(op.rank))
                if op.thunk is not None:
                    op.thunk()
            else:  # KernelOp / MemcpyOp
                if not self._gpu_ok():
                    yield from self._park()
                pcie = op.pcie if kind is MemcpyOp else None
                if pcie is not None:
                    if batch is not None and batch.riders:
                        # Each rider's copy acquires its own GPU's link.
                        env.credit_events(len(batch.riders))
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
            self._queue.popleft()
            done = op._done
            if done is None:
                env.credit_events(1)
            elif not done.triggered:
                done.succeed()
            if batch is not None:
                batch.remaining -= 1
                if batch.riders:
                    env.credit_events(len(batch.riders) * _rider_events(op, kind))
            if self.tracer.ops:
                self.tracer.record(env.now, self.name, "op_done", op=op.name,
                                   started=op.started_at)
                if batch is not None and batch.riders:
                    self._trace_riders(batch.riders, op)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CudaStream {self.name} on {self.gpu.gpu_id} pending={self.pending}>"
