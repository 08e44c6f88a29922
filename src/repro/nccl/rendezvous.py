"""Cross-rank rendezvous for one collective call instance.

One :class:`CollectiveInstance` exists per (communicator, sequence number).
Each rank's CPU thread *registers* its payload when it enqueues the
collective kernel; each rank's stream executor *arrives* when that kernel
reaches the head of its stream.  Only when every rank has arrived does the
transfer begin — until then, arrived ranks block, giving the exact
hang-on-failure behaviour the watchdog relies on.

:class:`BatchedCollectiveInstance` fuses a run of back-to-back same-kind
collectives (e.g. one layer group's bucketed all-reduces) into a single
rendezvous: each rank registers the whole run up front, or registers as a
replica of another rank's payloads, and arrives once.  Like a single
collective's, its transfer is driven by timeout callbacks, not by a
simulator process.  On one node it arms one timeout, at the last
segment's end, and then applies every segment in order; a GPU failure or
an abort inside the batch settles exactly the prefix of segments the
one-instance-per-bucket path would have applied.  Across nodes a chain of
callbacks pays one segment at a time instead, because a link flap makes
a segment pay its time again.  Either way the clock, the applied data
and ``events_processed`` match the unbatched path bit for bit.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Optional

import numpy as np

from repro.cuda.errors import CudaApiError, CudaError
from repro.nccl.errors import NcclError, NcclOpMismatch
from repro.sim import Environment, Event


class ReduceOp(enum.Enum):
    SUM = "sum"
    MEAN = "mean"
    MAX = "max"


@dataclass(slots=True)
class _Registration:
    send: Optional[np.ndarray]
    recv: Optional[np.ndarray]
    nbytes: int
    root: Optional[int] = None


class _Rendezvous:
    """What both instance kinds share: the arrival barrier and the path."""

    _POLL_INTERVAL = 0.05  # seconds between fabric-health polls

    def __init__(self, env: Environment, kind: str,
                 participants: frozenset[int], duration_fn, fabric,
                 node_names: Optional[set[str]], reduce_op: ReduceOp,
                 name: str):
        self.env = env
        self.kind = kind
        self.participants = participants
        self.reduce_op = reduce_op
        self.name = name
        self._duration_fn = duration_fn
        self._fabric = fabric
        self._node_names = node_names or set()
        #: A single-node group talks over NVLink only: its path never
        #: goes down (see :meth:`Fabric.path_is_up`).
        self._always_up = fabric is None or len(self._node_names) <= 1
        #: Fires with ``None`` (the instance as its value would be a
        #: reference cycle) once the transfer completes.
        self._arrival: Optional[Event] = None
        #: rank -> simulated instant its kernel reached the stream head.
        self._arrived: dict[int, float] = {}
        self._launched = False
        self.completed = False
        self.aborted = False
        self.completion_time: Optional[float] = None

    # -- device side ------------------------------------------------------------

    def arrive(self, rank: int, riders=()) -> Event:
        """Rank's kernel reached stream head; all ranks share one event.

        *riders* are replicas whose copies of the kernel are enqueued
        nowhere (see :mod:`repro.framework.dedup`): their copies reach
        their streams' heads at this same instant, and they arrive just
        before *rank*.
        """
        if riders:
            if self.aborted:
                for rider in riders:
                    self.arrive(rider.rank)
            else:
                participants, arrived = self.participants, self._arrived
                now = self.env.now
                for rider in riders:
                    if rider.rank not in participants:
                        raise NcclError(f"rank {rider.rank} not in "
                                        f"{sorted(participants)}")
                    arrived[rider.rank] = now
        if rank not in self.participants:
            raise NcclError(f"rank {rank} not in {sorted(self.participants)}")
        if self.aborted:
            failed = self.env.event(name=f"aborted:{self.name}:{rank}")
            failed.fail(CudaApiError(CudaError.STICKY, f"{self.name} aborted"))
            failed.defuse()
            return failed
        if self._arrival is None:
            self._arrival = self.env.event(name=f"collective:{self.name}")
        arrived = self._arrived
        arrived[rank] = self.env.now
        if len(arrived) == len(self.participants) and not self._launched:
            self._launched = True
            _record_launch(self)
            self._launch()
        return self._arrival

    def _launch(self) -> None:
        raise NotImplementedError

    def _path_is_up(self) -> bool:
        return self._always_up or self._fabric.path_is_up(self._node_names)

    def unfinished_ops(self, rank: int) -> int:
        """How many one-collective stream ops *rank*'s op here stands for
        that have not completed: what fails with it (see
        :meth:`BatchedCollectiveInstance.unfinished_ops`)."""
        return 1

    def parked_since(self, rank: int) -> Optional[float]:
        """When *rank*'s executor parked inside this instance, if it did
        (see :meth:`BatchedCollectiveInstance.parked_since`)."""
        return None

    def _complete(self) -> None:
        self.completed = True
        self.completion_time = self.env.now
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()

    # -- teardown -----------------------------------------------------------------------

    def abort(self, reason: str = "recovery") -> None:
        """Fail every blocked rank (used when recovery tears comms down)."""
        if self.completed or self.aborted:
            return
        self.aborted = True
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.fail(CudaApiError(
                CudaError.STICKY, f"{self.name} aborted: {reason}"))
            self._arrival.defuse()


class CollectiveInstance(_Rendezvous):
    """One in-flight collective across all ranks of a communicator.

    The transfer is driven by timeout callbacks rather than a dedicated
    simulator process, and every rank blocks on one shared arrival event:
    a collective costs two event dispatches (arrival + duration) instead
    of ``nranks + 3``.  The elided dispatches are credited back on
    completion so ``events_processed`` matches the historical
    process-per-transfer behaviour.
    """

    def __init__(self, env: Environment, kind: str, participants: frozenset[int],
                 duration_fn, fabric=None, node_names: Optional[set[str]] = None,
                 reduce_op: ReduceOp = ReduceOp.SUM, name: str = ""):
        super().__init__(env, kind, participants, duration_fn, fabric,
                         node_names, reduce_op, name or kind)
        self._registrations: dict[int, _Registration] = {}
        self._duration = 0.0

    # -- CPU side -------------------------------------------------------------

    def register(self, rank: int, send: Optional[np.ndarray],
                 recv: Optional[np.ndarray], nbytes: int,
                 root: Optional[int] = None) -> None:
        if rank not in self.participants:
            raise NcclError(f"rank {rank} not in {sorted(self.participants)}")
        if rank in self._registrations:
            raise NcclOpMismatch(f"rank {rank} registered twice for {self.name}")
        self._registrations[rank] = _Registration(send, recv, nbytes, root)

    def register_like(self, rank: int, leader: int, stream=None) -> None:
        """Register *rank* with *leader*'s payload (a bitwise replica)."""
        reg = self._registrations.get(leader)
        if reg is None:
            raise NcclOpMismatch(f"{self.name}: rank {rank} follows rank "
                                 f"{leader}, which has not registered")
        self.register(rank, reg.send, reg.recv, reg.nbytes, reg.root)

    # -- transfer -----------------------------------------------------------------

    def _launch(self) -> None:
        total_nbytes = max((r.nbytes for r in self._registrations.values()),
                           default=0)
        self._duration = self._duration_fn(total_nbytes)
        self._advance(None)

    def _advance(self, _event) -> None:
        """Poll until the fabric path is up, then pay the transfer time.

        A degraded/down link stalls the transfer: the collective simply
        does not complete, which upper layers observe as a hang.
        """
        if self.aborted or self.completed:
            return
        if not self._path_is_up():
            poll = self.env.timeout(self._POLL_INTERVAL)
            poll.callbacks.append(self._advance)
            return
        if self._duration > 0:
            paid = self.env.timeout(self._duration)
            paid.callbacks.append(self._after_transfer)
            return
        self._finish_transfer()

    def _after_transfer(self, _event) -> None:
        if self.aborted or self.completed:
            return
        if not self._path_is_up():
            # The link went down mid-transfer: the payload is lost and the
            # whole transfer time is paid again once the path returns.
            self._advance(None)
            return
        self._finish_transfer()

    def _finish_transfer(self) -> None:
        _apply_collective(self.kind, self.reduce_op, self._registrations,
                          self.participants)
        _release(self._registrations)
        # Parity with the process-per-transfer path: one arrival event per
        # rank (the shared event dispatches once) plus the transfer
        # process's init and exit events.
        self.env.credit_events(len(self.participants) + 1)
        self._complete()


def _record_launch(instance) -> None:
    """Trace the rendezvous: each rank's wait from arrival to launch."""
    tracer = instance.env.tracer
    if tracer.ops:
        now = instance.env.now
        tracer.record(now, instance.name, "collective_launch",
                      kind=instance.kind,
                      waits={rank: now - arrived
                             for rank, arrived in instance._arrived.items()})


def _release(regs: dict[int, _Registration]) -> None:
    """Drop applied payloads: a completed instance outlives its transfer."""
    for reg in regs.values():
        reg.send = reg.recv = None


def _reduce(arrays: list[np.ndarray], reduce_op: ReduceOp) -> np.ndarray:
    """Reduce one payload per rank, in rank order, into a new array.

    Bitwise equal to ``np.stack(arrays).sum/mean/max(axis=0)``.  Reducing
    axis 0 of the stack adds row after row into one accumulator, which the
    loop below does without copying every payload into the stack first.
    A one-element payload is the exception: its stacked column is reduced
    pairwise from eight ranks on, so it keeps the stacked form, as does
    MAX.
    """
    first = arrays[0]
    if reduce_op is ReduceOp.MAX or first.size == 1 or len(arrays) == 1:
        stacked = np.stack(arrays)
        if reduce_op is ReduceOp.SUM:
            return stacked.sum(axis=0)
        if reduce_op is ReduceOp.MEAN:
            return stacked.mean(axis=0)
        return stacked.max(axis=0)
    shape = first.shape
    if any(array.shape != shape for array in arrays):
        # The stack would refuse these; the accumulator would broadcast.
        raise NcclOpMismatch(f"payload shapes disagree: "
                             f"{sorted({array.shape for array in arrays})}")
    acc = first + arrays[1]
    for array in arrays[2:]:
        acc += array
    # The stacked reduction adds onto the identity +0.0: an element that
    # is -0.0 on every rank reduces to +0.0, every other one unchanged.
    acc += 0.0
    if reduce_op is ReduceOp.MEAN:
        acc /= len(arrays)
    return acc


def _apply_collective(kind: str, reduce_op: ReduceOp,
                      regs: dict[int, _Registration],
                      participants: frozenset[int]) -> None:
    """Numpy semantics of one collective over its registrations."""
    if kind in ("barrier", "init"):
        return
    ranks = sorted(participants)
    if kind == "all_reduce":
        # Replica-dedup identity fast path: when every rank registered the
        # *same* ndarray (a shared gradient arena already holding the
        # reduced value), applying the reduction would re-average K copies
        # of one array — a float no-op only for power-of-two K.  Skipping
        # it keeps the arena bitwise exact for any group size; simulated
        # transfer timing was already paid by the caller.
        first = regs[ranks[0]].send
        if (first is not None
                and all(regs[r].send is first and regs[r].recv is first
                        for r in ranks)):
            return
        reduced = _reduce([regs[r].send for r in ranks], reduce_op)
        for r in ranks:
            regs[r].recv[...] = reduced
    elif kind == "broadcast":
        roots = {regs[r].root for r in ranks if regs[r].root is not None}
        if len(roots) != 1:
            raise NcclOpMismatch(f"broadcast roots disagree: {roots}")
        payload = regs[roots.pop()].send.copy()
        for r in ranks:
            regs[r].recv[...] = payload
    elif kind == "all_gather":
        gathered = np.concatenate(
            [np.ravel(regs[r].send) for r in ranks])
        for r in ranks:
            regs[r].recv.reshape(-1)[...] = gathered
    elif kind == "reduce_scatter":
        op = ReduceOp.MEAN if reduce_op is ReduceOp.MEAN else ReduceOp.SUM
        reduced = _reduce([np.ravel(regs[r].send) for r in ranks], op)
        chunk, remainder = divmod(reduced.size, len(ranks))
        if remainder:
            raise NcclOpMismatch(f"reduce_scatter of {reduced.size} elements "
                                 f"over {len(ranks)} ranks")
        for i, r in enumerate(ranks):
            regs[r].recv.reshape(-1)[...] = reduced[i * chunk:(i + 1) * chunk]
    elif kind == "send_recv":
        sender = next(r for r in ranks if regs[r].send is not None)
        receiver = next(r for r in ranks if regs[r].recv is not None)
        regs[receiver].recv[...] = regs[sender].send
    else:  # pragma: no cover - guarded by communicator API
        raise NcclError(f"unknown collective kind {kind!r}")


class BatchedCollectiveInstance(_Rendezvous):
    """A run of back-to-back in-place all-reduces fused into one rendezvous.

    Equivalence with N separate :class:`CollectiveInstance`\\ s issued on the
    same stream (which run back to back, since every rank's next
    collective kernel is dispatched the instant the previous one
    completes):

    * **Timing** — segment *s* ends at the float the per-instance
      transfers reach by adding each duration to the clock in turn.  On
      one node the batch computes those ends with the same additions at
      launch and arms one timeout, for the last; across nodes a chain of
      timeout callbacks pays one segment after another, polling the
      fabric, because a link flap makes a segment pay its time again.
    * **Registration** — a replica (:meth:`register_like`) records only
      whose arrays it shares.  When every rank registered the same array
      for each segment (replica dedup's shared gradient arena, already
      holding the reduced value), the batch applies nothing; otherwise
      each segment's registrations are built as it applies.
    * **Failure** — segment *s* (s > 0) launches only if every rank's
      stream still had a healthy GPU when segment *s - 1* ended: in the
      unbatched path a failed rank's executor parks instead of arriving,
      so segment *s* never launches and every other rank hangs — the same
      observable state the watchdog reacts to.  The batch stalls there
      (``stalled_at``); the segments before it have applied.  The single
      timeout settles this at its end from the streams' GPU epoch times, a
      failure exactly at a boundary counting as before it (the failure's
      timer was armed before the transfer's).
    * **Abort** — ``abort(reason="recovery")`` settles the segments that
      ended by now and fails the shared arrival event, waking every
      blocked executor with the same sticky CUDA error the unbatched
      instances raise.  An executor that, unbatched, parked after the
      last applied segment hangs on instead (:meth:`parked_since`).
    * **Events** — the batch credits what the unbatched path dispatches
      and it does not.  Per applied segment: n arrivals, a transfer's init
      and exit, n op completions, and its timeouts beyond the batch's
      own; the ranks that park after a stall's last segment complete no
      op.  When a rank's batched op fails, its stream credits the ops of
      the segments that rank did not complete (:meth:`unfinished_ops`).
      ``events_processed`` thus equals the unbatched path's whether the
      batch completes, stalls or is aborted.
    """

    def __init__(self, env: Environment, segments: int,
                 participants: frozenset[int], duration_fn, fabric=None,
                 node_names: Optional[set[str]] = None,
                 reduce_op: ReduceOp = ReduceOp.SUM, name: str = ""):
        #: Composite kind, compared across ranks for mismatch detection —
        #: a rank batching a different segment count is a collective
        #: mismatch just like issuing a different op.
        batch_kind = f"all_reduce_batch[{segments}]"
        super().__init__(env, batch_kind, participants, duration_fn, fabric,
                         node_names, reduce_op, name or batch_kind)
        self.segments = segments
        #: rank -> (each segment's array, their logical sizes), for each
        #: rank that registered its own arrays (None once the batch is done).
        self._payloads: dict[int, Optional[tuple[list, list[int]]]] = {}
        #: rank -> the rank whose arrays it registered as a replica.
        self._likes: dict[int, int] = {}
        #: rank -> the stream whose GPU gates each segment's launch.
        self._gates: dict[int, Any] = {}
        #: Whether no segment needs applying (decided at the first apply).
        self._identity: Optional[bool] = None
        self._durations: list[float] = []
        #: Segment end times: all of them from launch on one node, each
        #: as it is reached across nodes.
        self._ends: list[float] = []
        #: Launch time while the single timeout is pending (one node).
        self._sleep_start: Optional[float] = None
        self._applied = 0
        self.stalled_at: Optional[int] = None
        #: Ranks whose executor parks after the last segment applied
        #: before the stall.
        self._parked = 0

    # -- CPU side -------------------------------------------------------------

    def _check_new(self, rank: int) -> None:
        if rank not in self.participants:
            raise NcclError(f"rank {rank} not in {sorted(self.participants)}")
        if rank in self._gates:
            raise NcclOpMismatch(f"rank {rank} registered twice for {self.name}")

    def register_batch(self, rank: int, arrays: list, nbytes: list[int],
                       stream=None) -> None:
        """Register *rank*'s in-place array and logical size per segment.

        *stream* is the stream whose GPU-health check the unbatched path
        evaluates when it dispatches each segment's kernel; None never
        fails.
        """
        self._check_new(rank)
        if len(arrays) != self.segments:
            raise NcclOpMismatch(
                f"{self.name}: rank {rank} batched {len(arrays)} segments, "
                f"expected {self.segments}")
        self._gates[rank] = stream
        self._payloads[rank] = (arrays, nbytes)

    def register_like(self, rank: int, leader: int, stream=None) -> None:
        """Register *rank* with *leader*'s arrays (a bitwise replica).

        *stream* is the replica's own gate, as in :meth:`register_batch`.
        """
        leader = self._likes.get(leader, leader)
        if leader not in self._payloads:
            raise NcclOpMismatch(f"{self.name}: rank {rank} follows rank "
                                 f"{leader}, which has not registered")
        self._check_new(rank)
        self._gates[rank] = stream
        self._likes[rank] = leader

    # -- transfer -----------------------------------------------------------------

    def _launch(self) -> None:
        payloads = iter(self._payloads.values())
        nbytes = next(payloads)[1]
        for _, other in payloads:
            if other != nbytes:
                nbytes = list(map(max, nbytes, other))
        duration_fn = self._duration_fn
        durations = self._durations = [duration_fn(n) for n in nbytes]
        if not self._always_up:
            self._next_segment()
            return
        env = self.env
        start = self._sleep_start = env.now
        # One addition per segment, as the clock advances in the unbatched
        # path: a summed duration rounds differently.
        ends = self._ends = list(accumulate(durations, initial=start))
        del ends[0]
        if ends[-1] > start:
            env.timeout_at(ends[-1]).callbacks.append(self._wake)
        else:
            self._settle(aborting=False)

    def _wake(self, _event) -> None:
        if not self.aborted:
            self._settle(aborting=False)

    def _next_segment(self) -> None:
        """Across nodes: launch the next segment, or stall, or finish."""
        index = self._applied
        if index == self.segments:
            self._finish()
        elif index and not self._gates_ok():
            # A rank's GPU failed between segments: unbatched, that rank
            # never arrives for this segment, which therefore never
            # launches; everyone hangs until recovery aborts us.
            self._stall(index)
        else:
            self._poll(None)

    def _poll(self, _event) -> None:
        """Wait until the fabric path is up, then pay the segment's time."""
        if self.aborted:
            return
        if not self._path_is_up():
            self.env.timeout(self._POLL_INTERVAL).callbacks.append(self._poll)
            return
        duration = self._durations[self._applied]
        if duration > 0:
            self.env.timeout(duration).callbacks.append(self._paid)
            return
        self._paid(None)

    def _paid(self, _event) -> None:
        if self.aborted:
            return
        if not self._path_is_up():
            # The link went down mid-transfer: the segment's payload is
            # lost and its whole time is paid again once the path returns.
            self._poll(None)
            return
        self._ends.append(self.env.now)
        self._apply_through(self._applied + 1)
        self._next_segment()

    def _gates_ok(self) -> bool:
        return all(stream is None or stream._gpu_ok()
                   for stream in self._gates.values())

    def _gate_cutoff(self) -> float:
        """When the first gate failed (inf while every gate holds)."""
        cutoff = math.inf
        for stream in self._gates.values():
            if stream is not None and not stream._gpu_ok():
                cutoff = min(cutoff, stream.gpu_failed_at())
        return cutoff

    @staticmethod
    def _failed_by(stream, when: float) -> bool:
        return (stream is not None and not stream._gpu_ok()
                and stream.gpu_failed_at() <= when)

    def _progress(self, aborting: bool) -> tuple[int, bool]:
        """(segments applied by now, whether the batch stalled), one node.

        Segment 0 launches with the batch; segment *s* > 0 launches if
        every gate held strictly before segment *s - 1* ended; a launched
        segment that ended by now has applied (when *aborting*, one ending
        at this very instant is still in flight), and the first segment
        not launched stalls the batch.
        """
        ends = self._ends
        ended = (bisect_left if aborting else bisect_right)(ends, self.env.now)
        unlaunched = bisect_left(ends, self._gate_cutoff()) + 1
        applied = min(ended, unlaunched)
        return applied, applied == unlaunched < self.segments

    def _settle(self, aborting: bool) -> None:
        """Apply what the per-segment transfers would have applied by now,
        crediting their timeouts beyond this transfer's one."""
        start, self._sleep_start = self._sleep_start, None
        applied, stalled = self._progress(aborting)
        # Unbatched, an in-flight segment's timeout still fires.
        launched = applied + (not stalled and applied < self.segments)
        timeouts = launched - self._durations[:launched].count(0.0)
        self.env.credit_events(timeouts - (self._ends[-1] > start))
        self._apply_through(applied)
        if stalled:
            self._stall(applied)
        elif applied == self.segments:
            self._finish()

    def _apply_through(self, stop: int) -> None:
        """Apply the segments before *stop* that have not applied yet.

        Credits what each dispatches unbatched: n arrivals, its transfer's
        init and exit, and n op completions.
        """
        first = self._applied
        if self._identity is None:
            self._identity = self._is_identity()
        if not self._identity:
            for index in range(first, stop):
                self._apply_segment(index)
        self._applied = stop
        self.env.credit_events((stop - first) * (2 * len(self.participants) + 2))

    def _is_identity(self) -> bool:
        """Whether every rank registered the same array for each segment
        (see :func:`_apply_collective`)."""
        payloads = iter(self._payloads.values())
        arrays = next(payloads)[0]
        return all(all(map(operator.is_, arrays, other))
                   for other, _ in payloads)

    def _apply_segment(self, index: int) -> None:
        regs = {rank: _Registration(arrays[index], arrays[index], nbytes[index])
                for rank, (arrays, nbytes) in self._payloads.items()}
        regs.update((rank, regs[leader]) for rank, leader in self._likes.items())
        _apply_collective("all_reduce", self.reduce_op, regs, self.participants)

    def _stall(self, index: int) -> None:
        self.stalled_at = index
        when = self._ends[index - 1]
        self._parked = sum(self._failed_by(stream, when)
                           for stream in self._gates.values())
        self.env.credit_events(-self._parked)

    def _finish(self) -> None:
        # The shared arrival and every rank's op completion dispatch for
        # real: they stand for the last segment's.
        self.env.credit_events(-(len(self.participants) + 1))
        self._release()
        self._complete()

    def _release(self) -> None:
        """Drop the payloads: a finished batch outlives its transfer."""
        self._payloads = dict.fromkeys(self._payloads)

    def _applied_now(self) -> int:
        if self._sleep_start is not None:
            return self._progress(aborting=True)[0]
        return self._applied

    def parked_since(self, rank: int) -> Optional[float]:
        """When *rank*'s executor parked, unbatched: at the end of the last
        segment applied, if its GPU had failed by then.  Its batched op
        then hangs on when the batch is aborted, as its own would."""
        applied = self._applied_now()
        if applied:
            when = self._ends[applied - 1]
            if self._failed_by(self._gates.get(rank), when):
                return when
        return None

    def unfinished_ops(self, rank: int) -> int:
        """How many of *rank*'s unbatched ops fail with its batched op.

        Unbatched, *rank*'s stream queues one op per segment: those of the
        segments not applied fail, and so does the last applied one's if
        the rank parked after it.
        """
        return (self.segments - self._applied_now()
                + (self.parked_since(rank) is not None))

    # -- teardown -----------------------------------------------------------------------

    def abort(self, reason: str = "recovery") -> None:
        """Fail every blocked rank (used when recovery tears comms down).

        A transfer in its single timeout first settles what applied by now.
        """
        if self.completed or self.aborted:
            return
        if self._sleep_start is not None:
            self._settle(aborting=True)
        if self.stalled_at is not None and self._parked == len(self.participants):
            # Every rank parked: unbatched, none arrives for the stalled
            # segment, so no arrival event of it fails.
            self.env.credit_events(-1)
        self._release()
        super().abort(reason)
