"""Cross-rank rendezvous for one collective call instance.

One :class:`CollectiveInstance` exists per (communicator, sequence number).
Each rank's CPU thread *registers* its payload when it enqueues the
collective kernel; each rank's stream executor *arrives* when that kernel
reaches the head of its stream.  Only when every rank has arrived does the
transfer begin — until then, arrived ranks block, giving the exact
hang-on-failure behaviour the watchdog relies on.

:class:`BatchedCollectiveInstance` fuses a run of back-to-back same-kind
collectives (e.g. one layer group's bucketed all-reduces) into a single
rendezvous: each rank registers the whole run up front and arrives once.
On one node, under ``flags.fast_path``, the transfer sleeps once until the
last segment's end and then applies every segment in order; a GPU failure
or an abort inside the batch settles exactly the prefix of segments the
one-instance-per-bucket path would have applied.  A batch spanning nodes
walks its segments one ``timeout`` each instead, because a link flap
makes a segment pay its time again.  Either way the clock, the applied
data and ``events_processed`` match the unbatched path bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro import flags
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

    def arrive(self, rank: int) -> Event:
        """Rank's kernel reached stream head; all ranks share one event."""
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

    @property
    def missing_ranks(self) -> set[int]:
        return set(self.participants) - self._arrived.keys()

    def _path_is_up(self) -> bool:
        return self._always_up or self._fabric.path_is_up(self._node_names)

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
        reg = self._registrations[leader]
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
    """A run of back-to-back same-kind collectives fused into one rendezvous.

    Equivalence with N separate :class:`CollectiveInstance`\\ s issued on the
    same stream (which run back to back, since every rank's next
    collective kernel is dispatched the instant the previous one
    completes):

    * **Timing** — segment *s* ends at the float the per-instance
      transfers reach by adding each duration to the clock in turn.  On
      one node (under ``flags.fast_path``) the transfer computes those
      ends with the same additions and sleeps once, until the last; across
      nodes it pays one ``timeout`` per segment, polling the fabric.
    * **Failure** — segment *s* (s > 0) launches only if every rank's
      stream still had a healthy GPU when segment *s - 1* ended: in the
      unbatched path a failed rank's executor parks instead of arriving,
      so segment *s* never launches and every other rank hangs — the same
      observable state the watchdog reacts to.  The batch stalls there
      (``stalled_at``); the segments before it have applied.  The single
      sleep settles this at its end from the streams' GPU epoch times, a
      failure exactly at a boundary counting as before it (the failure's
      timer was armed before the transfer's).
    * **Abort** — ``abort(reason="recovery")`` settles the segments that
      ended by now, kills the transfer and fails the shared arrival event,
      waking every blocked executor with the same sticky CUDA error the
      unbatched instances raise.

    The batch credits the simulator with the events the per-instance path
    would have dispatched (arrivals, transfer-process init/exit, per-op
    completion events, per-segment timeouts), keeping ``events_processed``
    identical to the unbatched path.
    """

    def __init__(self, env: Environment, kind: str, segments: int,
                 participants: frozenset[int], duration_fn, fabric=None,
                 node_names: Optional[set[str]] = None,
                 reduce_op: ReduceOp = ReduceOp.SUM, name: str = ""):
        #: Composite kind, compared across ranks for mismatch detection —
        #: a rank batching a different segment count is a collective
        #: mismatch just like issuing a different op.
        batch_kind = f"{kind}_batch[{segments}]"
        super().__init__(env, batch_kind, participants, duration_fn, fabric,
                         node_names, reduce_op, name or batch_kind)
        self.base_kind = kind
        self.segments = segments
        self._segment_regs: list[dict[int, _Registration]] = [
            {} for _ in range(segments)]
        #: rank -> the stream whose GPU gates each segment's launch.
        self._gates: dict[int, Any] = {}
        self._process = None
        #: (start, segment ends) while the single sleep is in progress.
        self._sleep: Optional[tuple[float, list[float]]] = None
        self.stalled_at: Optional[int] = None

    # -- CPU side -------------------------------------------------------------

    def register_batch(self, rank: int,
                       payloads: list[tuple[Any, Any, int]],
                       stream=None) -> None:
        """Register *rank*'s (send, recv, nbytes) for every segment.

        *stream* is the stream whose GPU-health check the unbatched path
        evaluates when it dispatches each segment's kernel; None never
        fails.
        """
        if rank not in self.participants:
            raise NcclError(f"rank {rank} not in {sorted(self.participants)}")
        if len(payloads) != self.segments:
            raise NcclOpMismatch(
                f"{self.name}: rank {rank} batched {len(payloads)} segments, "
                f"expected {self.segments}")
        if rank in self._gates:
            raise NcclOpMismatch(f"rank {rank} registered twice for {self.name}")
        self._gates[rank] = stream
        for index, (send, recv, nbytes) in enumerate(payloads):
            self._segment_regs[index][rank] = _Registration(send, recv, nbytes)

    def register_like(self, rank: int, leader: int, stream=None) -> None:
        """Register *rank* with *leader*'s payloads (a bitwise replica).

        *stream* is the replica's own gate, as in :meth:`register_batch`.
        """
        self.register_batch(
            rank, [(regs[leader].send, regs[leader].recv, regs[leader].nbytes)
                   for regs in self._segment_regs], stream=stream)

    # -- transfer -----------------------------------------------------------------

    def _launch(self) -> None:
        transfer = (self._transfer_once() if flags.fast_path and self._always_up
                    else self._transfer_each())
        self._process = self.env.process(transfer, name=f"xfer:{self.name}")

    def _segment_duration(self, regs: dict[int, _Registration]) -> float:
        return self._duration_fn(max((r.nbytes for r in regs.values()),
                                     default=0))

    def _gates_ok(self) -> bool:
        return all(stream is None or stream._gpu_ok()
                   for stream in self._gates.values())

    def _segment_credit(self, index: int) -> int:
        """Events segment *index* of the unbatched path dispatches that
        the batch does not, besides its timeout.

        Per segment: n arrivals, a transfer-process init and exit, and n
        per-op completion credits (2n + 2).  The batch's own once-per-run
        dispatches (init, exit, shared arrival, n op completions) are
        netted against the first segment.
        """
        n = len(self.participants)
        return n - 1 if index == 0 else 2 * n + 2

    def _apply_segment(self, index: int) -> None:
        regs = self._segment_regs[index]
        _apply_collective(self.base_kind, self.reduce_op, regs,
                          self.participants)
        _release(regs)

    def _transfer_each(self):
        """One ``timeout`` per segment, re-checking the gates and the path."""
        for index, regs in enumerate(self._segment_regs):
            if index > 0 and not self._gates_ok():
                # A rank's GPU failed between segments: unbatched, that
                # rank never arrives for this segment, which therefore
                # never launches; everyone hangs until recovery aborts us.
                self.stalled_at = index
                yield self.env.event(name=f"stall:{self.name}")
            duration = self._segment_duration(regs)
            while True:
                while not self._path_is_up():
                    yield self.env.timeout(self._POLL_INTERVAL)
                if duration > 0:
                    yield self.env.timeout(duration)
                if self._path_is_up():
                    break
            if self.aborted:
                return
            self._apply_segment(index)
            self.env.credit_events(self._segment_credit(index))
        self._complete()

    def _transfer_once(self):
        """One sleep until the last segment's end, then settle."""
        env = self.env
        start = finish = env.now
        ends = []
        for regs in self._segment_regs:
            duration = self._segment_duration(regs)
            if duration > 0:
                # One addition per segment, as the clock advances in the
                # unbatched path: a summed duration rounds differently.
                finish = finish + duration
            ends.append(finish)
        self._sleep = (start, ends)
        if finish > start:
            yield env.timeout_at(finish)
        if self._settle(aborting=False):
            self._complete()
        else:
            yield env.event(name=f"stall:{self.name}")

    def _gate_cutoff(self) -> float:
        """When the first gate failed (inf while every gate holds)."""
        cutoff = math.inf
        for stream in self._gates.values():
            if stream is not None and not stream._gpu_ok():
                cutoff = min(cutoff, stream.gpu_failed_at())
        return cutoff

    def _settle(self, aborting: bool) -> bool:
        """Apply what the per-segment transfer would have applied by now.

        Segment 0 launches with the batch; segment *s* > 0 launches if
        every gate held strictly before segment *s - 1* ended; a launched
        segment that ended by now has applied (when *aborting*, one ending
        at this very instant is still in flight), and the first segment
        not launched stalls the batch.  Credits the timeouts and
        per-segment events the unbatched path dispatches beyond this
        transfer's one sleep.  Returns True when every segment applied.
        """
        start, ends = self._sleep
        self._sleep = None
        now = self.env.now
        cutoff = self._gate_cutoff()
        count = timeouts = 0
        previous = start
        for end in ends:
            if count and previous >= cutoff:
                self.stalled_at = count
                break
            if end > now or (aborting and end == now):
                timeouts += 1  # in flight: its timeout would still fire
                break
            if end > previous:
                timeouts += 1
            self._apply_segment(count)
            count += 1
            previous = end
        credit = timeouts - (1 if ends[-1] > start else 0)
        credit += sum(self._segment_credit(index) for index in range(count))
        self.env.credit_events(credit)
        return count == len(ends)

    # -- teardown -----------------------------------------------------------------------

    def abort(self, reason: str = "recovery") -> None:
        """Fail every blocked rank (used when recovery tears comms down).

        A transfer in its single sleep first settles what applied by now.
        """
        if self.completed or self.aborted:
            return
        if self._sleep is not None:
            self._settle(aborting=True)
        if self._process is not None and self._process.is_alive:
            self._process.kill()
        super().abort(reason)
