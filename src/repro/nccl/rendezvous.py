"""Cross-rank rendezvous for one collective call instance.

One :class:`CollectiveInstance` exists per (communicator, sequence number).
Each rank's CPU thread *registers* its payload when it enqueues the
collective kernel; each rank's stream executor *arrives* when that kernel
reaches the head of its stream.  Only when every rank has arrived does the
transfer begin — until then, arrived ranks block, giving the exact
hang-on-failure behaviour the watchdog relies on.

:class:`BatchedCollectiveInstance` fuses a run of back-to-back same-kind
collectives (e.g. one layer group's bucketed all-reduces) into a single
rendezvous: each rank registers the whole run up front and arrives once,
and one transfer process walks the segments in order, paying each
segment's duration and applying its data movement at the exact simulated
time the one-instance-per-bucket path would have.  Between segments it
re-evaluates each rank's GPU gate — the check the unbatched path performs
when a rank's stream executor dispatches the next collective kernel — so
failure, hang and ``abort(reason="recovery")`` behaviour is unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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


class CollectiveInstance:
    """One in-flight collective across all ranks of a communicator.

    The transfer is driven by timeout callbacks rather than a dedicated
    simulator process, and every rank blocks on one shared arrival event:
    a collective costs two event dispatches (arrival + duration) instead
    of ``nranks + 3``.  The elided dispatches are credited back on
    completion so ``events_processed`` matches the historical
    process-per-transfer behaviour.
    """

    _POLL_INTERVAL = 0.05  # seconds between fabric-health polls

    def __init__(self, env: Environment, kind: str, participants: frozenset[int],
                 duration_fn, fabric=None, node_names: Optional[set[str]] = None,
                 reduce_op: ReduceOp = ReduceOp.SUM, name: str = ""):
        self.env = env
        self.kind = kind
        self.participants = participants
        self.reduce_op = reduce_op
        self.name = name or kind
        self._duration_fn = duration_fn
        self._fabric = fabric
        self._node_names = node_names or set()
        self._registrations: dict[int, _Registration] = {}
        #: Fires with ``None`` (the instance as its value would be a
        #: reference cycle) once the transfer completes.
        self._arrival: Optional[Event] = None
        #: rank -> simulated instant its kernel reached the stream head.
        self._arrived: dict[int, float] = {}
        self._launched = False
        self._duration = 0.0
        self.completed = False
        self.aborted = False
        self.completion_time: Optional[float] = None

    # -- CPU side -------------------------------------------------------------

    def register(self, rank: int, send: Optional[np.ndarray],
                 recv: Optional[np.ndarray], nbytes: int,
                 root: Optional[int] = None) -> None:
        if rank not in self.participants:
            raise NcclError(f"rank {rank} not in {sorted(self.participants)}")
        if rank in self._registrations:
            raise NcclOpMismatch(f"rank {rank} registered twice for {self.name}")
        self._registrations[rank] = _Registration(send, recv, nbytes, root)

    def register_like(self, rank: int, leader: int, ok_fn=None) -> None:
        """Register *rank* with *leader*'s payload (a bitwise replica)."""
        reg = self._registrations[leader]
        self.register(rank, reg.send, reg.recv, reg.nbytes, reg.root)

    # -- device side ------------------------------------------------------------

    def arrive(self, rank: int) -> Event:
        """Rank's kernel reached stream head; all ranks share one event."""
        if self.aborted:
            failed = self.env.event(name=f"aborted:{self.name}:{rank}")
            failed.fail(CudaApiError(CudaError.STICKY, f"{self.name} aborted"))
            failed.defuse()
            return failed
        if self._arrival is None:
            self._arrival = self.env.event(name=f"collective:{self.name}")
        self._arrived[rank] = self.env.now
        if self._arrived.keys() == self.participants and not self._launched:
            self._launched = True
            _record_launch(self)
            total_nbytes = max((r.nbytes for r in self._registrations.values()),
                               default=0)
            self._duration = self._duration_fn(total_nbytes)
            self._advance(None)
        return self._arrival

    @property
    def missing_ranks(self) -> set[int]:
        return set(self.participants) - self._arrived.keys()

    # -- transfer -----------------------------------------------------------------

    def _path_is_up(self) -> bool:
        if self._fabric is None:
            return True
        return self._fabric.path_is_up(self._node_names)

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
        self._apply()
        self.completed = True
        self.completion_time = self.env.now
        # Parity with the process-per-transfer path: one arrival event per
        # rank (the shared event dispatches once) plus the transfer
        # process's init and exit events.
        self.env.credit_events(len(self.participants) + 1)
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()

    # -- data movement semantics ------------------------------------------------------

    def _apply(self) -> None:
        _apply_collective(self.kind, self.reduce_op, self._registrations,
                          self.participants)
        _release(self._registrations)

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
    """Drop applied payloads: the communicator keeps every instance."""
    for reg in regs.values():
        reg.send = reg.recv = None


def _apply_collective(kind: str, reduce_op: ReduceOp,
                      regs: dict[int, _Registration],
                      participants: frozenset[int]) -> None:
    """Numpy semantics of one collective over its registrations."""
    ranks = sorted(participants)
    if kind in ("barrier", "init"):
        return
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
        stacked = np.stack([regs[r].send for r in ranks])
        if reduce_op is ReduceOp.SUM:
            reduced = stacked.sum(axis=0)
        elif reduce_op is ReduceOp.MEAN:
            reduced = stacked.mean(axis=0)
        else:
            reduced = stacked.max(axis=0)
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
        stacked = np.stack([np.ravel(regs[r].send) for r in ranks])
        if reduce_op is ReduceOp.MEAN:
            reduced = stacked.mean(axis=0)
        else:
            reduced = stacked.sum(axis=0)
        chunks = np.split(reduced, len(ranks))
        for i, r in enumerate(ranks):
            regs[r].recv.reshape(-1)[...] = chunks[i]
    elif kind == "send_recv":
        sender = next(r for r in ranks if regs[r].send is not None)
        receiver = next(r for r in ranks if regs[r].recv is not None)
        regs[receiver].recv[...] = regs[sender].send
    else:  # pragma: no cover - guarded by communicator API
        raise NcclError(f"unknown collective kind {kind!r}")


class BatchedCollectiveInstance:
    """A run of back-to-back same-kind collectives fused into one rendezvous.

    Equivalence with N separate :class:`CollectiveInstance`\\ s issued on the
    same stream:

    * **Timing** — the transfer pays one ``timeout`` per segment, so the
      simulated clock accumulates the exact same floats in the same order
      as the per-instance transfers (which also run back to back, since
      every rank's next collective kernel is dispatched the instant the
      previous one completes).
    * **Failure** — before launching segment *s* (s > 0) the transfer
      re-evaluates each rank's GPU gate, captured at registration time as
      the owning stream's health check.  A failed gate stalls the batch
      forever: in the unbatched path that rank's executor parks instead of
      arriving, so segment *s* never launches and every other rank hangs —
      the same observable state the watchdog reacts to.  Segments that
      finished before the failure have already applied, as their
      per-instance transfers would have.
    * **Abort** — ``abort(reason="recovery")`` kills the transfer and fails
      the shared arrival event, waking every blocked executor with the same
      sticky CUDA error the unbatched instances raise.

    On success the batch credits the simulator with the events the
    per-instance path would have dispatched (arrivals, transfer-process
    init/exit, per-op completion events), keeping ``events_processed``
    identical to the unbatched path.
    """

    _POLL_INTERVAL = CollectiveInstance._POLL_INTERVAL

    def __init__(self, env: Environment, kind: str, segments: int,
                 participants: frozenset[int], duration_fn, fabric=None,
                 node_names: Optional[set[str]] = None,
                 reduce_op: ReduceOp = ReduceOp.SUM, name: str = ""):
        self.env = env
        self.base_kind = kind
        #: Composite kind, compared across ranks for mismatch detection —
        #: a rank batching a different segment count is a collective
        #: mismatch just like issuing a different op.
        self.kind = f"{kind}_batch[{segments}]"
        self.segments = segments
        self.participants = participants
        self.reduce_op = reduce_op
        self.name = name or self.kind
        self._duration_fn = duration_fn
        self._fabric = fabric
        self._node_names = node_names or set()
        self._segment_regs: list[dict[int, _Registration]] = [
            {} for _ in range(segments)]
        self._ok_fns: dict[int, Any] = {}
        self._arrival: Optional[Event] = None
        #: rank -> simulated instant its kernel reached the stream head.
        self._arrived: dict[int, float] = {}
        self._launched = False
        self._process = None
        self.completed = False
        self.aborted = False
        self.completion_time: Optional[float] = None
        self.stalled_at: Optional[int] = None

    # -- CPU side -------------------------------------------------------------

    def register_batch(self, rank: int,
                       payloads: list[tuple[Any, Any, int]],
                       ok_fn=None) -> None:
        """Register *rank*'s (send, recv, nbytes) for every segment.

        *ok_fn* is the gate the unbatched path would evaluate when this
        rank's stream executor dispatches each segment's kernel (the
        stream's GPU-health check).
        """
        if rank not in self.participants:
            raise NcclError(f"rank {rank} not in {sorted(self.participants)}")
        if len(payloads) != self.segments:
            raise NcclOpMismatch(
                f"{self.name}: rank {rank} batched {len(payloads)} segments, "
                f"expected {self.segments}")
        if rank in self._ok_fns:
            raise NcclOpMismatch(f"rank {rank} registered twice for {self.name}")
        self._ok_fns[rank] = ok_fn if ok_fn is not None else (lambda: True)
        for index, (send, recv, nbytes) in enumerate(payloads):
            self._segment_regs[index][rank] = _Registration(send, recv, nbytes)

    def register_like(self, rank: int, leader: int, ok_fn=None) -> None:
        """Register *rank* with *leader*'s payloads (a bitwise replica).

        *ok_fn* is the replica's own stream gate, as in
        :meth:`register_batch`.
        """
        self.register_batch(
            rank, [(regs[leader].send, regs[leader].recv, regs[leader].nbytes)
                   for regs in self._segment_regs], ok_fn=ok_fn)

    # -- device side ------------------------------------------------------------

    def arrive(self, rank: int) -> Event:
        """Rank's batch kernel reached stream head; all ranks share one event."""
        if self.aborted:
            failed = self.env.event(name=f"aborted:{self.name}:{rank}")
            failed.fail(CudaApiError(CudaError.STICKY, f"{self.name} aborted"))
            failed.defuse()
            return failed
        if self._arrival is None:
            self._arrival = self.env.event(name=f"collective:{self.name}")
        self._arrived[rank] = self.env.now
        if self._arrived.keys() == self.participants and not self._launched:
            self._launched = True
            _record_launch(self)
            self._process = self.env.process(self._transfer(),
                                             name=f"xfer:{self.name}")
        return self._arrival

    @property
    def missing_ranks(self) -> set[int]:
        return set(self.participants) - self._arrived.keys()

    # -- transfer -----------------------------------------------------------------

    def _path_is_up(self) -> bool:
        if self._fabric is None:
            return True
        return self._fabric.path_is_up(self._node_names)

    def _transfer(self):
        n = len(self.participants)
        for index, regs in enumerate(self._segment_regs):
            if index > 0 and not all(fn() for fn in self._ok_fns.values()):
                # A rank's GPU failed between segments: unbatched, that
                # rank never arrives for this segment, which therefore
                # never launches; everyone hangs until recovery aborts us.
                self.stalled_at = index
                yield self.env.event(name=f"stall:{self.name}")
            nbytes = max((r.nbytes for r in regs.values()), default=0)
            duration = self._duration_fn(nbytes)
            while True:
                while not self._path_is_up():
                    yield self.env.timeout(self._POLL_INTERVAL)
                if duration > 0:
                    yield self.env.timeout(duration)
                if self._path_is_up():
                    break
            if self.aborted:
                return
            _apply_collective(self.base_kind, self.reduce_op, regs,
                              self.participants)
            _release(regs)
            # Events the per-instance path dispatches that the batch does
            # not: per segment, n arrivals, a transfer-process init and
            # exit, and n per-op completion credits (2n + 3 with the
            # timeout the batch *does* pay).  The batch's own once-per-run
            # dispatches (init, exit, shared arrival, n op completions)
            # are netted against the first segment.
            self.env.credit_events(n - 1 if index == 0 else 2 * n + 2)
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
        if self._process is not None and self._process.is_alive:
            self._process.kill()
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.fail(CudaApiError(
                CudaError.STICKY, f"{self.name} aborted: {reason}"))
            self._arrival.defuse()
