"""NCCL communicators and the world registry.

A communicator binds a set of ranks (each with a CUDA context and a node)
and sequences their collective calls.  Re-initialisation after recovery
pays the rendezvous cost the paper measures as the dominant part of
transient-error recovery (Table 7).
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.cuda.memory import DeviceBuffer
from repro.cuda.runtime import CudaContext
from repro.cuda.stream import CollectiveKernelOp, CudaStream, StreamOp
from repro.nccl.cost import CollectiveCostModel
from repro.nccl.errors import NcclError, NcclOpMismatch
from repro.nccl.rendezvous import (BatchedCollectiveInstance,
                                   CollectiveInstance, ReduceOp)
from repro.sim import Environment

_comm_ids = itertools.count()


def _memoised(duration_fn):
    """*duration_fn*, remembering the time of each payload size it saw."""
    memo: dict[int, float] = {}

    def duration(nbytes: int) -> float:
        try:
            return memo[nbytes]
        except KeyError:
            value = memo[nbytes] = duration_fn(nbytes)
            return value

    return duration


def _duration_fns(cost: CollectiveCostModel, nranks: int) -> dict:
    """Per-kind transfer time as a function of payload bytes, memoised.

    Binds the model and the group size, not the communicator: completed
    instances may outlive it.
    """
    return {
        "all_reduce": _memoised(lambda n: cost.all_reduce(n, nranks)),
        "all_gather": _memoised(lambda n: cost.all_gather(n, nranks)),
        "reduce_scatter": _memoised(lambda n: cost.reduce_scatter(n, nranks)),
        "broadcast": _memoised(lambda n: cost.broadcast(n, nranks)),
        "barrier": lambda n: cost.latency * 2 * max(1, nranks - 1),
    }


def _prune(instances: dict, floor: int) -> None:
    """Drop completed instances below sequence *floor*, oldest first.

    Instances are inserted in sequence order, so the oldest is first.
    """
    while instances:
        seq = next(iter(instances))
        if seq >= floor or not instances[seq].completed:
            return
        del instances[seq]


class RankHandle:
    """One rank's membership in a communicator."""

    def __init__(self, rank: int, context: CudaContext):
        self.rank = rank
        self.context = context

    @property
    def node_name(self) -> str:
        return self.context.node.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RankHandle {self.rank} on {self.context.gpu.gpu_id}>"


class NcclCommunicator:
    """A group of ranks issuing matched collective calls."""

    def __init__(self, env: Environment, name: str, handles: list[RankHandle],
                 cost: CollectiveCostModel, fabric=None):
        self.env = env
        self.comm_id = next(_comm_ids)
        self.name = name or f"comm{self.comm_id}"
        self.handles = {h.rank: h for h in handles}
        if len(self.handles) != len(handles):
            raise NcclError("duplicate ranks in communicator")
        self.cost = cost
        self.fabric = fabric
        self.generation = 0
        self.aborted = False
        self._participants = frozenset(self.handles)
        self._node_names = frozenset(h.node_name for h in handles)
        self._duration_fns = _duration_fns(cost, len(handles))
        self._seq: dict[int, int] = {rank: 0 for rank in self.handles}
        #: seq -> instance, until it completed and every rank issued past
        #: it (see `_prune`).
        self._instances: dict[int, CollectiveInstance] = {}
        #: Independent per-side sequence counters: the sender's nth send to
        #: a peer pairs with the receiver's nth recv from that peer.
        self._p2p_send_seq: dict[tuple[int, int], int] = {}
        self._p2p_recv_seq: dict[tuple[int, int], int] = {}
        #: (src, dst) -> seq -> instance, pruned like `_instances`.
        self._p2p_instances: dict[tuple[int, int],
                                  dict[int, CollectiveInstance]] = {}
        self._init_instance: Optional[CollectiveInstance] = None
        self._initialized = False

    # -- introspection ---------------------------------------------------------

    @property
    def nranks(self) -> int:
        return len(self.handles)

    @property
    def ranks(self) -> list[int]:
        return sorted(self.handles)

    @property
    def node_names(self) -> frozenset[str]:
        return self._node_names

    @property
    def nnodes(self) -> int:
        return len(self.node_names)

    @property
    def initialized(self) -> bool:
        return self._initialized

    def _check_alive(self) -> None:
        if self.aborted:
            raise NcclError(f"{self.name} has been aborted")

    # -- initialisation ------------------------------------------------------------

    def init_rank(self, rank: int) -> Generator:
        """Blocking rendezvous: returns once every rank has joined.

        This is the step recovery re-pays after tearing communicators down;
        its duration follows :meth:`CollectiveCostModel.init`.
        """
        self._check_alive()
        if rank not in self.handles:
            raise NcclError(f"rank {rank} not in {self.name}")
        if self._init_instance is None or self._init_instance.aborted:
            duration = self.cost.init(self.nranks, self.nnodes)
            self._init_instance = CollectiveInstance(
                self.env, "init", self._participants,
                duration_fn=lambda _nbytes, d=duration: d,
                fabric=self.fabric, node_names=self._node_names,
                name=f"{self.name}:init:g{self.generation}")
        yield self._init_instance.arrive(rank)
        self._initialized = True
        self.env.tracer.record(self.env.now, self.name, "comm_init_done", rank=rank)

    # -- collective sequencing --------------------------------------------------------

    def _new_instance(self, seq: int, instance) -> None:
        """Store *instance* at *seq*, dropping those every rank is done with."""
        _prune(self._instances, min(self._seq.values()))
        self._instances[seq] = instance

    def _instance_for(self, rank: int, kind: str,
                      reduce_op: ReduceOp = ReduceOp.SUM) -> CollectiveInstance:
        self._check_alive()
        seq = self._seq[rank]
        self._seq[rank] += 1
        instance = self._instances.get(seq)
        if instance is None:
            instance = CollectiveInstance(
                self.env, kind, self._participants, self._duration_fns[kind],
                fabric=self.fabric, node_names=self._node_names,
                reduce_op=reduce_op,
                name=f"{self.name}:{kind}#{seq}:g{self.generation}")
            self._new_instance(seq, instance)
        elif instance.kind != kind:
            raise NcclOpMismatch(
                f"{self.name} seq {seq}: rank {rank} issued {kind}, "
                f"others issued {instance.kind}")
        return instance

    def _enqueue(self, rank: int, instance: CollectiveInstance,
                 stream: CudaStream) -> StreamOp:
        op = CollectiveKernelOp(instance.name, instance, rank)
        stream.enqueue(op)
        return op

    # -- collectives (CPU-side async calls) ----------------------------------------------

    def all_reduce(self, rank: int, buf: DeviceBuffer, stream: CudaStream,
                   op: ReduceOp = ReduceOp.SUM) -> StreamOp:
        """In-place all-reduce of *buf* across all ranks."""
        instance = self._instance_for(rank, "all_reduce", op)
        instance.register(rank, send=buf.array, recv=buf.array,
                          nbytes=buf.logical_nbytes)
        return self._enqueue(rank, instance, stream)

    def all_reduce_batch(self, rank: int, bufs: list, stream: CudaStream,
                         op: ReduceOp = ReduceOp.SUM) -> StreamOp:
        """Fused run of ``len(bufs)`` in-place all-reduces.

        Consumes a single sequence number per rank; a rank issuing a
        different batch size (or an unbatched collective) at the same
        sequence raises :class:`NcclOpMismatch`, exactly like mismatched
        collective kinds.  Semantics, timing and failure behaviour match
        issuing the all-reduces back to back on *stream* — see
        :class:`BatchedCollectiveInstance`.
        """
        if len(bufs) == 1:
            return self.all_reduce(rank, bufs[0], stream, op)
        self._check_alive()
        seq = self._seq[rank]
        self._seq[rank] += 1
        instance = self._instances.get(seq)
        if instance is None:
            instance = BatchedCollectiveInstance(
                self.env, len(bufs), self._participants,
                duration_fn=self._duration_fns["all_reduce"],
                fabric=self.fabric, node_names=self._node_names,
                reduce_op=op,
                name=f"{self.name}:all_reduce_batch[{len(bufs)}]"
                     f"#{seq}:g{self.generation}")
            self._new_instance(seq, instance)
        expected = f"all_reduce_batch[{len(bufs)}]"
        if instance.kind != expected:
            raise NcclOpMismatch(
                f"{self.name} seq {seq}: rank {rank} issued {expected}, "
                f"others issued {instance.kind}")
        instance.register_batch(rank, [buf.array for buf in bufs],
                                [buf.logical_nbytes for buf in bufs],
                                stream=stream)
        return self._enqueue(rank, instance, stream)

    def broadcast(self, rank: int, buf: DeviceBuffer, root: int,
                  stream: CudaStream) -> StreamOp:
        instance = self._instance_for(rank, "broadcast")
        instance.register(rank, send=buf.array if rank == root else None,
                          recv=buf.array, nbytes=buf.logical_nbytes, root=root)
        return self._enqueue(rank, instance, stream)

    def all_gather(self, rank: int, send: DeviceBuffer, recv: DeviceBuffer,
                   stream: CudaStream) -> StreamOp:
        instance = self._instance_for(rank, "all_gather")
        instance.register(rank, send=send.array, recv=recv.array,
                          nbytes=recv.logical_nbytes)
        return self._enqueue(rank, instance, stream)

    def reduce_scatter(self, rank: int, send: DeviceBuffer, recv: DeviceBuffer,
                       stream: CudaStream,
                       op: ReduceOp = ReduceOp.SUM) -> StreamOp:
        instance = self._instance_for(rank, "reduce_scatter", op)
        instance.register(rank, send=send.array, recv=recv.array,
                          nbytes=send.logical_nbytes)
        return self._enqueue(rank, instance, stream)

    def barrier(self, rank: int, stream: CudaStream) -> StreamOp:
        instance = self._instance_for(rank, "barrier")
        instance.register(rank, send=None, recv=None, nbytes=0)
        return self._enqueue(rank, instance, stream)

    def next_seq(self, rank: int) -> int:
        """Sequence number *rank*'s next collective will take."""
        return self._seq[rank]

    def follow(self, rank: int, instances: list, leader: int,
               stream=None) -> None:
        """Issue *rank*'s copies of collectives *leader* already issued.

        A replica whose buffers are the leader's (replica dedup's shared
        gradient arena) registers the leader's payloads and consumes the
        same sequence numbers, without enqueueing kernels: the leader's
        stream arrives for it (see :mod:`repro.framework.dedup`).
        *stream* is the replica's own stream, gating batched segments.
        """
        self._check_alive()
        seq = self._seq[rank]
        for offset, instance in enumerate(instances):
            if self._instances.get(seq + offset) is not instance:
                raise NcclOpMismatch(
                    f"{self.name} seq {seq + offset}: rank {rank} follows "
                    f"rank {leader} out of sequence")
            instance.register_like(rank, leader, stream)
        self._seq[rank] = seq + len(instances)

    # -- point to point -----------------------------------------------------------------

    def _p2p_instance(self, src: int, dst: int, seq: int) -> CollectiveInstance:
        self._check_alive()
        pair = (src, dst)
        instances = self._p2p_instances.setdefault(pair, {})
        instance = instances.get(seq)
        if instance is None:
            src_node = self.handles[src].node_name
            dst_node = self.handles[dst].node_name
            instance = CollectiveInstance(
                self.env, "send_recv", frozenset(pair),
                duration_fn=self.cost.send_recv,
                fabric=self.fabric, node_names={src_node, dst_node},
                name=f"{self.name}:p2p:{src}->{dst}#{seq}:g{self.generation}")
            _prune(instances, min(self._p2p_send_seq.get(pair, 0),
                                  self._p2p_recv_seq.get(pair, 0)))
            instances[seq] = instance
        return instance

    def send(self, rank: int, buf: DeviceBuffer, dst: int,
             stream: CudaStream) -> StreamOp:
        key = (rank, dst)
        seq = self._p2p_send_seq.get(key, 0)
        self._p2p_send_seq[key] = seq + 1
        instance = self._p2p_instance(rank, dst, seq)
        instance.register(rank, send=buf.array, recv=None,
                          nbytes=buf.logical_nbytes)
        return self._enqueue(rank, instance, stream)

    def recv(self, rank: int, buf: DeviceBuffer, src: int,
             stream: CudaStream) -> StreamOp:
        key = (src, rank)
        seq = self._p2p_recv_seq.get(key, 0)
        self._p2p_recv_seq[key] = seq + 1
        instance = self._p2p_instance(src, rank, seq)
        instance.register(rank, send=None, recv=buf.array,
                          nbytes=buf.logical_nbytes)
        return self._enqueue(rank, instance, stream)

    # -- teardown ----------------------------------------------------------------------

    def outstanding_instances(self) -> list[CollectiveInstance]:
        pending = [i for i in self._instances.values()
                   if not i.completed and not i.aborted]
        pending += [i for instances in self._p2p_instances.values()
                    for i in instances.values()
                    if not i.completed and not i.aborted]
        if self._init_instance is not None and not self._init_instance.completed:
            pending.append(self._init_instance)
        return pending

    def abort(self, reason: str = "recovery") -> None:
        """Tear the communicator down, waking every blocked rank with an error."""
        if self.aborted:
            return
        self.aborted = True
        for instance in self.outstanding_instances():
            instance.abort(reason)
        self.env.tracer.record(self.env.now, self.name, "comm_abort", reason=reason)


class NcclWorld:
    """Registry of all communicators in a job (for recovery teardown/re-init)."""

    def __init__(self, env: Environment, fabric=None):
        self.env = env
        self.fabric = fabric
        self.communicators: list[NcclCommunicator] = []

    def create_communicator(self, name: str, handles: list[RankHandle],
                            cost: CollectiveCostModel) -> NcclCommunicator:
        comm = NcclCommunicator(self.env, name, handles, cost, fabric=self.fabric)
        self.communicators.append(comm)
        return comm

    def recreate(self, comm: NcclCommunicator,
                 handles: Optional[list[RankHandle]] = None) -> NcclCommunicator:
        """Abort *comm* and register a successor with bumped generation."""
        comm.abort("recreate")
        new_handles = handles or list(comm.handles.values())
        successor = NcclCommunicator(self.env, comm.name, new_handles, comm.cost,
                                     fabric=self.fabric)
        successor.generation = comm.generation + 1
        try:
            index = self.communicators.index(comm)
            self.communicators[index] = successor
        except ValueError:
            self.communicators.append(successor)
        return successor

    def abort_all(self, reason: str = "recovery") -> None:
        for comm in self.communicators:
            comm.abort(reason)
