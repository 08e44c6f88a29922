"""Rendezvous internals: stack-free reductions and instance bookkeeping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cuda import BufferKind, CudaApiError
from repro.nccl import NcclError, NcclOpMismatch, ReduceOp
from repro.nccl.rendezvous import _reduce
from repro.parallel.topology import ParallelLayout
from repro.workloads import TrainingJob
from tests.conftest import make_spec
from tests.nccl.test_collectives import make_world, run_ranks

_STACKED = {
    ReduceOp.SUM: lambda stacked: stacked.sum(axis=0),
    ReduceOp.MEAN: lambda stacked: stacked.mean(axis=0),
    ReduceOp.MAX: lambda stacked: stacked.max(axis=0),
}


def _payloads(ranks: int, size: int, seed: int) -> list[np.ndarray]:
    """Per-rank payloads spanning sixteen decades, with signed zeros."""
    rng = np.random.default_rng(seed)
    payloads = []
    for _ in range(ranks):
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
        values[rng.random(size) < 0.05] = -0.0
        payloads.append(values)
    return payloads


@given(ranks=st.integers(1, 32), size=st.integers(1, 300),
       op=st.sampled_from(list(ReduceOp)), seed=st.integers(0, 2**32 - 1))
@example(ranks=16, size=1, op=ReduceOp.SUM, seed=3)
@example(ranks=8, size=1, op=ReduceOp.MEAN, seed=5)
@settings(max_examples=300, deadline=None)
def test_reduce_is_bitwise_the_stacked_reduction(ranks, size, op, seed):
    payloads = _payloads(ranks, size, seed)
    originals = [payload.copy() for payload in payloads]
    reduced = _reduce(payloads, op)
    expected = _STACKED[op](np.stack(originals))
    assert reduced.dtype == expected.dtype
    assert reduced.shape == expected.shape
    assert reduced.tobytes() == expected.tobytes()
    # The inputs are untouched: the accumulator is a new array.
    assert all(a.tobytes() == b.tobytes() for a, b in zip(payloads, originals))


def test_single_element_payloads_need_the_stacked_form():
    """Eight one-element payloads sum pairwise when stacked, which a
    running accumulator does not reproduce: the reason `_reduce` keeps
    the stack for them."""
    values = [np.array([v]) for v in (1e16, 1.0, -1e16, 1.0, 1.0, 1.0,
                                      1.0, 1.0, 1.0)]
    running = values[0] + values[1]
    for value in values[2:]:
        running += value
    stacked = np.stack(values).sum(axis=0)
    assert running.tobytes() != stacked.tobytes()
    assert _reduce(values, ReduceOp.SUM).tobytes() == stacked.tobytes()


def test_reduce_rejects_disagreeing_shapes():
    with pytest.raises(NcclError):
        _reduce([np.zeros(3), np.zeros(1), np.zeros(3)], ReduceOp.SUM)


def test_reduce_scatter_slices_the_reduced_payload():
    env, _, contexts, _, comm = make_world(4)
    sends = [ctx.malloc(np.arange(8, dtype=float) * (r + 1), BufferKind.GRADIENT)
             for r, ctx in enumerate(contexts)]
    recvs = [ctx.malloc(np.zeros(2), BufferKind.GRADIENT) for ctx in contexts]
    expected = np.stack([s.array.copy() for s in sends]).mean(axis=0)

    def rank(r):
        stream = contexts[r].create_stream()
        comm.reduce_scatter(r, sends[r], recvs[r], stream, op=ReduceOp.MEAN)
        yield from contexts[r].stream_synchronize(stream)

    run_ranks(env, [rank(r) for r in range(4)])
    for r, recv in enumerate(recvs):
        assert recv.array.tobytes() == expected[2 * r:2 * r + 2].tobytes()


def test_arrive_rejects_a_rank_outside_the_group():
    env, _, contexts, _, comm = make_world(2)
    buf = contexts[0].malloc(np.ones(4), BufferKind.GRADIENT)
    op = comm.all_reduce(0, buf, contexts[0].create_stream())
    with pytest.raises(NcclError):
        op.rendezvous.arrive(7)


# -- instance pruning ------------------------------------------------------------------


def _ddp_instances(iterations: int) -> int:
    job = TrainingJob(make_spec(layout=ParallelLayout(dp=2)))
    job.run_training(iterations)
    return sum(len(comm._instances)
               for comm in job.nccl_world.communicators)


def test_completed_instances_are_dropped():
    """A DDP run's communicators hold a bounded number of instances."""
    at_10, at_40 = _ddp_instances(10), _ddp_instances(40)
    assert at_40 <= at_10 <= 30


def test_a_lagging_replica_still_finds_its_instances():
    """Rank 2 replicates rank 0 and registers late: after a barrier that
    its arrival (made by rank 0's stream, as for a dedup rider) already
    completed, and after ranks 0 and 1 issued more collectives."""
    env, _, contexts, _, comm = make_world(3)
    streams = [ctx.create_stream() for ctx in contexts[:2]]
    barrier = [comm.barrier(r, streams[r]) for r in range(2)][0].rendezvous
    barrier.arrive(2)
    env.run(until=0.5)
    assert barrier.completed
    bufs = [[ctx.malloc(np.full(4, float(r + k)), BufferKind.GRADIENT)
             for k in range(6)] for r, ctx in enumerate(contexts[:2])]
    ops = [[comm.all_reduce(r, bufs[r][k], streams[r]) for k in range(6)]
           for r in range(2)]
    instances = [op.rendezvous for op in ops[0]]
    assert comm.next_seq(2) == 0 and comm.next_seq(0) == 7
    comm.follow(2, [barrier] + instances, leader=0)
    assert comm.next_seq(2) == 7
    for instance in instances:
        instance.arrive(2)
    env.run(until=1.0)
    assert all(instance.completed for instance in instances)
    # Rank 2 contributed rank 0's payload: k + (k + 1) + k.
    for k in range(6):
        np.testing.assert_array_equal(bufs[0][k].array, np.full(4, 3.0 * k + 1))


def test_abort_fails_every_pending_instance():
    env, _, contexts, _, comm = make_world(2)
    streams = [ctx.create_stream() for ctx in contexts]
    bufs = [ctx.malloc(np.ones(4), BufferKind.GRADIENT) for ctx in contexts]
    for _ in range(5):
        for r in range(2):
            comm.all_reduce(r, bufs[r], streams[r])
    env.run(until=1.0)
    # Rank 1 never issues these three: they stay pending.
    pending = [comm.all_reduce(0, bufs[0], streams[0]).rendezvous
               for _ in range(3)]
    p2p = comm.send(0, bufs[0], 1, streams[0]).rendezvous
    env.run(until=2.0)
    assert set(comm.outstanding_instances()) == set(pending) | {p2p}
    comm.abort()
    assert all(instance.aborted for instance in pending + [p2p])
    errors = []

    def late_waiter():
        try:
            yield pending[-1].arrive(1)
        except CudaApiError as exc:
            errors.append(exc)

    env.process(late_waiter())
    env.run(until=3.0)
    assert len(errors) == 1
    assert streams[0].aborted      # its blocked executor woke with an error


# -- batched rendezvous ----------------------------------------------------------------


def _batch_bufs(contexts, sizes=(3, 17, 5), seed=0):
    rng = np.random.default_rng(seed)
    return [[ctx.malloc(rng.standard_normal(size) * 10.0 ** rng.uniform(-4, 4),
                        BufferKind.GRADIENT) for size in sizes]
            for ctx in contexts]


@pytest.mark.parametrize("num_nodes", [1, 2])
def test_batched_all_reduce_creates_no_process(monkeypatch, num_nodes):
    """Timeout callbacks drive a batch's transfer, on one node and across
    two: launching it starts no simulator process."""
    from repro.sim import Environment

    env, _, contexts, _, comm = make_world(4, num_nodes)
    streams = [ctx.create_stream() for ctx in contexts]
    bufs = _batch_bufs(contexts)
    started = []
    process = Environment.process

    def spy(self, generator, name=""):
        started.append(name)
        return process(self, generator, name)

    monkeypatch.setattr(Environment, "process", spy)
    ops = [comm.all_reduce_batch(r, bufs[r], streams[r]) for r in range(4)]
    env.run(until=1.0)
    assert ops[0].rendezvous.completed
    assert started == []


def _mixed_batch(like: bool):
    """Ranks 1 and 2 hold rank 0's payloads: registered as its replicas
    when *like*, else as their own copies.  Rank 3 registers its own."""
    env, _, contexts, _, comm = make_world(4)
    streams = [ctx.create_stream() for ctx in contexts]
    bufs = _batch_bufs(contexts)
    for r in (1, 2):
        for mine, leader in zip(bufs[r], bufs[0]):
            mine.array[...] = leader.array
    batch = comm.all_reduce_batch(0, bufs[0], streams[0],
                                  op=ReduceOp.MEAN).rendezvous
    if like:
        for r in (1, 2):
            comm.follow(r, [batch], leader=0, stream=streams[r])
            batch.arrive(r)
    else:
        for r in (1, 2):
            comm.all_reduce_batch(r, bufs[r], streams[r], op=ReduceOp.MEAN)
    comm.all_reduce_batch(3, bufs[3], streams[3], op=ReduceOp.MEAN)
    env.run(until=1.0)
    assert batch.completed
    return [[buf.array.tobytes() for buf in bufs[r]] for r in (0, 3)], env.now


def test_replicas_registered_like_their_leader_reduce_like_own_payloads():
    """Two ranks registered as replicas of the leader and one with its own
    payloads reduce bitwise as if every rank had registered its own."""
    assert _mixed_batch(like=True) == _mixed_batch(like=False)


def test_register_like_needs_a_registered_leader():
    env, _, contexts, _, comm = make_world(3)
    streams = [ctx.create_stream() for ctx in contexts]
    bufs = _batch_bufs(contexts)
    batch = comm.all_reduce_batch(0, bufs[0], streams[0]).rendezvous
    with pytest.raises(NcclOpMismatch):
        batch.register_like(2, leader=1)
    single = comm.all_reduce(0, bufs[0][0], streams[0]).rendezvous
    with pytest.raises(NcclOpMismatch):
        single.register_like(2, leader=1)
