"""Data-parallel engine with compute/communication overlap.

Reproduces the schedule of the paper's Figure 3: backward-pass kernels run
on the compute stream; as each layer's gradients become ready an event is
recorded and the layer's all-reduces are enqueued on the communication
stream behind a ``cudaStreamWaitEvent`` on that event; the optimizer step
is gated on ``cudaStreamWaitEvent``s for the all-reduce-completion events.
Those completion events are exactly what the user-level JIT watchdog
watches for hangs.
"""

from __future__ import annotations

from functools import partial
from typing import Generator, Optional

import numpy as np

from repro import flags
from repro.cuda.memory import BufferKind, HostBuffer
from repro.framework.costmodel import TrainingCostModel
from repro.framework.data import SyntheticDataset
from repro.framework.dedup import GroupThunk
from repro.framework.layers import OutputHead
from repro.framework.lr_scheduler import LrScheduler
from repro.framework.models import ModelConfig, bound_blocks, model_shard
from repro.framework.optim import ParamDict
from repro.nccl.communicator import NcclCommunicator
from repro.nccl.rendezvous import ReduceOp
from repro.parallel.base import BaseEngine
from repro.parallel.buffers import allocate_group
from repro.parallel.deviceapi import DeviceApi


def _grads_of(grad_buffers: dict) -> dict:
    """The arrays *grad_buffers* point at."""
    return {name: buf.array for name, buf in grad_buffers.items()}


class RiddenStep:
    """An iteration a rank rode on a replica's timeline.

    The rank issued none of the iteration's calls.  ``expand`` enqueues
    its own, private copy of them through its device API, for a layer
    that logs calls and builds the log only when read; such a layer keeps
    its record of the ride here too (``held`` to ``step_bufs``).  A layer
    that then re-executes those calls marks the step ``replayed``: the
    rank's own buffers, not the group's memo, hold the iteration's loss
    and reduced gradient from then on.
    """

    __slots__ = ("engine", "iteration", "lr", "loss", "loss_buf",
                 "grad_buffers", "replayed", "held", "nbufs", "events",
                 "optimizer", "records", "step_bufs")

    def __init__(self, engine: "DataParallelEngine", iteration: int,
                 lr: float):
        self.engine = engine
        self.iteration = iteration
        self.lr = lr
        #: The loss the rank took from the ridden iteration.
        self.loss = None
        self.loss_buf = None
        self.grad_buffers = None
        self.replayed = False
        #: The allocation standing in for the iteration's buffers, and
        #: how many buffers it stands for.
        self.held = None
        self.nbufs = 0
        #: The rank's handles for the ridden batch's events, in order.
        self.events = None
        #: Whether the rank rode the iteration's optimizer batch too.
        self.optimizer = False
        #: The forward/backward records ``expand`` logged, once it ran,
        #: and the buffers they allocate.
        self.records = None
        self.step_bufs = []

    def expand(self) -> None:
        """Enqueue forward/backward privately."""
        _, self.loss_buf, self.grad_buffers, self.step_bufs = \
            self.engine._enqueue_iteration(self.iteration, False, None)

    def settle(self) -> None:
        """Fill the expanded buffers with what riding the iteration
        computed: the rank's input shard, its loss and the reduced
        gradient.  A layer that re-executes the iteration into them and
        compares (replay-log validation) finds them as a private run
        left them; activations stay as allocated, as private ones do.
        """
        engine = self.engine
        x, _ = engine.dataset.shard(self.iteration, engine.dp_rank,
                                    engine.dp_world)
        self.step_bufs[0].array[...] = x
        self.loss_buf.array[0] = self.loss
        reduced = engine._dedup_arena.grad_arrays
        for name, buf in self.grad_buffers.items():
            buf.array[...] = reduced[name]

    def expand_optimizer(self) -> None:
        """Enqueue the private optimizer kernel."""
        self.engine._launch_optimizer(self.lr, self.own_grads)

    def own_grads(self) -> dict:
        """The reduced gradient in this rank's own (expanded) buffers."""
        return _grads_of(self.grad_buffers)

    def grads(self) -> dict:
        """The iteration's reduced gradient: the group's, until a replay
        recomputed it in this rank's own buffers."""
        if self.replayed:
            return self.own_grads()
        return self.engine._dedup_arena.grad_arrays


class DataParallelEngine(BaseEngine):
    """One rank of a pure data-parallel (``ND``) job."""

    def __init__(self, api: DeviceApi, comm: Optional[NcclCommunicator],
                 config: ModelConfig, cost: TrainingCostModel,
                 dataset: SyntheticDataset, dp_rank: int, dp_world: int,
                 seed: int = 0, optimizer_kind: str = "adam",
                 lr: float = 1e-2, scheduler: Optional[LrScheduler] = None,
                 dropout: float = 0.0,
                 leader: Optional["DataParallelEngine"] = None):
        super().__init__(api, config, cost, optimizer_kind, lr, scheduler)
        if dp_world > 1 and comm is None:
            raise ValueError("dp_world > 1 requires a communicator")
        self.comm = comm
        self.dataset = dataset
        self.dp_rank = dp_rank
        self.dp_world = dp_world
        self.seed = seed
        self.dropout = dropout
        if dropout > 0.0:
            from repro.framework.rng import TrainingRng, dropout_stream_key

            self.rng = TrainingRng(seed, dropout_stream_key(dp_rank))
            # Let the interception layer snapshot/restore RNG state across
            # minibatch resets (Section 3.2's "random number generator
            # state").
            api.register_rng(self.rng.get_state, self.rng.set_state)
        shard = model_shard(config, seed)
        # A replica born bound to its group's leader shares its arrays.
        self.blocks, self.head = (shard.instantiate() if leader is None else
                                  bound_blocks(leader.blocks, leader.head))
        named = {}
        for i, block in enumerate(self.blocks):
            for name, array in block.as_dict().items():
                named[f"layer{i}.{name}"] = array
        named["head.w"] = self.head.w
        named["head.b"] = self.head.b
        self._register_params(named, shard.shares, leader)

    @property
    def is_checkpoint_writer(self) -> bool:
        return self.dp_rank == 0

    def _rebind_param(self, name: str, array: np.ndarray) -> None:
        super()._rebind_param(name, array)
        owner, _, attr = name.partition(".")
        if owner == "head":
            setattr(self.head, attr, array)
        else:
            setattr(self.blocks[int(owner[len("layer"):])], attr, array)

    # -- setup --------------------------------------------------------------------

    def setup(self) -> Generator:
        """Blocking initialisation: communicator rendezvous."""
        if self.comm is not None:
            yield from self.api.comm_init(self.comm)

    # -- one minibatch ----------------------------------------------------------------

    def train_step(self, iteration: Optional[int] = None) -> Generator:
        """Run one minibatch; returns the loss.

        CPU-side this enqueues the whole iteration asynchronously and then
        blocks once on the iteration-end event, exactly the run-ahead
        pattern of real frameworks the paper's mechanisms assume.
        """
        api = self.api
        if iteration is None:
            iteration = self.iteration
        self._flush_deferred_frees()
        api.minibatch_begin(iteration)
        if self.rng is not None:
            # The reseed is a *device* operation in minibatch m's replay
            # log: any replay of this minibatch (recovery, rollback,
            # validation) re-executes it and thereby rewinds the stream —
            # the analogue of cuRAND states living in device memory.
            self._snapshot_rng(iteration)
            api.launch_kernel(self.compute_stream, f"rng_reseed#{iteration}",
                              0.0, lambda it=iteration: self.rng.reseed(it))
        lr = self.scheduler.lr_at(iteration)
        self.scheduler.iteration = iteration + 1

        # Replica-dedup fast path: when every rank of the group shares the
        # canonical arena, model math is memoised once per group and each
        # thunk here degenerates to a lookup.  The decision is made per
        # iteration at enqueue time; a rank that diverges mid-flight
        # either never executes its already-enqueued thunks (a GPU epoch
        # bump hangs them) or holds the group's version when it does (an
        # in-place recovery's dissolve copies it), so the group memo can
        # never observe a stale member.
        arena = self._dedup_arena
        member = self._dedup_member
        group_math = (arena is not None
                      and arena.shares_math(member, iteration))
        # Under group math the first member to get here leads the
        # iteration; a member in the same state rides the leader's
        # timeline instead of enqueueing copies of it (dedup "Followers").
        if group_math:
            batch = arena.enter(self, iteration, lr)
        else:
            batch = None
            if arena is not None:
                arena.materialize(self)
        if batch is not None and batch.leader.engine is not self:
            return (yield from self._follow_step(iteration, lr, batch))
        streams = (api.physical(self.compute_stream),
                   api.physical(self.comm_stream))
        for stream in streams:
            stream._batch = batch
        try:
            bwd_done, loss_buf, grad_buffers, step_bufs = \
                self._enqueue_iteration(iteration, group_math, batch)
        finally:
            for stream in streams:
                stream._batch = None
        yield from api.event_synchronize(bwd_done)
        loss = float(loss_buf.array[0])

        optimizer = (arena.enter_optimizer(self, batch, lr)
                     if batch is not None else None)
        # The optimizer batch stays open over the interception layer's
        # hooks: a replay-log validation before the step and the marker
        # kernel after it join it.
        compute = api.physical(self.compute_stream)
        compute._batch = optimizer
        try:
            api.optimizer_step_begin(iteration)
            self._launch_optimizer(lr, partial(_grads_of, grad_buffers),
                                   optimizer)
            api.optimizer_step_end(iteration)
        finally:
            compute._batch = None

        self.loss_history.append(loss)
        # Step buffers stay alive until the (asynchronous) optimizer has
        # consumed the gradients; the next iteration frees them.
        self._deferred_frees.append(step_bufs)
        api.minibatch_end(iteration)
        self.iteration = iteration + 1
        return loss

    def _enqueue_iteration(self, iteration: int, group_math: bool, batch):
        """Enqueue forward, backward and all-reduces up to ``bwd_done``.

        Under group math every kernel runs the group's memoised math and
        carries this rank's private math for a replay (``GroupThunk``).
        A leader (*batch* not None) also notes in *batch* what riders
        need: its events, collectives and allocated bytes.
        """
        api = self.api
        gpu = self.gpu_spec
        arena = self._dedup_arena
        member = self._dedup_member
        x, labels = self.dataset.shard(iteration, self.dp_rank, self.dp_world)
        step_state: dict = {}
        step_bufs = []

        def thunk(group, private):
            return GroupThunk(group, private) if group_math else private

        # Input upload.
        input_bytes = max(1, self.cost.activation_bytes_per_layer())
        host_x = HostBuffer(x, logical_nbytes=input_bytes, label="host_input")
        x_buf = api.malloc(np.zeros_like(x), BufferKind.INPUT_DATA,
                           logical_nbytes=input_bytes, label=f"input#{iteration}")
        step_bufs.append(x_buf)
        api.memcpy_h2d_async(x_buf, host_x, stream=self.compute_stream)

        # Forward passes.
        fwd_time = self.cost.layer_forward_time(gpu)
        for i, block in enumerate(self.blocks):
            def fwd_thunk(i=i, block=block):
                src = step_state.get(("act", i - 1))
                if src is None:
                    src = x_buf.array
                out, cache = block.forward(src)
                if self.dropout > 0.0:
                    mask = self.rng.dropout_mask(out.shape, self.dropout)
                    step_state[("mask", i)] = mask
                    out = out * mask
                step_state[("act", i)] = out
                step_state[("cache", i)] = cache

            if group_math:
                # Activation buffer contents are never touched (the memo
                # or ``step_state`` carries the real activations); one
                # cached scratch array backs every layer's buffer, keeping
                # only the allocation events and memory accounting.
                scratch = self._act_scratch
                if scratch is None or scratch.shape != x.shape:
                    scratch = self._act_scratch = np.zeros_like(x)
            else:
                scratch = np.zeros_like(x)
            act_buf = api.malloc(scratch, BufferKind.ACTIVATION,
                                 logical_nbytes=max(
                                     1, self.cost.activation_bytes_per_layer()),
                                 label=f"act{i}#{iteration}")
            step_bufs.append(act_buf)
            api.launch_kernel(self.compute_stream, f"fwd{i}", fwd_time, thunk(
                lambda i=i, block=block: arena.group_forward(iteration, i,
                                                             block),
                fwd_thunk))

        loss_buf = api.malloc(np.zeros(1), BufferKind.ACTIVATION,
                              logical_nbytes=4, label=f"loss#{iteration}")
        step_bufs.append(loss_buf)

        def head_fwd_group():
            loss_buf.array[0] = arena.group_head_loss(
                iteration, member, self.head, len(self.blocks))

        def head_fwd_thunk():
            src = step_state[("act", len(self.blocks) - 1)]
            loss, cache = OutputHead.forward(src, self.head, labels)
            step_state["head_cache"] = cache
            loss_buf.array[0] = loss

        api.launch_kernel(self.compute_stream, "fwd_head",
                          self.cost.head_forward_time(gpu),
                          thunk(head_fwd_group, head_fwd_thunk))

        # Gradient buffers, allocated per minibatch so reset/replay recreates
        # them (Section 4.2 frees everything that is not params/optimizer).
        # Under group math every rank adopts the arena's shared gradient
        # arrays — same buffer lifecycle and memory accounting, one
        # allocation's worth of real memory, and the all-reduce becomes an
        # object-identity no-op.  They are allocated with zero arrays, as
        # private ones are, and only then aliased.
        if group_math:
            grad_arrays = arena.grad_zeros
        else:
            grad_arrays: ParamDict = {}
            for i, block in enumerate(self.blocks):
                for name, array in block.as_dict().items():
                    grad_arrays[f"layer{i}.{name}"] = np.zeros(array.shape)
            grad_arrays["head.w"] = np.zeros(self.head.w.shape)
            grad_arrays["head.b"] = np.zeros(self.head.b.shape)
        total = self.cost.gradient_bytes_local
        grad_buffers = allocate_group(api, grad_arrays, total,
                                      BufferKind.GRADIENT,
                                      prefix=f"grad#{iteration}:",
                                      shares=self._shares("grads", grad_arrays,
                                                          total))
        if group_math:
            arena.share_grads(iteration, grad_buffers)
        step_bufs.extend(grad_buffers.values())

        # Backward: head first, then blocks in reverse, overlapping each
        # layer's gradient all-reduce with the next layer's backward.
        ar_done_events = []

        def sync_layer_grads(names: list[str], tag: str) -> None:
            if self.dp_world <= 1:
                return
            ready = api.create_event(f"grads_ready:{tag}#{iteration}")
            api.event_record(ready, self.compute_stream)
            api.stream_wait_event(self.comm_stream, ready)
            if flags.fast_path and len(names) > 1:
                # One rendezvous for the whole layer group's buckets; same
                # per-bucket timing and data movement, far fewer simulator
                # events.
                ops = [api.all_reduce_batch(
                    self.comm, [grad_buffers[name] for name in names],
                    self.comm_stream, op=ReduceOp.MEAN)]
            else:
                ops = [api.all_reduce(self.comm, grad_buffers[name],
                                      self.comm_stream, op=ReduceOp.MEAN)
                       for name in names]
            done = api.create_event(f"ar_done:{tag}#{iteration}")
            api.event_record(done, self.comm_stream)
            ar_done_events.append(done)
            if batch is not None:
                batch.events += (api.physical(ready), api.physical(done))
                batch.collectives += [op.rendezvous for op in ops]

        def head_bwd_thunk():
            dx, grads = OutputHead.backward(step_state["head_cache"],
                                            self.head)
            step_state[("dy", len(self.blocks) - 1)] = dx
            grad_buffers["head.w"].array[...] = grads["w"]
            grad_buffers["head.b"].array[...] = grads["b"]

        api.launch_kernel(self.compute_stream, "bwd_head",
                          self.cost.head_backward_time(gpu), thunk(
                              lambda: arena.group_head_backward(
                                  iteration, self.head, len(self.blocks)),
                              head_bwd_thunk))
        sync_layer_grads(["head.w", "head.b"], "head")

        bwd_time = self.cost.layer_backward_time(gpu)
        for i in reversed(range(len(self.blocks))):
            def bwd_thunk(i=i, block=self.blocks[i]):
                dy = step_state[("dy", i)]
                if self.dropout > 0.0:
                    dy = dy * step_state[("mask", i)]
                cache = step_state[("cache", i)]
                dx, grads = block.backward_full(dy, cache)
                step_state[("dy", i - 1)] = dx
                for name, grad in grads.items():
                    grad_buffers[f"layer{i}.{name}"].array[...] = grad

            api.launch_kernel(self.compute_stream, f"bwd{i}", bwd_time, thunk(
                lambda i=i, block=self.blocks[i]: arena.group_block_backward(
                    iteration, i, block),
                bwd_thunk))
            sync_layer_grads([f"layer{i}.{name}"
                              for name in self.blocks[i].names()], f"layer{i}")

        # Gate the optimizer on every all-reduce having completed, then
        # block the CPU on backward completion — this is where real
        # frameworks call ``loss.item()``.  The optimizer below is enqueued
        # *after* the CPU wakes, so the CPU runs up to one iteration ahead
        # of the device, the run-ahead pattern Section 3.1 describes.
        for event in ar_done_events:
            api.stream_wait_event(self.compute_stream, event)
        bwd_done = api.create_event(f"bwd_done#{iteration}")
        api.event_record(bwd_done, self.compute_stream)
        if batch is not None:
            batch.bwd_done = api.physical(bwd_done)
            batch.events.append(batch.bwd_done)
            batch.nbytes = sum(buf.logical_nbytes for buf in step_bufs)
            batch.nbufs = len(step_bufs)
        return bwd_done, loss_buf, grad_buffers, step_bufs

    def _launch_optimizer(self, lr: float, grads, batch=None) -> None:
        """Enqueue the optimizer kernel; a leader's also steps its riders.

        *grads* returns the gradient arrays to step on when the kernel
        runs: they change identity when recovery gives a group-math
        iteration's buffers back to each member.
        """
        def opt_thunk():
            reduced = grads()
            self.optimizer.step(reduced, lr=lr)
            if batch is not None:
                for rider in batch.riders:
                    rider.engine.optimizer.step(reduced, lr=lr)

        self.api.launch_kernel(self.compute_stream, "optimizer",
                               self.cost.optimizer_step_time(self.gpu_spec),
                               opt_thunk)

    def _follow_step(self, iteration: int, lr: float, batch) -> Generator:
        """CPU side of an iteration ridden on *batch* (see ``train_step``).

        The device memory the private copies would hold is one allocation
        of the same logical size; the CPU blocks on the leader's
        ``bwd_done`` and takes its loss from the shared memo, or from its
        own buffers once a replay re-executed the iteration privately.
        """
        api = self.api
        arena = self._dedup_arena
        step = RiddenStep(self, iteration, lr)
        held, done = api.ride(step, batch)
        yield from api.event_synchronize(done)
        loss = arena.ridden_loss(iteration, self._dedup_member,
                                 self.head, len(self.blocks))
        if loss is None:
            loss = float(step.loss_buf.array[0])
        step.loss = loss
        optimizer = arena.enter_optimizer(self, batch, lr)
        api.optimizer_step_begin(iteration)
        if optimizer is None:
            self._launch_optimizer(lr, step.grads)
        api.optimizer_step_end(iteration)
        self.loss_history.append(loss)
        self._deferred_frees.append([held])
        api.minibatch_end(iteration)
        self.iteration = iteration + 1
        return loss

    def _follow_thunk(self, name: str, batch):
        """This rank's thunk for a group-math kernel of a ridden *batch*."""
        arena, iteration = self._dedup_arena, batch.iteration
        n_blocks = len(self.blocks)
        if name == "optimizer":
            return lambda: self.optimizer.step(arena.grad_arrays, lr=batch.lr)
        if name.startswith("opt_done_marker#"):
            return self.api.step_completed
        if name == "fwd_head":
            return lambda: arena.group_head_loss(
                iteration, self._dedup_member, self.head, n_blocks)
        if name == "bwd_head":
            return lambda: arena.group_head_backward(iteration, self.head,
                                                     n_blocks)
        index = int(name[3:])
        block = self.blocks[index]
        if name.startswith("fwd"):
            return lambda: arena.group_forward(iteration, index, block)
        return lambda: arena.group_block_backward(iteration, index, block)
