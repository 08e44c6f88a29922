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

from typing import Generator, Optional

import numpy as np

from repro import flags
from repro.cuda.memory import BufferKind, HostBuffer
from repro.framework.costmodel import TrainingCostModel
from repro.framework.data import SyntheticDataset
from repro.framework.layers import MlpBlock, OutputHead
from repro.framework.lr_scheduler import LrScheduler
from repro.framework.models import ModelConfig, build_blocks
from repro.framework.optim import ParamDict
from repro.nccl.communicator import NcclCommunicator
from repro.nccl.rendezvous import ReduceOp
from repro.parallel.base import BaseEngine
from repro.parallel.buffers import allocate_group
from repro.parallel.deviceapi import DeviceApi


class DataParallelEngine(BaseEngine):
    """One rank of a pure data-parallel (``ND``) job."""

    def __init__(self, api: DeviceApi, comm: Optional[NcclCommunicator],
                 config: ModelConfig, cost: TrainingCostModel,
                 dataset: SyntheticDataset, dp_rank: int, dp_world: int,
                 seed: int = 0, optimizer_kind: str = "adam",
                 lr: float = 1e-2, scheduler: Optional[LrScheduler] = None,
                 dropout: float = 0.0):
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
        self.blocks, self.head = build_blocks(config, seed)
        named = {}
        for i, block in enumerate(self.blocks):
            for name, array in block.as_dict().items():
                named[f"layer{i}.{name}"] = array
        named["head.w"] = self.head.w
        named["head.b"] = self.head.b
        self._register_params(named)

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

    def set_comm(self, comm: NcclCommunicator) -> None:
        """Swap in a recreated communicator after recovery."""
        self.comm = comm

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
        gpu = self.gpu_spec
        lr = self.scheduler.lr_at(iteration)
        self.scheduler.iteration = iteration + 1

        # Replica-dedup fast path: when every rank of the group shares the
        # canonical arena, model math is memoised once per group and each
        # thunk here degenerates to a lookup.  The decision is made at
        # enqueue time; a rank that diverges mid-flight never executes its
        # already-enqueued thunks (the GPU epoch bump hangs them), so the
        # group memo can never observe a stale member.
        arena = self._dedup_arena
        member = self._dedup_member
        group_math = (arena is not None and arena.group_math
                      and arena.member_active(member))

        if group_math:
            x, labels = arena.member_shard(iteration, member, self.dataset)
        else:
            x, labels = self.dataset.shard(iteration, self.dp_rank,
                                           self.dp_world)
        step_state: dict = {}
        step_bufs = []

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
            if group_math:
                def fwd_thunk(i=i, block=block):
                    arena.group_forward(iteration, i, block)
            else:
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
                # carries the real activations); one cached scratch array
                # backs every layer's buffer, keeping only the allocation
                # events and memory accounting.
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
            api.launch_kernel(self.compute_stream, f"fwd{i}", fwd_time, fwd_thunk)

        loss_buf = api.malloc(np.zeros(1), BufferKind.ACTIVATION,
                              logical_nbytes=4, label=f"loss#{iteration}")
        step_bufs.append(loss_buf)

        if group_math:
            def head_fwd_thunk():
                loss_buf.array[0] = arena.group_head_loss(
                    iteration, member, self.head, len(self.blocks))
        else:
            def head_fwd_thunk():
                src = step_state[("act", len(self.blocks) - 1)]
                loss, cache = OutputHead.forward(src, self.head, labels)
                step_state["head_cache"] = cache
                loss_buf.array[0] = loss

        api.launch_kernel(self.compute_stream, "fwd_head",
                          self.cost.head_forward_time(gpu), head_fwd_thunk)

        # Gradient buffers, allocated per minibatch so reset/replay recreates
        # them (Section 4.2 frees everything that is not params/optimizer).
        # Under group math every rank adopts the arena's shared gradient
        # arrays — same buffer lifecycle and memory accounting, one
        # allocation's worth of real memory, and the all-reduce becomes an
        # object-identity no-op.
        if group_math:
            grad_arrays = arena.grad_arrays
        else:
            grad_arrays: ParamDict = {}
            for i, block in enumerate(self.blocks):
                for name, array in block.as_dict().items():
                    grad_arrays[f"layer{i}.{name}"] = np.zeros_like(array)
            grad_arrays["head.w"] = np.zeros_like(self.head.w)
            grad_arrays["head.b"] = np.zeros_like(self.head.b)
        grad_buffers = allocate_group(api, grad_arrays,
                                      self.cost.gradient_bytes_local,
                                      BufferKind.GRADIENT,
                                      prefix=f"grad#{iteration}:")
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
                api.all_reduce_batch(self.comm,
                                     [grad_buffers[name] for name in names],
                                     self.comm_stream, op=ReduceOp.MEAN)
            else:
                for name in names:
                    api.all_reduce(self.comm, grad_buffers[name],
                                   self.comm_stream, op=ReduceOp.MEAN)
            done = api.create_event(f"ar_done:{tag}#{iteration}")
            api.event_record(done, self.comm_stream)
            ar_done_events.append(done)

        if group_math:
            def head_bwd_thunk():
                arena.group_head_backward(iteration, self.head,
                                          len(self.blocks))
        else:
            def head_bwd_thunk():
                dx, grads = OutputHead.backward(step_state["head_cache"],
                                                self.head)
                step_state[("dy", len(self.blocks) - 1)] = dx
                grad_buffers["head.w"].array[...] = grads["w"]
                grad_buffers["head.b"].array[...] = grads["b"]

        api.launch_kernel(self.compute_stream, "bwd_head",
                          self.cost.head_backward_time(gpu), head_bwd_thunk)
        sync_layer_grads(["head.w", "head.b"], "head")

        bwd_time = self.cost.layer_backward_time(gpu)
        for i in reversed(range(len(self.blocks))):
            if group_math:
                def bwd_thunk(i=i, block=self.blocks[i]):
                    arena.group_block_backward(iteration, i, block)
            else:
                def bwd_thunk(i=i, block=self.blocks[i]):
                    dy = step_state[("dy", i)]
                    if self.dropout > 0.0:
                        dy = dy * step_state[("mask", i)]
                    cache = step_state[("cache", i)]
                    dx, grads = block.backward_full(dy, cache)
                    step_state[("dy", i - 1)] = dx
                    for name, grad in grads.items():
                        grad_buffers[f"layer{i}.{name}"].array[...] = grad

            api.launch_kernel(self.compute_stream, f"bwd{i}", bwd_time, bwd_thunk)
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
        yield from api.event_synchronize(bwd_done)
        loss = float(loss_buf.array[0])

        api.optimizer_step_begin(iteration)

        def opt_thunk():
            grads = {name: buf.array for name, buf in grad_buffers.items()}
            self.optimizer.step(grads, lr=lr)

        api.launch_kernel(self.compute_stream, "optimizer",
                          self.cost.optimizer_step_time(gpu), opt_thunk)
        api.optimizer_step_end(iteration)

        self.loss_history.append(loss)
        # Step buffers stay alive until the (asynchronous) optimizer has
        # consumed the gradients; the next iteration frees them.
        self._deferred_frees.append(step_bufs)
        api.minibatch_end(iteration)
        self.iteration = iteration + 1
        return loss

    def train(self, num_iterations: int) -> Generator:
        """Run *num_iterations* minibatches; returns the loss history."""
        for _ in range(num_iterations):
            yield from self.train_step()
        yield from self.finish()
        return list(self.loss_history)
