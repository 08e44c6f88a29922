"""FSDP engine: fully sharded data parallel with optional hybrid sharding.

Parameters are flattened per layer and sharded across the *shard group*;
forward/backward all-gather each layer's flat parameters just-in-time and
reduce-scatter its gradients afterwards.  With hybrid sharding the shard
group is one node and the shards are replicated across nodes, with an
extra all-reduce across the replica group — this is the configuration the
paper requires for FSDP JIT checkpointing ("model and optimizer states are
sharded within a node and replicated across the nodes", Section 3.1).

With full sharding (one shard group spanning every rank) there are no
replicas and JIT checkpointing cannot recover a lost shard — mirroring the
paper's observation that ZeRO-style full sharding "prevents
JIT-checkpointing benefits" (Section 7).
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro import flags
from repro.cuda.memory import BufferKind, HostBuffer
from repro.framework.costmodel import TrainingCostModel
from repro.framework.data import SyntheticDataset
from repro.framework.layers import MlpBlock, MlpBlockParams, OutputHead, OutputHeadParams
from repro.framework.lr_scheduler import LrScheduler
from repro.framework.models import ModelConfig, build_blocks
from repro.nccl.communicator import NcclCommunicator
from repro.nccl.rendezvous import ReduceOp
from repro.parallel.base import BaseEngine
from repro.parallel.buffers import allocate_group
from repro.parallel.deviceapi import DeviceApi


def flatten_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def unflatten_into(flat: np.ndarray, arrays: list[np.ndarray]) -> None:
    offset = 0
    for array in arrays:
        array[...] = flat[offset:offset + array.size].reshape(array.shape)
        offset += array.size


def pad_to(flat: np.ndarray, multiple: int) -> np.ndarray:
    remainder = flat.size % multiple
    if remainder == 0:
        return flat
    return np.concatenate([flat, np.zeros(multiple - remainder)])


class FsdpEngine(BaseEngine):
    """One rank of an FSDP job.

    ``shard_comm`` spans the shard group (one node under hybrid sharding);
    ``replica_comm`` spans ranks holding the same shard index on other
    nodes (None for full sharding).  Every rank is also a data-parallel
    worker over the global batch.
    """

    def __init__(self, api: DeviceApi, rank: int, world_size: int,
                 shard_comm: NcclCommunicator, shard_rank: int, shard_world: int,
                 replica_comm: Optional[NcclCommunicator],
                 config: ModelConfig, cost: TrainingCostModel,
                 dataset: SyntheticDataset, seed: int = 0,
                 optimizer_kind: str = "adam", lr: float = 1e-2,
                 scheduler: Optional[LrScheduler] = None,
                 world_comm: Optional[NcclCommunicator] = None):
        super().__init__(api, config, cost, optimizer_kind, lr, scheduler)
        #: World-spanning communicator for the global grad-norm
        #: all-reduce, gating optimizer entry all-or-none across shards.
        self.world_comm = world_comm
        self.rank = rank
        self.world_size = world_size
        self.shard_comm = shard_comm
        self.shard_rank = shard_rank
        self.shard_world = shard_world
        self.replica_comm = replica_comm
        self.dataset = dataset
        self.seed = seed
        self.shard_id = f"fsdp-shard{shard_rank}"

        # Build the full semantic model, flatten per layer, keep our slice.
        blocks, head = build_blocks(config, seed)
        self._layer_shapes: list[list[np.ndarray]] = []
        self._full_blocks = blocks
        self._head = head
        shard_arrays: dict[str, np.ndarray] = {}
        self._flat_sizes: list[int] = []
        units: list[list[np.ndarray]] = [b.arrays() for b in blocks]
        units.append([head.w, head.b])
        for i, arrays in enumerate(units):
            flat = pad_to(flatten_arrays(arrays), shard_world)
            self._flat_sizes.append(flat.size)
            per = flat.size // shard_world
            shard_arrays[f"unit{i}"] = flat[shard_rank * per:
                                            (shard_rank + 1) * per].copy()
        self._units = units
        self._register_params(shard_arrays)

    @property
    def n_units(self) -> int:
        return len(self._units)

    @property
    def is_checkpoint_writer(self) -> bool:
        """The first shard group writes (one replica of each shard)."""
        return self.rank == self.shard_rank

    # -- setup ----------------------------------------------------------------------

    def setup(self) -> Generator:
        yield from self.api.comm_init(self.shard_comm)
        if self.replica_comm is not None and self.replica_comm.nranks > 1:
            yield from self.api.comm_init(self.replica_comm)
        if self.world_comm is not None and self.world_comm.nranks > 1:
            yield from self.api.comm_init(self.world_comm)

    def set_comms(self, shard_comm=None, replica_comm=None,
                  world_comm=None) -> None:
        if shard_comm is not None:
            self.shard_comm = shard_comm
        if replica_comm is not None:
            self.replica_comm = replica_comm
        if world_comm is not None:
            self.world_comm = world_comm

    # -- one minibatch --------------------------------------------------------------------

    def train_step(self, iteration: Optional[int] = None) -> Generator:
        api = self.api
        if iteration is None:
            iteration = self.iteration
        self._flush_deferred_frees()
        api.minibatch_begin(iteration)
        gpu = self.gpu_spec
        lr = self.scheduler.lr_at(iteration)
        self.scheduler.iteration = iteration + 1

        x, labels = self.dataset.shard(iteration, self.rank, self.world_size)
        step_state: dict = {}
        step_bufs: list = []
        act_bytes = max(1, self.cost.activation_bytes_per_layer())
        # One unit's full flat parameters, fp16.
        unit_bytes = [max(1, int(size / sum(self._flat_sizes)
                                 * self.config.param_bytes))
                      for size in self._flat_sizes]

        def new_buf(shape_or_array, label, kind=BufferKind.ACTIVATION,
                    nbytes=None):
            array = (np.zeros(shape_or_array)
                     if isinstance(shape_or_array, tuple) else shape_or_array)
            buf = api.malloc(array, kind, logical_nbytes=nbytes or act_bytes,
                             label=f"{label}#{iteration}")
            step_bufs.append(buf)
            return buf

        def gather_unit(i: int, tag: str):
            """All-gather unit *i*'s flat params into a scratch buffer."""
            full = new_buf((self._flat_sizes[i],), f"{tag}:gathered{i}",
                           kind=BufferKind.SCRATCH, nbytes=unit_bytes[i])
            api.all_gather(self.shard_comm, self.param_buffers[f"unit{i}"],
                           full, self.compute_stream)

            def unpack_thunk(i=i, full=full):
                unflatten_into(full.array, self._units[i])

            api.launch_kernel(self.compute_stream, f"{tag}:unpack{i}", 0.0,
                              unpack_thunk)
            return full

        host = HostBuffer(x, logical_nbytes=act_bytes)
        x_buf = new_buf(np.zeros_like(x), "input", kind=BufferKind.INPUT_DATA)
        api.memcpy_h2d_async(x_buf, host, stream=self.compute_stream)

        fwd_time = self.cost.layer_forward_time(gpu)
        bwd_time = self.cost.layer_backward_time(gpu)

        # ---- forward: gather -> compute, unit by unit --------------------------
        act_buf = x_buf
        for i, block in enumerate(self._full_blocks):
            gather_unit(i, "fwd")
            out = new_buf(np.zeros_like(x), f"act{i}")

            def fwd_thunk(i=i, block=block, src=act_buf, dst=out):
                y, cache = block.forward(src.array)
                dst.array[...] = y
                step_state[("cache", i)] = cache

            api.launch_kernel(self.compute_stream, f"fwd{i}", fwd_time,
                              fwd_thunk)
            act_buf = out

        head_unit = self.n_units - 1
        gather_unit(head_unit, "fwd")
        loss_buf = new_buf((1,), "loss", nbytes=4)

        def head_thunk(src=act_buf):
            loss, cache = OutputHead.forward(src.array, self._head, labels)
            step_state["head_cache"] = cache
            loss_buf.array[0] = loss

        api.launch_kernel(self.compute_stream, "fwd_head",
                          self.cost.head_forward_time(gpu), head_thunk)

        # ---- backward: regather -> compute -> reduce-scatter ---------------------
        grad_shard_bufs: dict[int, object] = {}
        #: With the fast path on, the per-unit replica all-reduces are
        #: deferred and issued as one batched rendezvous after backward:
        #: the compute stream is FIFO, so the grad-norm kernel and the
        #: optimizer still see fully reduced shards, and the iteration's
        #: total stream time is unchanged (the same segment durations are
        #: paid, just contiguously).
        deferred_replica_bufs: list = []

        def reduce_unit(i: int, grads_flat_fn) -> None:
            """Scatter-reduce unit *i*'s gradients to this rank's slice."""
            full_grad = new_buf((self._flat_sizes[i],), f"gradfull{i}",
                                kind=BufferKind.GRADIENT, nbytes=unit_bytes[i])

            def pack_thunk(full_grad=full_grad, fn=grads_flat_fn):
                full_grad.array[...] = fn()

            api.launch_kernel(self.compute_stream, f"packgrad{i}", 0.0,
                              pack_thunk)
            per = self._flat_sizes[i] // self.shard_world
            shard_grad = new_buf((per,), f"gradshard{i}",
                                 kind=BufferKind.GRADIENT,
                                 nbytes=max(1, unit_bytes[i] // self.shard_world))
            api.reduce_scatter(self.shard_comm, full_grad, shard_grad,
                               self.compute_stream, op=ReduceOp.MEAN)
            if self.replica_comm is not None and self.replica_comm.nranks > 1:
                if flags.fast_path:
                    deferred_replica_bufs.append(shard_grad)
                else:
                    api.all_reduce(self.replica_comm, shard_grad,
                                   self.compute_stream, op=ReduceOp.MEAN)
            grad_shard_bufs[i] = shard_grad

        def head_grads_flat():
            dx, grads = OutputHead.backward(step_state["head_cache"],
                                            self._head)
            step_state["dy"] = dx
            flat = flatten_arrays([grads["w"], grads["b"]])
            return pad_to(flat, self.shard_world)

        api.launch_kernel(self.compute_stream, "bwd_head",
                          self.cost.head_backward_time(gpu), lambda: None)
        reduce_unit(head_unit, head_grads_flat)

        for i in reversed(range(len(self._full_blocks))):
            gather_unit(i, "bwd")

            def block_grads_flat(i=i, block=self._full_blocks[i]):
                dy = step_state["dy"]
                dx, grads = block.backward_full(dy, step_state[("cache", i)])
                step_state["dy"] = dx
                flat = flatten_arrays([grads[name] for name in block.names()])
                return pad_to(flat, self.shard_world)

            api.launch_kernel(self.compute_stream, f"bwd{i}", bwd_time,
                              lambda: None)
            reduce_unit(i, block_grads_flat)

        if deferred_replica_bufs:
            api.all_reduce_batch(self.replica_comm, deferred_replica_bufs,
                                 self.compute_stream, op=ReduceOp.MEAN)

        # Global gradient norm across every rank: the all-or-none gate for
        # optimizer entry (matches Megatron/FSDP grad clipping traffic).
        if self.world_comm is not None and self.world_comm.nranks > 1:
            norm_buf = new_buf((1,), "grad_norm_sq", nbytes=4)

            def local_norm_thunk(dst=norm_buf):
                dst.array[0] = sum(float((grad_shard_bufs[i].array ** 2).sum())
                                   for i in range(self.n_units))

            api.launch_kernel(self.compute_stream, "grad_norm_local", 0.0,
                              local_norm_thunk)
            api.all_reduce(self.world_comm, norm_buf, self.compute_stream,
                           op=ReduceOp.SUM)

        # CPU blocks on backward completion, then enqueues the optimizer
        # and runs ahead (framework run-ahead pattern).
        bwd_done = api.create_event(f"bwd_done#{iteration}")
        api.event_record(bwd_done, self.compute_stream)
        yield from api.event_synchronize(bwd_done)
        loss = float(loss_buf.array[0])

        # ---- optimizer over local shards --------------------------------------------
        api.optimizer_step_begin(iteration)

        def opt_thunk():
            grads = {f"unit{i}": grad_shard_bufs[i].array
                     for i in range(self.n_units)}
            self.optimizer.step(grads, lr=lr)

        api.launch_kernel(self.compute_stream, "optimizer",
                          self.cost.optimizer_step_time(gpu), opt_thunk)
        api.optimizer_step_end(iteration)

        self.loss_history.append(loss)
        self._deferred_frees.append(step_bufs)
        api.minibatch_end(iteration)
        self.iteration = iteration + 1
        return loss

    def train(self, num_iterations: int) -> Generator:
        for _ in range(num_iterations):
            yield from self.train_step()
        yield from self.finish()
        return list(self.loss_history)
