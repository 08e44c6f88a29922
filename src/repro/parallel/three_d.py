"""3D-parallel engine: data x pipeline x tensor (Megatron-style).

Per minibatch (GPipe schedule):

* every microbatch flows forward through the pipeline stages, with tensor
  parallel all-reduces inline on the compute stream inside each block and
  activations passed stage-to-stage over NCCL send/recv;
* backward runs in reverse, accumulating gradients over microbatches;
* data-parallel gradient all-reduces go on the communication stream,
  overlapped behind ``cudaStreamWaitEvent``s like Figure 3;
* the optimizer step runs after all gradient synchronisation.

The collective barriers introduced by TP and PP are the "additional target
points for the hang detection mechanism" the paper describes for 3D jobs
(Section 3.1).
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro import flags
from repro.cuda.memory import BufferKind, HostBuffer
from repro.framework.costmodel import TrainingCostModel
from repro.framework.data import SyntheticDataset
from repro.framework.layers import OutputHead
from repro.framework.lr_scheduler import LrScheduler
from repro.framework.models import ModelConfig, bound_blocks, model_shard
from repro.nccl.communicator import NcclCommunicator
from repro.nccl.rendezvous import ReduceOp
from repro.parallel.base import BaseEngine
from repro.parallel.buffers import allocate_group
from repro.parallel.deviceapi import DeviceApi
from repro.parallel.topology import ParallelLayout


class ThreeDEngine(BaseEngine):
    """One rank of a (dp, pp, tp) job."""

    def __init__(self, api: DeviceApi, layout: ParallelLayout, rank: int,
                 comms: dict[str, Optional[NcclCommunicator]],
                 config: ModelConfig, cost: TrainingCostModel,
                 dataset: SyntheticDataset, n_microbatches: int = 2,
                 seed: int = 0, optimizer_kind: str = "adam",
                 lr: float = 1e-2, scheduler: Optional[LrScheduler] = None,
                 leader: Optional["ThreeDEngine"] = None):
        super().__init__(api, config, cost, optimizer_kind, lr, scheduler)
        self.layout = layout
        self.rank = rank
        self.coords = layout.coords(rank)
        self.dp_comm = comms.get("dp")
        self.tp_comm = comms.get("tp")
        self.pp_comm = comms.get("pp")
        #: World-spanning communicator for the global gradient-norm
        #: all-reduce.  This barrier is why optimizer entry is all-or-none
        #: across every shard: if any rank fails before it, *no* rank has
        #: mutated parameters, so every JIT checkpoint lands on the same
        #: iteration (the property Section 4.2 of the paper leans on).
        self.world_comm = comms.get("world")
        self.dataset = dataset
        self.n_microbatches = n_microbatches
        self.seed = seed
        self.layer_lo, self.layer_hi = layout.layer_range(self.coords.pp,
                                                          config.n_layers)
        shard = model_shard(config, seed, (self.layer_lo, self.layer_hi),
                            self.coords.tp, layout.tp)
        # A replica born bound to its DP group's leader shares its arrays.
        self.blocks, self.head = (shard.instantiate() if leader is None else
                                  bound_blocks(leader.blocks, leader.head))
        self.is_first_stage = self.coords.pp == 0
        self.is_last_stage = self.coords.pp == layout.pp - 1
        self.shard_id = f"pp{self.coords.pp}-tp{self.coords.tp}"
        named = {}
        for i, block in enumerate(self.blocks):
            for name, array in block.as_dict().items():
                named[f"layer{self.layer_lo + i}.{name}"] = array
        if self.head is not None:
            named["head.w"] = self.head.w
            named["head.b"] = self.head.b
        self._register_params(named, shard.shares, leader)
        self._tp_replicated_names = {
            f"layer{self.layer_lo + i}.{name}"
            for i, block in enumerate(self.blocks)
            for name in block.tp_replicated_param_names()
        } | {"head.w", "head.b"}

    @property
    def is_checkpoint_writer(self) -> bool:
        return self.coords.dp == 0

    def _rebind_param(self, name: str, array) -> None:
        super()._rebind_param(name, array)
        owner, _, attr = name.partition(".")
        if owner == "head":
            setattr(self.head, attr, array)
        else:
            index = int(owner[len("layer"):]) - self.layer_lo
            setattr(self.blocks[index], attr, array)

    # -- setup -------------------------------------------------------------------

    def setup(self) -> Generator:
        for comm in (self.tp_comm, self.pp_comm, self.dp_comm,
                     self.world_comm):
            if comm is not None and comm.nranks > 1:
                yield from self.api.comm_init(comm)

    def set_comms(self, comms: dict[str, Optional[NcclCommunicator]]) -> None:
        self.dp_comm = comms.get("dp", self.dp_comm)
        self.tp_comm = comms.get("tp", self.tp_comm)
        self.pp_comm = comms.get("pp", self.pp_comm)
        self.world_comm = comms.get("world", self.world_comm)

    # -- helpers ---------------------------------------------------------------------

    def _micro_shape(self) -> tuple[int, int]:
        per_rank = self.dataset.global_batch // self.layout.dp
        return per_rank // self.n_microbatches, self.config.d_model

    def _tp_all_reduce_inline(self, buf, tag: str) -> None:
        """Inline tensor-parallel sum on the compute stream."""
        if self.layout.tp > 1:
            self.api.all_reduce(self.tp_comm, buf, self.compute_stream,
                                op=ReduceOp.SUM)

    def _is_tp_replicated(self, param_name: str) -> bool:
        """Replicated (not TP-sharded) parameters: each block declares its
        own (MLP: b2; attention: bo), plus the whole head."""
        return param_name in self._tp_replicated_names

    # -- one minibatch -----------------------------------------------------------------

    def train_step(self, iteration: Optional[int] = None) -> Generator:
        """Run one minibatch; returns loss on last-stage ranks, else None."""
        api = self.api
        if iteration is None:
            iteration = self.iteration
        self._flush_deferred_frees()
        api.minibatch_begin(iteration)
        gpu = self.gpu_spec
        lr = self.scheduler.lr_at(iteration)
        self.scheduler.iteration = iteration + 1
        n_micro = self.n_microbatches
        micro_rows, d_model = self._micro_shape()
        act_bytes = max(1, self.cost.activation_bytes_per_layer())

        micros = self.dataset.microbatches(iteration, self.coords.dp,
                                           self.layout.dp, n_micro)
        labels_per_micro = [labels for _x, labels in micros]
        # Per-kernel durations: the cost model's per-layer time carries the
        # whole-model fraction 1/(pp*tp), but a layer is physically split
        # across TP only (pipeline sharding reduces the *count* of local
        # layers, not their size), so scale back by pp; each microbatch
        # kernel then processes 1/n_micro of the rank's tokens.
        layer_scale = self.layout.pp / n_micro
        fwd_time = self.cost.layer_forward_time(gpu) * layer_scale
        bwd_time = self.cost.layer_backward_time(gpu) * layer_scale
        head_fwd_time = self.cost.head_forward_time(gpu) * layer_scale
        head_bwd_time = self.cost.head_backward_time(gpu) * layer_scale

        step_state: dict = {}
        step_bufs: list = []

        def new_buf(shape, label, kind=BufferKind.ACTIVATION):
            buf = api.malloc(np.zeros(shape), kind, logical_nbytes=act_bytes,
                             label=f"{label}#{iteration}")
            step_bufs.append(buf)
            return buf

        pp_prev = (self.layout.rank_of(self.coords.dp, self.coords.pp - 1,
                                       self.coords.tp)
                   if not self.is_first_stage else None)
        pp_next = (self.layout.rank_of(self.coords.dp, self.coords.pp + 1,
                                       self.coords.tp)
                   if not self.is_last_stage else None)

        # ---- forward for every microbatch -------------------------------------
        fwd_out_bufs = []
        for m in range(n_micro):
            if self.is_first_stage:
                x, _ = micros[m]
                host = HostBuffer(x, logical_nbytes=act_bytes)
                in_buf = new_buf(x.shape, f"mb{m}:input",
                                 kind=BufferKind.INPUT_DATA)
                api.memcpy_h2d_async(in_buf, host, stream=self.compute_stream)
            else:
                in_buf = new_buf((micro_rows, d_model), f"mb{m}:recv_act")
                api.recv(self.pp_comm, in_buf, src=pp_prev,
                         stream=self.compute_stream)

            act_buf = in_buf
            for i, block in enumerate(self.blocks):
                partial_buf = new_buf((micro_rows, d_model),
                                      f"mb{m}:partial{i}")

                def fwd_thunk(m=m, i=i, block=block, src=act_buf,
                              dst=partial_buf):
                    partial, cache = block.forward_partial(src.array)
                    dst.array[...] = partial
                    step_state[("cache", m, i)] = cache

                api.launch_kernel(self.compute_stream, f"mb{m}:fwd{i}",
                                  fwd_time, fwd_thunk)
                self._tp_all_reduce_inline(partial_buf, f"mb{m}:fwd{i}")
                out_buf = new_buf((micro_rows, d_model), f"mb{m}:act{i}")

                def finish_thunk(block=block, src=act_buf, red=partial_buf,
                                 dst=out_buf):
                    dst.array[...] = block.finish_forward(src.array,
                                                          red.array)

                api.launch_kernel(self.compute_stream, f"mb{m}:finish{i}",
                                  0.0, finish_thunk)
                act_buf = out_buf

            fwd_out_bufs.append(act_buf)
            if not self.is_last_stage:
                api.send(self.pp_comm, act_buf, dst=pp_next,
                         stream=self.compute_stream)

        loss_buf = None
        if self.is_last_stage:
            loss_buf = api.malloc(np.zeros(1), BufferKind.ACTIVATION,
                                  logical_nbytes=4, label=f"loss#{iteration}")
            step_bufs.append(loss_buf)
            for m in range(n_micro):
                def head_thunk(m=m, src=fwd_out_bufs[m]):
                    loss, cache = OutputHead.forward(src.array, self.head,
                                                     labels_per_micro[m])
                    step_state[("head_cache", m)] = cache
                    loss_buf.array[0] += loss / n_micro

                api.launch_kernel(self.compute_stream, f"mb{m}:fwd_head",
                                  head_fwd_time, head_thunk)

        # ---- gradient accumulators ----------------------------------------------
        grad_arrays = {name: np.zeros(buf.array.shape)
                       for name, buf in self.param_buffers.items()}
        total = self.cost.gradient_bytes_local
        grad_buffers = allocate_group(api, grad_arrays, total,
                                      BufferKind.GRADIENT,
                                      prefix=f"grad#{iteration}:",
                                      shares=self._shares("grads", grad_arrays,
                                                          total))
        step_bufs.extend(grad_buffers.values())

        def accumulate(name: str, value: np.ndarray) -> None:
            grad_buffers[name].array[...] += value

        # ---- backward for every microbatch (reverse order) ------------------------
        for m in reversed(range(n_micro)):
            if self.is_last_stage:
                dy_buf = new_buf((micro_rows, d_model), f"mb{m}:dy_head")

                def head_bwd_thunk(m=m, dst=dy_buf):
                    dx, grads = OutputHead.backward(
                        step_state[("head_cache", m)], self.head)
                    dst.array[...] = dx
                    # 1/n_micro so accumulated sums form the local-batch mean.
                    accumulate("head.w", grads["w"] / n_micro)
                    accumulate("head.b", grads["b"] / n_micro)

                api.launch_kernel(self.compute_stream, f"mb{m}:bwd_head",
                                  head_bwd_time, head_bwd_thunk)
            else:
                dy_buf = new_buf((micro_rows, d_model), f"mb{m}:recv_dy")
                api.recv(self.pp_comm, dy_buf, src=pp_next,
                         stream=self.compute_stream)

            for i in reversed(range(len(self.blocks))):
                dx_partial_buf = new_buf((micro_rows, d_model),
                                         f"mb{m}:dxp{i}")

                def bwd_thunk(m=m, i=i, block=self.blocks[i], dy=dy_buf,
                              dst=dx_partial_buf):
                    cache = step_state[("cache", m, i)]
                    dx_partial, grads = block.backward(dy.array, cache)
                    dst.array[...] = dx_partial
                    for name, grad in grads.items():
                        accumulate(f"layer{self.layer_lo + i}.{name}",
                                   grad / n_micro)

                api.launch_kernel(self.compute_stream, f"mb{m}:bwd{i}",
                                  bwd_time, bwd_thunk)
                # TP ranks each hold a partial dx; sum them, then add the
                # residual path once.
                self._tp_all_reduce_inline(dx_partial_buf, f"mb{m}:bwd{i}")
                dx_buf = new_buf((micro_rows, d_model), f"mb{m}:dx{i}")

                def residual_thunk(dy=dy_buf, partial=dx_partial_buf,
                                   dst=dx_buf):
                    dst.array[...] = partial.array + dy.array

                api.launch_kernel(self.compute_stream, f"mb{m}:resid{i}",
                                  0.0, residual_thunk)
                dy_buf = dx_buf

            if not self.is_first_stage:
                api.send(self.pp_comm, dy_buf, dst=pp_prev,
                         stream=self.compute_stream)

        # ---- data-parallel gradient sync (overlapped stream, Figure 3) -----------
        ar_done_events = []
        if self.layout.dp > 1:
            ready = api.create_event(f"grads_ready#{iteration}")
            api.event_record(ready, self.compute_stream)
            api.stream_wait_event(self.comm_stream, ready)
            if flags.fast_path and len(grad_buffers) > 1:
                # The whole iteration's dp gradient buckets share one
                # rendezvous (same per-bucket timing and data movement).
                api.all_reduce_batch(self.dp_comm, list(grad_buffers.values()),
                                     self.comm_stream, op=ReduceOp.MEAN)
            else:
                for name in grad_buffers:
                    api.all_reduce(self.dp_comm, grad_buffers[name],
                                   self.comm_stream, op=ReduceOp.MEAN)
            done = api.create_event(f"ar_done#{iteration}")
            api.event_record(done, self.comm_stream)
            ar_done_events.append(done)

        for event in ar_done_events:
            api.stream_wait_event(self.compute_stream, event)

        # ---- global gradient norm (Megatron-style) --------------------------------
        # A world-spanning all-reduce between backward and optimizer: the
        # all-or-none gate for optimizer entry.
        if self.world_comm is not None and self.world_comm.nranks > 1:
            norm_buf = new_buf((1,), "grad_norm_sq")

            def local_norm_thunk(dst=norm_buf):
                total = 0.0
                for name, buf in grad_buffers.items():
                    weight = (1.0 / self.layout.tp
                              if self._is_tp_replicated(name) else 1.0)
                    total += weight * float((buf.array ** 2).sum())
                dst.array[0] = total

            api.launch_kernel(self.compute_stream, "grad_norm_local", 0.0,
                              local_norm_thunk)
            api.all_reduce(self.world_comm, norm_buf, self.compute_stream,
                           op=ReduceOp.SUM)

        # CPU blocks on backward completion (the loss read point), then
        # enqueues the optimizer and runs ahead into the next iteration.
        bwd_done = api.create_event(f"bwd_done#{iteration}")
        api.event_record(bwd_done, self.compute_stream)
        yield from api.event_synchronize(bwd_done)
        loss = float(loss_buf.array[0]) if loss_buf is not None else None

        # ---- optimizer ----------------------------------------------------------------
        api.optimizer_step_begin(iteration)

        def opt_thunk():
            grads = {name: buf.array for name, buf in grad_buffers.items()}
            self.optimizer.step(grads, lr=lr)

        api.launch_kernel(self.compute_stream, "optimizer",
                          self.cost.optimizer_step_time(gpu), opt_thunk)
        api.optimizer_step_end(iteration)

        if loss is not None:
            self.loss_history.append(loss)
        self._deferred_frees.append(step_bufs)
        api.minibatch_end(iteration)
        self.iteration = iteration + 1
        return loss
