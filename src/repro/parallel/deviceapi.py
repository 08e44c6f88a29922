"""The device-API seam between training engines and the CUDA/NCCL layers.

Engines never call :class:`~repro.cuda.runtime.CudaContext` or
:class:`~repro.nccl.communicator.NcclCommunicator` directly; they go
through a :class:`DeviceApi`.  The base class is a transparent passthrough
(what a process without any interception library sees).  The paper's two
mechanisms are subclasses:

* `repro.core.user_level.UserLevelInterceptApi` — LD_PRELOAD-style
  interception that watches collective-ordered events for hang detection;
* `repro.core.proxy.DeviceProxyApi` — the device proxy that logs every
  call into a replay log, hands out virtual handles and hides recovery.

Lifecycle hooks (``minibatch_begin`` / ``optimizer_step_begin`` / ...) are
the "additional hooks in the ML framework" of Section 4.2.2: they tell the
interception layer which phase of a minibatch the device APIs belong to.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro import flags
from repro.cuda.errors import CudaError
from repro.cuda.event import CudaEvent
from repro.cuda.memory import BufferKind, DeviceBuffer, HostBuffer
from repro.cuda.runtime import CudaContext
from repro.cuda.stream import CudaStream, StreamOp
from repro.nccl.communicator import NcclCommunicator
from repro.nccl.rendezvous import ReduceOp


class DeviceApi:
    """Passthrough device API bound to one rank's CUDA context."""

    def __init__(self, ctx: CudaContext, rank: int):
        self.ctx = ctx
        self.rank = rank
        #: Open iteration span handle (observability; None when untraced).
        self._iteration_span = None

    @property
    def env(self):
        return self.ctx.env

    # -- lifecycle hooks (iteration spans; otherwise no-ops) ----------------------
    #
    # The minibatch hooks run once per iteration per rank (cold path), so
    # the observability span costs one flag check when tracing is off and
    # one span record when it is on.  Subclasses overriding these hooks
    # must call super() to keep the goodput ledger's iteration spans.

    def minibatch_begin(self, iteration: int) -> None:
        tracer = self.ctx.tracer
        if flags.obs and tracer.enabled:
            self._iteration_span = tracer.begin_span(
                self.ctx.env.now, f"rank{self.rank}", "iteration",
                iteration=iteration)

    def minibatch_end(self, iteration: int) -> None:
        span = self._iteration_span
        if span is not None:
            self.ctx.tracer.end_span(span, self.ctx.env.now)
            self._iteration_span = None

    def optimizer_step_begin(self, iteration: int) -> None:
        pass

    def optimizer_step_end(self, iteration: int) -> None:
        pass

    def register_rng(self, get_state, set_state) -> None:
        """Engines with stochastic ops expose their RNG so interception
        layers can snapshot it per minibatch and rewind it before replay
        (transparent JIT; no-op without interception)."""
        pass

    # -- streams & events -------------------------------------------------------------

    def create_stream(self, name_hint: str = ""):
        return self.ctx.create_stream(name_hint)

    def create_event(self, name_hint: str = ""):
        return self.ctx.create_event(name_hint)

    def event_record(self, event, stream=None) -> None:
        self.ctx.event_record(event, stream)

    def stream_wait_event(self, stream, event) -> None:
        self.ctx.stream_wait_event(stream, event)

    def event_query(self, event) -> CudaError:
        return self.ctx.event_query(event)

    def event_synchronize(self, event) -> Generator:
        yield from self.ctx.event_synchronize(event)

    def stream_synchronize(self, stream=None) -> Generator:
        yield from self.ctx.stream_synchronize(stream)

    def device_synchronize(self) -> Generator:
        yield from self.ctx.device_synchronize()

    # -- memory / kernels ---------------------------------------------------------------

    def malloc(self, array: np.ndarray, kind: BufferKind,
               logical_nbytes: Optional[int] = None, label: str = ""):
        return self.ctx.malloc(array, kind, logical_nbytes, label)

    def free(self, buf) -> None:
        self.ctx.free(buf)

    def launch_kernel(self, stream, name: str, duration: float, thunk=None):
        return self.ctx.launch_kernel(stream, name, duration, thunk)

    def memcpy_d2h_async(self, host: HostBuffer, device, stream=None):
        return self.ctx.memcpy_d2h_async(host, device, stream)

    def memcpy_h2d_async(self, device, host: HostBuffer, stream=None):
        return self.ctx.memcpy_h2d_async(device, host, stream)

    # -- collectives --------------------------------------------------------------------

    def comm_init(self, comm: NcclCommunicator) -> Generator:
        yield from comm.init_rank(self.rank)

    def all_reduce(self, comm: NcclCommunicator, buf, stream,
                   op: ReduceOp = ReduceOp.SUM) -> StreamOp:
        return comm.all_reduce(self.rank, buf, stream, op)

    def all_reduce_batch(self, comm: NcclCommunicator, bufs, stream,
                         op: ReduceOp = ReduceOp.SUM) -> StreamOp:
        """Fused run of in-place all-reduces (one rendezvous, one stream op)."""
        return comm.all_reduce_batch(self.rank, list(bufs), stream, op)

    def broadcast(self, comm: NcclCommunicator, buf, root: int,
                  stream) -> StreamOp:
        return comm.broadcast(self.rank, buf, root, stream)

    def all_gather(self, comm: NcclCommunicator, send, recv, stream) -> StreamOp:
        return comm.all_gather(self.rank, send, recv, stream)

    def reduce_scatter(self, comm: NcclCommunicator, send, recv, stream,
                       op: ReduceOp = ReduceOp.SUM) -> StreamOp:
        return comm.reduce_scatter(self.rank, send, recv, stream, op)

    def send(self, comm: NcclCommunicator, buf, dst: int, stream) -> StreamOp:
        return comm.send(self.rank, buf, dst, stream)

    def recv(self, comm: NcclCommunicator, buf, src: int, stream) -> StreamOp:
        return comm.recv(self.rank, buf, src, stream)
