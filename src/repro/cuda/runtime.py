"""The CUDA API surface used by the training framework and interception layer.

One :class:`CudaContext` exists per (worker process, GPU) pair.  All calls
are *immediate* from the CPU's point of view (they enqueue work and
return); only the ``*_synchronize`` helpers are generators that block the
calling worker process in simulation time.

Error model: each API call first checks context health (``_guard``).  A
sticky or dead context raises :class:`CudaApiError` from every call, like
real CUDA.  Recovery code uses the ``rescue_*`` entry points, which bypass
the guard as long as device memory is physically accessible.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

import numpy as np

from repro.cuda.errors import CudaApiError, CudaError
from repro.cuda.event import CudaEvent
from repro.cuda.memory import BufferKind, DeviceBuffer, HostBuffer
from repro.cuda.stream import (
    CudaStream,
    KernelOp,
    MemcpyOp,
    RecordEventOp,
    WaitEventOp,
)
from repro.hardware.gpu import Gpu, GpuHealth
from repro.hardware.node import Node
from repro.sim import Environment, Event

_context_ids = itertools.count()


class CudaContext:
    """Simulated CUDA context bound to one GPU on one node."""

    def __init__(self, env: Environment, gpu: Gpu, node: Node):
        self.env = env
        self.gpu = gpu
        self.node = node
        self.context_id = next(_context_ids)
        #: ``env.tracer``, bound once: event naming reads it per event.
        self.tracer = env.tracer
        self.streams: list[CudaStream] = []
        #: Events created so far: the ordinal in traced event names.
        self._event_ordinal = 0
        self.buffers: dict[int, DeviceBuffer] = {}
        self._sticky_error: Optional[CudaError] = None
        #: Called before a caller other than the owner's training step
        #: observes, synchronizes or tears down this context's streams,
        #: or copies its memory out: replicas riding a shared timeline
        #: materialise first (set by
        #: :class:`repro.framework.dedup.ReplicaArena`).
        self.follow_hook = None
        #: The implicit stream every unqualified call lands on.
        self.default_stream = self.create_stream(name_hint="default")

    # -- health guard -------------------------------------------------------------

    def _guard(self) -> None:
        # Hot path: one call per CUDA API entry.  Reads the health enum
        # once and exits on the two usable states before any error logic.
        if self._sticky_error is not None:
            raise CudaApiError(self._sticky_error, "context poisoned")
        health = self.gpu._health
        if health is GpuHealth.HEALTHY or health is GpuHealth.DRIVER_CORRUPT:
            return
        if health is GpuHealth.DEAD:
            self._sticky_error = CudaError.DEVICE_LOST
            raise CudaApiError(CudaError.DEVICE_LOST, self.gpu.gpu_id)
        self._sticky_error = CudaError.STICKY
        raise CudaApiError(CudaError.STICKY, self.gpu.gpu_id)

    @property
    def poisoned(self) -> bool:
        return self._sticky_error is not None

    # -- streams & events ------------------------------------------------------------

    def observed(self) -> None:
        """Something other than the owner's training step observes this
        context's streams or memory: riders materialise first."""
        hook = self.follow_hook
        if hook is not None:
            hook()

    def create_stream(self, name_hint: str = "") -> CudaStream:
        self.observed()
        name = f"ctx{self.context_id}:{name_hint or 'stream'}{len(self.streams)}"
        stream = CudaStream(self.env, self.gpu, name=name)
        self.streams.append(stream)
        return stream

    def create_event(self, name_hint: str = "") -> CudaEvent:
        return CudaEvent(self.env, name=self.next_event_name(name_hint),
                         hint=name_hint)

    def next_event_name(self, name_hint: str) -> str:
        """Name of the next event created here; advances the ordinal.

        A replica riding another's timeline (:mod:`repro.framework.dedup`)
        takes the names of the events it does not create, so its traced
        records, and its copies of the events once it materialises, carry
        the names a private run would have given them.
        """
        # Compose the ctx-qualified name only when a per-op record will
        # carry it; the hint alone (or the event's lazy default) serves
        # repr/debug.
        name = (f"ctx{self.context_id}:{name_hint or 'ev'}{self._event_ordinal}"
                if self.tracer.ops else name_hint)
        self._event_ordinal += 1
        return name

    def event_record(self, event: CudaEvent, stream: Optional[CudaStream] = None) -> None:
        """``cudaEventRecord``."""
        self._guard()
        stream = stream or self.default_stream
        completion = event.mark_recorded(stream)
        stream.enqueue(RecordEventOp(event, completion))

    def stream_wait_event(self, stream: CudaStream, event: CudaEvent) -> None:
        """``cudaStreamWaitEvent``."""
        self._guard()
        stream.enqueue(WaitEventOp(event))

    def event_query(self, event: CudaEvent) -> CudaError:
        """``cudaEventQuery`` — never raises; used by the watchdog.

        Like real CUDA, the query itself surfaces a sticky device error,
        which is how polling watchdogs learn of failures without any
        training-path API being called.
        """
        if self._sticky_error is None:
            if self.gpu.health is GpuHealth.DEAD:
                self._sticky_error = CudaError.DEVICE_LOST
            elif self.gpu.health is GpuHealth.STICKY_ERROR:
                self._sticky_error = CudaError.STICKY
        if self._sticky_error is not None:
            return self._sticky_error
        return event.query()

    def event_synchronize(self, event: CudaEvent) -> Generator:
        self._guard()
        completion = event.completion
        if not completion.triggered:
            yield completion

    def sync_markers(self, streams: list[CudaStream]) -> list[Event]:
        """Enqueue a sync marker on each of *streams*; their completions.

        A synchronize observes the streams: replicas riding a shared
        timeline (:mod:`repro.framework.dedup`) materialise first, so
        each marker queues behind the syncing replica's own ops.
        """
        self.observed()
        return [stream.sync_marker() for stream in streams]

    def stream_synchronize(self, stream: Optional[CudaStream] = None) -> Generator:
        self._guard()
        marker, = self.sync_markers([stream or self.default_stream])
        yield marker

    def device_synchronize(self) -> Generator:
        self._guard()
        markers = self.sync_markers([s for s in self.streams
                                     if not s.destroyed and not s.aborted])
        if markers:
            yield self.env.all_of(markers)

    # -- memory ----------------------------------------------------------------------

    def malloc(self, array: np.ndarray, kind: BufferKind,
               logical_nbytes: Optional[int] = None, label: str = "") -> DeviceBuffer:
        """``cudaMalloc`` + eager content initialisation."""
        # Guard fast path inlined: malloc is the most frequent API entry.
        health = self.gpu._health
        if (self._sticky_error is not None
                or (health is not GpuHealth.HEALTHY
                    and health is not GpuHealth.DRIVER_CORRUPT)):
            self._guard()
        buf = DeviceBuffer(self.gpu, array, kind,
                           logical_nbytes=logical_nbytes, label=label)
        self.gpu.allocate(buf.logical_nbytes)
        self.buffers[buf.buffer_id] = buf
        return buf

    def malloc_group(self, arrays: dict[str, np.ndarray], kind: BufferKind,
                     shares: dict[str, int], prefix: str = "") -> dict:
        """:meth:`malloc` each of *arrays* (name -> array) in order.

        *shares* holds each buffer's logical size; labels are *prefix* +
        name.  Returns name -> buffer.  One guard and one accounting step
        serve the group; a group that would run out of memory allocates
        buffer by buffer, so it fails exactly where those mallocs would.
        """
        health = self.gpu._health
        if (self._sticky_error is not None
                or (health is not GpuHealth.HEALTHY
                    and health is not GpuHealth.DRIVER_CORRUPT)):
            self._guard()
        gpu = self.gpu
        total = sum(shares.values())
        if total > gpu.free_bytes:
            return {name: self.malloc(array, kind, shares[name],
                                      prefix + name)
                    for name, array in arrays.items()}
        buffers = {}
        live = self.buffers
        for name, array in arrays.items():
            buf = buffers[name] = DeviceBuffer(gpu, array, kind, shares[name],
                                               prefix + name)
            live[buf.buffer_id] = buf
        gpu.allocate(total)
        return buffers

    def free(self, buf: DeviceBuffer) -> None:
        if buf.freed:
            return
        buf.freed = True
        self.gpu.free(buf.logical_nbytes)
        self.buffers.pop(buf.buffer_id, None)

    def launch_kernel(self, stream: CudaStream, name: str, duration: float,
                      thunk=None) -> KernelOp:
        """Asynchronous kernel launch."""
        health = self.gpu._health
        if (self._sticky_error is not None
                or (health is not GpuHealth.HEALTHY
                    and health is not GpuHealth.DRIVER_CORRUPT)):
            self._guard()
        op = KernelOp(name, duration, thunk)
        stream.enqueue(op)
        return op

    def memcpy_d2h_async(self, host: HostBuffer, device: DeviceBuffer,
                         stream: Optional[CudaStream] = None) -> MemcpyOp:
        self._guard()
        return self._enqueue_copy(host, device, direction="d2h",
                                  stream=stream or self.default_stream)

    def memcpy_h2d_async(self, device: DeviceBuffer, host: HostBuffer,
                         stream: Optional[CudaStream] = None) -> MemcpyOp:
        self._guard()
        return self._enqueue_copy(host, device, direction="h2d",
                                  stream=stream or self.default_stream)

    def _enqueue_copy(self, host: HostBuffer, device: DeviceBuffer,
                      direction: str, stream: CudaStream) -> MemcpyOp:
        if direction == "d2h":
            def thunk(host=host, device=device):
                host.array[...] = device.array
        else:
            def thunk(host=host, device=device):
                device.array[...] = host.array
        op = MemcpyOp(f"memcpy_{direction}:{device.label or device.buffer_id}",
                      nbytes=device.logical_nbytes,
                      bandwidth=self.gpu.spec.pcie_bandwidth,
                      pcie=self.node.pcie_for(self.gpu),
                      thunk=thunk)
        stream.enqueue(op)
        return op

    # -- rescue path (recovery code only) ---------------------------------------------

    def rescue_copy_d2h(self, device: DeviceBuffer) -> tuple[np.ndarray, float]:
        """Synchronous out-of-band device read for JIT checkpointing.

        Bypasses the health guard: works whenever device memory is still
        physically accessible (healthy or driver-corrupt GPU).  Returns the
        array copy plus the simulated copy duration; the *caller* (a
        recovery process) is responsible for yielding that much time, on a
        fresh stream, exactly like the paper's side-stream ``cudaMemcpy``
        fix in Section 3.2.
        """
        self.observed()
        if not self.gpu.is_accessible:
            raise CudaApiError(CudaError.DEVICE_LOST,
                               f"{self.gpu.gpu_id} memory inaccessible")
        return device.array.copy(), self.gpu.pcie_time(device.logical_nbytes)

    # -- teardown / reset ---------------------------------------------------------------

    def abort_all_streams(self, error: CudaError = CudaError.STICKY) -> None:
        self.observed()
        for stream in self.streams:
            if not stream.destroyed:
                stream.abort(error)

    def destroy(self) -> None:
        """Tear the context down (device proxy restart)."""
        self.abort_all_streams(CudaError.INVALID_HANDLE)
        for buf in list(self.buffers.values()):
            self.free(buf)
        self.streams.clear()
        self._event_ordinal = 0
        self._sticky_error = CudaError.INVALID_HANDLE

    def live_buffers(self, kind: Optional[BufferKind] = None) -> list[DeviceBuffer]:
        bufs = [b for b in self.buffers.values() if not b.freed]
        if kind is not None:
            bufs = [b for b in bufs if b.kind is kind]
        return sorted(bufs, key=lambda b: b.buffer_id)
