"""Device proxy (Figure 2 and Section 4 of the paper).

One :class:`DeviceProxyApi` per rank worker sits between the training
framework and the device.  It

* hands out **virtual handles** for streams, events and buffers;
* **logs** every device API (with inputs) into the per-minibatch replay
  log, clearing it at minibatch start;
* **absorbs errors**: a failing enqueue never surfaces to the framework —
  the call is logged as issued and recovery later replays it;
* runs a **watchdog** over collective-ordered events;
* on recovery, **re-executes** the creation log and replay log against
  freshly created physical objects, remapping virtual handles;
* supports **restart**: swapping in a brand-new CUDA context (the proxy
  process restart that clears corrupted driver state).

Blocking calls (`*_synchronize`) retry transparently: if they fail or are
aborted, they park on the recovery-done event and retry on the remapped
handles, so the framework only ever observes a delay (Section 4.2).

Replica deduplication (:mod:`repro.framework.dedup`) shares the proxy's
data-parallel ranks too.  A rank that *rides* a replica's timeline issues
none of the iteration's calls.  The engine's record of the ridden
iteration (:class:`~repro.parallel.ddp.RiddenStep`) is the proxy's too:
its log gets one lazy entry for the iteration, which the first read of
the log (replay, validation, ``recreate_handles``) expands into the
records the rank's own calls would have logged, through the engine's
private enqueue run in a log-only mode.  The calls count as logged when
the ride is made.  A ridden optimizer batch logs its records at once,
and freeing the ride logs its buffers' frees lazily, as one more entry.
Until its own events exist, the rank's handles for them are bound to the
replica's, and its watchdog watches those.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Generator, Optional

import numpy as np

from repro.core.config import JitConfig
from repro.core.replay_log import (
    ApiRecord,
    Phase,
    ReplayLog,
    restore_contents,
    snapshot_contents,
)
from repro.core.virtual_handles import (VirtualBuffer, VirtualEvent,
                                        VirtualStream, checksum)
from repro.core.watchdog import EventWatchdog, WatchedEvent
from repro.cuda.errors import CudaApiError, CudaError
from repro.cuda.event import CudaEvent
from repro.cuda.memory import BufferKind, DeviceBuffer, HostBuffer
from repro.cuda.runtime import CudaContext
from repro.framework.dedup import GroupThunk
from repro.nccl.communicator import NcclCommunicator
from repro.nccl.errors import NcclError
from repro.nccl.rendezvous import ReduceOp
from repro.parallel.ddp import RiddenStep
from repro.parallel.deviceapi import _RIDE_SCRATCH, DeviceApi


class DeviceProxyApi(DeviceApi):
    """The per-rank device proxy."""

    def __init__(self, ctx: CudaContext, rank: int, config: JitConfig,
                 coordinator, watchdog_timeout: Optional[float] = None):
        super().__init__(ctx, rank)
        self.config = config
        #: Weak: the coordinator keeps every proxy it registers.
        self.coordinator = weakref.proxy(coordinator)
        self.log = ReplayLog()
        self.phase = Phase.POST_OPTIMIZER
        self.current_minibatch = -1
        #: Number of optimizer steps the *device* has completed.
        self.completed_steps = 0
        self.vstreams: list[VirtualStream] = []
        self.vevents: list[VirtualEvent] = []
        self.vbuffers: dict[int, VirtualBuffer] = {}
        self._alloc_seq: dict[str, int] = {}
        self._last_phase_stream: Optional[VirtualStream] = None
        self._replaying = False
        #: True while this rank's worker CPU is parked at the interception
        #: layer waiting for recovery (the coordinator quiesces on this).
        self.parked = False
        #: Engine-registered RNG accessors plus per-minibatch snapshots
        #: (Section 3.2's "random number generator state"): replay rewinds
        #: the RNG to the replayed minibatch's start so stochastic ops
        #: (dropout) redraw the exact masks.
        self._rng_get = None
        self._rng_set = None
        self._rng_snapshot = None
        self._rng_snapshot_prev = None
        self.watchdog = EventWatchdog(
            ctx.env, query=self._query_physical, on_hang=self._on_hang,
            timeout=watchdog_timeout or config.watchdog_timeout,
            poll_interval=config.watchdog_poll,
            name=f"proxy-watchdog:rank{rank}")
        self.validation_results: list[bool] = []
        #: The ride being expanded (log-only mode), and the handles its
        #: ``create_event`` calls take, in order.
        self._expanding: Optional[RiddenStep] = None
        self._expanding_events = None
        #: minibatch -> ride, for the rides still in the log.
        self._rides: dict[int, RiddenStep] = {}
        coordinator.register(self)

    # -- watchdog plumbing ------------------------------------------------------------

    def _query_physical(self, vevent: VirtualEvent) -> CudaError:
        if not vevent.bound:
            return CudaError.NOT_READY
        return self.ctx.event_query(vevent.physical)

    def _on_hang(self, watchdog: EventWatchdog, watched: WatchedEvent) -> None:
        self.coordinator.trigger(f"rank{self.rank}: watchdog hang", self.rank)

    def _note_error(self, exc: CudaApiError) -> None:
        self.coordinator.trigger(
            f"rank{self.rank}: device error {exc.code.value}", self.rank)

    # -- lifecycle hooks ---------------------------------------------------------------

    def register_rng(self, get_state, set_state) -> None:
        self._rng_get = get_state
        self._rng_set = set_state

    def restore_rng(self, include_previous: bool = False) -> None:
        """Rewind the engine's RNG to the (previous) minibatch's start."""
        if self._rng_set is None:
            return
        snapshot = (self._rng_snapshot_prev if include_previous
                    else self._rng_snapshot)
        if snapshot is not None:
            self._rng_set(snapshot)

    def minibatch_begin(self, iteration: int) -> None:
        super().minibatch_begin(iteration)   # observability iteration span
        self.current_minibatch = iteration
        self.log.begin_minibatch(iteration)
        if self._rides:
            self._rides = {minibatch: ride
                           for minibatch, ride in self._rides.items()
                           if minibatch >= iteration - 1}
        if self._rng_get is not None:
            self._rng_snapshot_prev = self._rng_snapshot
            self._rng_snapshot = self._rng_get()
        self.phase = Phase.FORWARD_BACKWARD

    def minibatch_end(self, iteration: int) -> None:
        super().minibatch_end(iteration)
        self.phase = Phase.POST_OPTIMIZER

    def optimizer_step_begin(self, iteration: int) -> None:
        if self._should_validate(iteration):
            self._run_validation(iteration)
        self.phase = Phase.OPTIMIZER

    def optimizer_step_end(self, iteration: int) -> None:
        # Inject the post-optimizer marker: its completion on-device tells
        # the proxy this rank's parameters reached the next version.  A
        # rank riding the optimizer batch has none: the leader's marker
        # steps it, and the rank logs the calls it rode.
        ride = self._rides.get(iteration)
        if ride is not None and ride.optimizer:
            def build():
                ride.expand_optimizer()
                self._launch_marker(iteration)

            for record in self._log_only(ride, Phase.OPTIMIZER, build):
                self.log.append(record)
        else:
            self._launch_marker(iteration)
        self.phase = Phase.POST_OPTIMIZER

    def _launch_marker(self, iteration: int) -> None:
        stream = self._last_phase_stream
        if stream is None:
            return
        batch = (stream.physical._batch
                 if self._expanding is None and stream.bound else None)
        thunk = (self.step_completed if batch is None
                 else partial(self._step_completed_with, batch))
        self.launch_kernel(stream, f"opt_done_marker#{iteration}", 0.0, thunk)

    def step_completed(self) -> None:
        """The device finished this rank's optimizer step."""
        self.completed_steps += 1

    def _step_completed_with(self, batch) -> None:
        # A leader's marker also steps the ranks riding its optimizer
        # batch (none are left by the time a replay re-executes it).
        self.step_completed()
        for rider in batch.riders:
            rider.engine.api.step_completed()

    def release(self) -> None:
        """Drop the replay log and ride state once the run is over.

        Their thunks and ridden steps call back into this proxy and its
        rank's engine, which holds the proxy: kept, they make the job a
        reference cycle.
        """
        self.log = ReplayLog()
        self._rides.clear()

    # -- handles / replica followers ------------------------------------------------

    def physical(self, handle):
        return handle.physical

    def live_comm(self, comm: NcclCommunicator) -> NcclCommunicator:
        return self._live_comm(comm)

    def follow(self, batch, names: dict, twins: dict) -> None:
        own = {vstream.physical: vstream for vstream in self.vstreams
               if vstream.bound}
        for leader, stream in twins.items():
            if leader.saw_collective:
                own[stream].saw_collective = True
        if batch.bwd_done is None:
            # The iteration's optimizer batch.
            self._rides[batch.iteration].optimizer = True
            return
        for event in batch.events:
            vevent = VirtualEvent(event.hint)
            vevent.bind(event)
            vevent.borrowed = names[event]
            self.vevents.append(vevent)
            if own[twins[event.recorded_on]].saw_collective:
                self.watchdog.watch(vevent)

    def follow_retarget(self, copies: dict) -> None:
        for ride in self._rides.values():
            for vevent in ride.events:
                if vevent.borrowed is not None:
                    copy = copies.get(vevent.physical)
                    if copy is not None:
                        vevent.bind(copy)

    def ride(self, step: RiddenStep, batch):
        held = step.held = VirtualBuffer(
            _RIDE_SCRATCH, BufferKind.ACTIVATION, batch.nbytes,
            f"follow#{step.iteration}")
        self.vbuffers[held.vid] = held
        self._bind_buffer(held)
        # ``follow`` has just given this rank its handles for the batch's
        # events, the last one bound to its ``bwd_done``.
        step.events = self.vevents[-len(batch.events):]
        assert step.events[-1].physical is batch.bwd_done, \
            "ride() must directly follow follow()"
        step.nbufs = batch.nbufs
        self._rides[step.iteration] = step
        # The entry stands for the replica's own calls of the iteration.
        self.log.append_lazy(partial(self._expand, step),
                             batch.leader.engine.api.log.entries)
        return step, step.events[-1]

    def _log_only(self, ride: RiddenStep, phase: Phase, build):
        """Run *build* with calls logged only, into a plain list in
        place of the log; returns the records."""
        saved = (self.log, self.phase, self._last_phase_stream)
        records: list[ApiRecord] = []
        self.log, self.phase = records, phase
        self._expanding = ride
        try:
            build()
        finally:
            self.log, self.phase, self._last_phase_stream = saved
            self._expanding = None
        for record in records:
            record.minibatch = ride.iteration
        return records

    def _expand(self, ride: RiddenStep) -> list[ApiRecord]:
        """The ride's forward/backward records (built once)."""
        if ride.records is None:
            self._expanding_events = iter(ride.events)
            ride.records = self._log_only(ride, Phase.FORWARD_BACKWARD,
                                          ride.expand)
            if not ride.held.freed:
                for vbuf in ride.step_bufs:
                    self.vbuffers[vbuf.vid] = vbuf
        return ride.records

    def _ride_frees(self, ride: RiddenStep, phase: Phase) -> list[ApiRecord]:
        self._expand(ride)
        for vbuf in ride.step_bufs:
            vbuf.freed = True
        return [ApiRecord("free", args=(vbuf,), phase=phase,
                          minibatch=ride.iteration)
                for vbuf in ride.step_bufs]

    # -- streams / events -----------------------------------------------------------------

    def create_stream(self, name_hint: str = "") -> VirtualStream:
        vstream = VirtualStream(name_hint)
        self.vstreams.append(vstream)
        self.log.append(ApiRecord("create_stream", args=(vstream,),
                                  phase=self.phase, produced=vstream))
        try:
            vstream.bind(self.ctx.create_stream(name_hint))
        except CudaApiError as exc:
            self._note_error(exc)
        return vstream

    def create_event(self, name_hint: str = "") -> VirtualEvent:
        if self._expanding is not None:
            vevent = next(self._expanding_events)
            self.log.append(ApiRecord("create_event", args=(vevent,),
                                      phase=self.phase, produced=vevent))
            return vevent
        vevent = VirtualEvent(name_hint)
        self.vevents.append(vevent)
        self.log.append(ApiRecord("create_event", args=(vevent,),
                                  phase=self.phase, produced=vevent))
        try:
            vevent.bind(self.ctx.create_event(name_hint))
        except CudaApiError as exc:
            self._note_error(exc)
        return vevent

    def event_record(self, vevent: VirtualEvent, stream=None) -> None:
        vstream = stream or self._default_vstream()
        if not self._replaying:
            self.log.append(ApiRecord("event_record", args=(vevent, vstream),
                                      phase=self.phase))
            if self._expanding is not None:
                return
        try:
            self.ctx.event_record(vevent.physical, vstream.physical)
        except CudaApiError as exc:
            self._note_error(exc)
        if vstream.saw_collective and not self._replaying:
            self.watchdog.watch(vevent)

    def stream_wait_event(self, vstream: VirtualStream,
                          vevent: VirtualEvent) -> None:
        if not self._replaying:
            self.log.append(ApiRecord("stream_wait_event",
                                      args=(vstream, vevent), phase=self.phase))
            if self._expanding is not None:
                return
        try:
            self.ctx.stream_wait_event(vstream.physical, vevent.physical)
        except CudaApiError as exc:
            self._note_error(exc)

    def event_query(self, vevent: VirtualEvent) -> CudaError:
        return self._query_physical(vevent)

    def _default_vstream(self) -> VirtualStream:
        if not self.vstreams:
            return self.create_stream("default")
        return self.vstreams[0]

    # -- memory / kernels ------------------------------------------------------------------

    def malloc(self, array: np.ndarray, kind: BufferKind,
               logical_nbytes: Optional[int] = None,
               label: str = "") -> VirtualBuffer:
        nbytes = int(logical_nbytes if logical_nbytes is not None
                     else np.asarray(array).nbytes)
        vbuf = VirtualBuffer(array, kind, nbytes, label)
        seq = self._alloc_seq.get(label, 0)
        self._alloc_seq[label] = seq + 1
        # Cross-rank-stable checkpoint identity (the paper's hash of
        # allocation call-stack + sequence count + size, Section 4.3).
        vbuf.allocation_tag = f"{label}/{seq}/{nbytes}"
        self.log.append(ApiRecord(
            "malloc", args=(vbuf,), phase=self.phase,
            initial_contents=snapshot_contents(vbuf.array), produced=vbuf))
        if self._expanding is not None:
            return vbuf
        self.vbuffers[vbuf.vid] = vbuf
        self._bind_buffer(vbuf)
        return vbuf

    def malloc_group(self, arrays: dict, kind: BufferKind, shares: dict,
                     prefix: str = "") -> dict:
        # Each allocation is logged and tagged on its own.
        return {name: self.malloc(array, kind, shares[name], prefix + name)
                for name, array in arrays.items()}

    def _bind_buffer(self, vbuf: VirtualBuffer) -> None:
        try:
            physical = self.ctx.malloc(vbuf.array, vbuf.kind,
                                       logical_nbytes=vbuf.logical_nbytes,
                                       label=vbuf.label)
            physical.allocation_tag = vbuf.allocation_tag
            vbuf.bind(physical)
        except CudaApiError as exc:
            self._note_error(exc)

    def free(self, vbuf: "VirtualBuffer | RiddenStep") -> None:
        if type(vbuf) is RiddenStep:   # what ``ride`` returned
            self._free_ride(vbuf)
            return
        if not self._replaying:
            self.log.append(ApiRecord("free", args=(vbuf,), phase=self.phase))
        if vbuf.physical is not None:
            self.ctx.free(vbuf.physical)
        vbuf.freed = True
        vbuf.unbind()
        self.vbuffers.pop(vbuf.vid, None)

    def _free_ride(self, ride: RiddenStep) -> None:
        """Free a ride's stand-in and, as logged calls, its own buffers."""
        held = ride.held
        if held.physical is not None:
            self.ctx.free(held.physical)
        held.freed = True
        held.unbind()
        self.vbuffers.pop(held.vid, None)
        if ride.records is not None:
            for vbuf in ride.step_bufs:
                self.free(vbuf)
        else:
            self.log.append_lazy(
                partial(self._ride_frees, ride, self.phase), ride.nbufs)

    def launch_kernel(self, vstream: VirtualStream, name: str,
                      duration: float, thunk=None):
        self._last_phase_stream = vstream
        if not self._replaying:
            self.log.append(ApiRecord("launch_kernel",
                                      args=(vstream, name, duration, thunk),
                                      phase=self.phase))
            if self._expanding is not None:
                return None
        try:
            return self.ctx.launch_kernel(vstream.physical, name, duration,
                                          thunk)
        except CudaApiError as exc:
            self._note_error(exc)
            return None

    def memcpy_d2h_async(self, host: HostBuffer, vbuf: VirtualBuffer,
                         stream=None):
        vstream = stream or self._default_vstream()
        if not self._replaying:
            self.log.append(ApiRecord("memcpy_d2h", args=(host, vbuf, vstream),
                                      phase=self.phase))
        try:
            return self.ctx.memcpy_d2h_async(host, vbuf.physical,
                                             vstream.physical)
        except CudaApiError as exc:
            self._note_error(exc)
            return None

    def memcpy_h2d_async(self, vbuf: VirtualBuffer, host: HostBuffer,
                         stream=None):
        vstream = stream or self._default_vstream()
        if not self._replaying:
            self.log.append(ApiRecord("memcpy_h2d", args=(host, vbuf, vstream),
                                      phase=self.phase))
            if self._expanding is not None:
                return None
        try:
            return self.ctx.memcpy_h2d_async(vbuf.physical, host,
                                             vstream.physical)
        except CudaApiError as exc:
            self._note_error(exc)
            return None

    # -- collectives -----------------------------------------------------------------------

    def _live_comm(self, comm: NcclCommunicator) -> NcclCommunicator:
        """Map the (possibly superseded) communicator the app still holds
        to the current generation — the comm analogue of virtual handles."""
        return self.coordinator.current_comm(comm)

    def comm_init(self, comm: NcclCommunicator) -> Generator:
        self.log.append(ApiRecord("comm_init", args=(comm,), phase=self.phase))
        yield from self._blocking_retry(
            lambda: self._live_comm(comm).init_rank(self.rank))

    def _collective(self, method: str, comm: NcclCommunicator, args: tuple,
                    vstream: VirtualStream, call):
        vstream.saw_collective = True
        if not self._replaying:
            self.log.append(ApiRecord(method, args=(comm, *args, vstream),
                                      phase=self.phase))
            if self._expanding is not None:
                return None
        try:
            return call(self._live_comm(comm))
        except CudaApiError as exc:
            self._note_error(exc)
        except NcclError:
            # Enqueue raced an aborted communicator: absorb — the record
            # is logged and will replay against the successor.
            if not self.coordinator.in_recovery:
                self.coordinator.trigger(
                    f"rank{self.rank}: collective on dead communicator",
                    self.rank)

    def all_reduce(self, comm, vbuf, stream, op: ReduceOp = ReduceOp.SUM):
        return self._collective(
            "all_reduce", comm, (vbuf, op), stream,
            lambda c: c.all_reduce(self.rank, vbuf, stream.physical, op))

    def all_reduce_batch(self, comm, vbufs, stream, op: ReduceOp = ReduceOp.SUM):
        vbufs = tuple(vbufs)
        return self._collective(
            "all_reduce_batch", comm, (vbufs, op), stream,
            lambda c: c.all_reduce_batch(self.rank, list(vbufs),
                                         stream.physical, op))

    def broadcast(self, comm, vbuf, root: int, stream):
        return self._collective(
            "broadcast", comm, (vbuf, root), stream,
            lambda c: c.broadcast(self.rank, vbuf, root, stream.physical))

    def all_gather(self, comm, send, recv, stream):
        return self._collective(
            "all_gather", comm, (send, recv), stream,
            lambda c: c.all_gather(self.rank, send, recv, stream.physical))

    def reduce_scatter(self, comm, send, recv, stream,
                       op: ReduceOp = ReduceOp.SUM):
        return self._collective(
            "reduce_scatter", comm, (send, recv, op), stream,
            lambda c: c.reduce_scatter(self.rank, send, recv, stream.physical,
                                       op))

    def send(self, comm, vbuf, dst: int, stream):
        return self._collective(
            "send", comm, (vbuf, dst), stream,
            lambda c: c.send(self.rank, vbuf, dst, stream.physical))

    def recv(self, comm, vbuf, src: int, stream):
        return self._collective(
            "recv", comm, (vbuf, src), stream,
            lambda c: c.recv(self.rank, vbuf, src, stream.physical))

    # -- blocking calls with transparent retry ------------------------------------------------

    def _blocking_retry(self, make_wait) -> Generator:
        """Run a blocking wait; on abort/error, wait out recovery and retry.

        The framework above never sees the exception — only elapsed time.
        """
        while True:
            if self.coordinator.in_recovery:
                self.parked = True
                try:
                    yield self.coordinator.wait_done()
                finally:
                    self.parked = False
                continue
            try:
                yield from make_wait()
                return
            except (CudaApiError, NcclError) as exc:
                if (not self.coordinator.in_recovery
                        and isinstance(exc, CudaApiError)):
                    # Error surfaced before anyone declared recovery (e.g.
                    # a sticky context guard): raise the alarm ourselves.
                    self._note_error(exc)
                self.parked = True
                try:
                    yield self.coordinator.wait_done()
                finally:
                    self.parked = False

    def event_synchronize(self, vevent: VirtualEvent) -> Generator:
        yield from self._blocking_retry(
            lambda: self.ctx.event_synchronize(vevent.physical))

    def stream_synchronize(self, stream=None) -> Generator:
        vstream = stream or self._default_vstream()
        yield from self._blocking_retry(
            lambda: self.ctx.stream_synchronize(vstream.physical))

    def device_synchronize(self) -> Generator:
        def wait():
            markers = self.ctx.sync_markers(
                [v.physical for v in self.vstreams
                 if v.bound and not v.physical.destroyed
                 and not v.physical.aborted])
            if markers:
                yield self.env.all_of(markers)

        yield from self._blocking_retry(wait)

    # -- recovery support (driven by the coordinator) ----------------------------------------

    def restart_proxy(self, new_ctx: CudaContext) -> None:
        """Swap in a fresh CUDA context (device proxy process restart)."""
        old = self.ctx
        try:
            old.destroy()
        except Exception:  # pragma: no cover - already-poisoned contexts
            pass
        self.ctx = new_ctx
        for vstream in self.vstreams:
            vstream._physical = None
        for vevent in self.vevents:
            vevent._physical = None
            vevent.borrowed = None
        for vbuf in self.vbuffers.values():
            vbuf.unbind()

    def abort_streams(self) -> None:
        for vstream in self.vstreams:
            if vstream.bound:
                vstream.physical.abort()

    def recreate_handles(self) -> int:
        """Recreate streams/events from the creation log; returns count."""
        count = 0
        for record in self.log.creation_records:
            if record.method == "create_stream":
                record.produced.bind(self.ctx.create_stream(
                    record.produced.name_hint))
                count += 1
            elif record.method == "create_event":
                record.produced.bind(self.ctx.create_event(
                    record.produced.name_hint))
                count += 1
        # Events created inside the current minibatch are recreated here
        # too (their records are also in the replay log, where re-issue
        # rebinds them again, which is idempotent).
        for record in self.log.records:
            if record.method in ("create_stream", "create_event"):
                count += 1
        return count

    def reset_nonpersistent_buffers(self) -> int:
        """Free every buffer that is not model parameters or optimizer
        state (the Section 4.2 reset); returns the number freed."""
        victims = [v for v in self.vbuffers.values()
                   if not v.kind.survives_reset]
        for vbuf in victims:
            if vbuf.physical is not None:
                self.ctx.free(vbuf.physical)
            vbuf.unbind()
        return len(victims)

    def rebind_persistent_buffers(self) -> None:
        """(Re)create physical buffers for params/optimizer state.

        Used after a proxy restart wiped the context: contents are already
        correct in the virtual arrays (either retained or restored), so
        binding adopts them as-is.
        """
        for vbuf in self.vbuffers.values():
            if vbuf.kind.survives_reset and vbuf.physical is None:
                self._bind_buffer(vbuf)

    def persistent_buffers(self) -> list[VirtualBuffer]:
        return sorted((v for v in self.vbuffers.values()
                       if v.kind.survives_reset), key=lambda v: v.vid)

    def persistent_state_bytes(self) -> int:
        return sum(v.logical_nbytes for v in self.persistent_buffers())

    def replay(self, skip_optimizer: bool = False,
               include_previous: bool = False) -> int:
        """Re-issue the logged device APIs; returns the calls issued.

        A batched all-reduce counts as the all-reduces it fuses, which is
        what the unbatched path logs: recovery charges replay per call,
        and must charge the same with the fast path on and off.

        ``include_previous`` prepends the *previous* minibatch's records:
        used when recovery rolled parameters back one version because no
        rank had executed that iteration's optimizer step yet — replaying
        the previous minibatch recomputes its gradients and optimizer
        update before the current minibatch re-runs.

        ``skip_optimizer`` drops optimizer-phase records (Section 4.2.2:
        after a replica copy the parameters are already post-step, so the
        remaining optimizer APIs must be ignored).
        """
        issued = 0
        records = (list(self.log.previous_records) if include_previous
                   else []) + list(self.log.records)
        for minibatch, ride in self._rides.items():
            if (minibatch == self.log.current_minibatch
                    or include_previous):
                ride.replayed = True
        self._replaying = True
        try:
            for record in records:
                if skip_optimizer and record.phase is Phase.OPTIMIZER:
                    continue
                self._reissue(record)
                issued += (len(record.args[1])
                           if record.method == "all_reduce_batch" else 1)
        finally:
            self._replaying = False
        return issued

    def _reissue(self, record: ApiRecord) -> None:
        method = record.method
        if method == "malloc":
            vbuf = record.produced
            restore_contents(vbuf.array, record.initial_contents)
            self.vbuffers[vbuf.vid] = vbuf
            vbuf.freed = False
            if vbuf.physical is None:
                self._bind_buffer(vbuf)
        elif method == "free":
            self.free(record.args[0])
        elif method == "create_stream":
            vstream = record.produced
            if not vstream.bound:
                vstream.bind(self.ctx.create_stream(vstream.name_hint))
        elif method == "create_event":
            vevent = record.produced
            if vevent.borrowed is not None:
                # Still the replica's event: this rank's own copy.
                vevent.bind(CudaEvent(self.env, name=vevent.borrowed,
                                      hint=vevent.name_hint))
            elif not vevent.bound:
                vevent.bind(self.ctx.create_event(vevent.name_hint))
        elif method == "launch_kernel":
            vstream, name, duration, thunk = record.args
            self.launch_kernel(vstream, name, duration, _private(thunk))
        elif method == "event_record":
            vevent, vstream = record.args
            self.event_record(vevent, vstream)
        elif method == "stream_wait_event":
            vstream, vevent = record.args
            self.stream_wait_event(vstream, vevent)
        elif method == "memcpy_h2d":
            host, vbuf, vstream = record.args
            self.memcpy_h2d_async(vbuf, host, vstream)
        elif method == "memcpy_d2h":
            host, vbuf, vstream = record.args
            self.memcpy_d2h_async(host, vbuf, vstream)
        elif method in ("all_reduce", "all_reduce_batch", "broadcast",
                        "all_gather", "reduce_scatter", "send", "recv"):
            self._reissue_collective(record)
        elif method == "comm_init":
            pass  # communicators are re-initialised by the coordinator
        else:  # pragma: no cover - defensive
            raise ValueError(f"cannot replay {method!r}")

    def _reissue_collective(self, record: ApiRecord,
                            stream_override: Optional[VirtualStream] = None):
        """Re-dispatch a logged collective with the right argument order;
        returns its stream op, if it enqueued one."""
        method = record.method
        comm = record.args[0]
        vstream = stream_override or record.args[-1]
        middle = record.args[1:-1]
        if method == "all_reduce":
            vbuf, op = middle
            return self.all_reduce(comm, vbuf, vstream, op)
        if method == "all_reduce_batch":
            vbufs, op = middle
            return self.all_reduce_batch(comm, vbufs, vstream, op)
        if method == "broadcast":
            vbuf, root = middle
            return self.broadcast(comm, vbuf, root, vstream)
        if method == "all_gather":
            send_buf, recv_buf = middle
            return self.all_gather(comm, send_buf, recv_buf, vstream)
        if method == "reduce_scatter":
            send_buf, recv_buf, op = middle
            return self.reduce_scatter(comm, send_buf, recv_buf, vstream, op)
        if method == "send":
            vbuf, dst = middle
            return self.send(comm, vbuf, dst, vstream)
        vbuf, src = middle  # recv
        return self.recv(comm, vbuf, src, vstream)

    # -- replay-log validation (Section 4.1) ------------------------------------------------

    def _should_validate(self, iteration: int) -> bool:
        if self._replaying or self.coordinator.in_recovery:
            return False
        start = self.config.validation_start_iteration
        interval = self.config.validation_interval
        return iteration == start or (
            interval > 0 and iteration > start
            and (iteration - start) % interval == 0)

    def _run_validation(self, iteration: int) -> None:
        """Enqueue the checksum/replay/compare sequence on the device.

        Runs at the end of the backward pass, just before the optimizer
        step.  Deterministic math stands in for "configuring CUDA to use
        only deterministic operations".

        Every rank validates on its own math and gradients.  A rank that
        shares a replica arena (:mod:`repro.framework.dedup`) first has
        the arena end the iteration's rides and sharing of gradients
        (:meth:`~repro.framework.dedup.ReplicaArena.validates`).  A rank
        that rode the iteration settles its expanded log, and its
        checksums read the parameters it holds even when a replica
        already stepped the shared arrays.
        """
        engine = self.coordinator.job.engines[self.rank]
        arena, member = engine._dedup_arena, engine._dedup_member
        if arena is not None:
            arena.validates(iteration)
        stream = self._last_phase_stream or self._default_vstream()
        ride = self._rides.get(iteration)
        if ride is not None and not ride.replayed:
            self._settle(ride)

        # The minibatch's buffers, which the CPU frees once it has
        # enqueued the next one, before the device validates.
        buffers = list(self.vbuffers.values())

        def checksums() -> dict[str, int]:
            held = arena.member_arrays(member) if arena is not None else {}
            return {vbuf.allocation_tag: checksum(held.get(id(vbuf),
                                                           vbuf.array))
                    for vbuf in buffers}

        snapshot: dict[str, int] = {}

        def checksum_before():
            snapshot.update(checksums())

        def checksum_after():
            self.validation_results.append(checksums() == snapshot)

        # Everything validation itself launches must stay OUT of the
        # replay log (it would otherwise re-execute its own bookkeeping —
        # including the RNG rewind — when replayed).
        self._replaying = True
        self.launch_kernel(stream, "validation:checksum_before", 0.0,
                           checksum_before)
        # Stochastic ops redraw the same values because the minibatch's
        # logged ``rng_reseed`` kernel re-executes first (below), rewinding
        # the stream exactly — and leaves it where the original draws left
        # it, since the replay consumes the same number of draws.
        # Re-execute the minibatch so far, entirely on one stream so no
        # cross-stream event plumbing is needed: logged allocations are
        # re-initialised on-device, forward/backward kernels re-run in
        # place, and collectives re-issue in original order (every rank
        # validates at the same iteration, so they stay matched).
        try:
            for record in list(self.log.records):
                if record.method == "malloc":
                    def reinit(record=record):
                        restore_contents(record.produced.array,
                                         record.initial_contents)

                    self.launch_kernel(stream, "validation:reinit", 0.0,
                                       reinit)
                elif record.method == "launch_kernel":
                    _vstream, name, duration, thunk = record.args
                    self.launch_kernel(stream, f"validation:{name}",
                                       duration, _private(thunk))
                elif record.method in ("all_reduce", "all_reduce_batch",
                                       "broadcast", "all_gather",
                                       "reduce_scatter", "send", "recv"):
                    self._reissue_collective(record, stream_override=stream)
                elif record.method == "memcpy_h2d":
                    host, vbuf, _vstream = record.args
                    self.memcpy_h2d_async(vbuf, host, stream)
            self.launch_kernel(stream, "validation:checksum_after", 0.0,
                               checksum_after)
        finally:
            self._replaying = False

    def _settle(self, ride: RiddenStep) -> None:
        """Validate a ridden iteration on this rank's own buffers.

        Its log entry expands into them, allocated and filled with what
        riding computed; the iteration's gradient is read from them from
        now on.
        """
        self._expand(ride)
        for vbuf in ride.step_bufs:
            if vbuf.physical is None:
                self._bind_buffer(vbuf)
        ride.settle()
        ride.replayed = True


def _private(thunk):
    """What a re-executed kernel runs: a group-math kernel's private math."""
    return thunk.private if type(thunk) is GroupThunk else thunk
