"""Copy-on-write replica deduplication for data-parallel groups.

Data-parallel training is *redundant by construction*: every rank in a DP
group holds bitwise-identical parameters and optimizer moments, and (for
pure DDP without stochastic ops) computes a row-slice of the same global
minibatch through the same float sequence.  The paper's Section 3 recovery
leans on exactly this redundancy — a restarted worker fetches state from a
peer replica.  This module exploits it for simulation speed: all ranks in
a DP group reference one canonical parameter/gradient/moment arena, and
the replicated numpy math executes once per group instead of once per
rank.

Four sharing levels:

* **Arena sharing** (all engines): parameters and optimizer moments are
  one canonical allocation; the optimizer step — whose inputs are bitwise
  identical across the group after the gradient all-reduce — executes once
  and every member merely *witnesses* it.  A one-step undo snapshot keeps
  mid-iteration laggards honest: a member whose own optimizer kernel has
  not yet executed still reports the pre-step state from
  ``state_dict()`` (the Section 3.3 i-vs-i+1 checkpoint case).
* **Group math** (pure DDP, no dropout): forward/backward thunks memoise
  full-batch computation.  Each layer runs its own forward and backward
  once on the group's full batch with member count ``k`` = the group
  size (:func:`repro.framework.layers.members`): every 2-D product is
  one BLAS call per member's rows, the head returns each rank's loss,
  and every parameter gradient comes back stacked over a leading member
  axis, slice ``r`` bitwise rank ``r``'s own.  Their mean is written straight into the shared gradient
  arena, which turns the simulated all-reduce's data application into
  an object-identity no-op (timing is untouched — the rendezvous still
  pays every simulated nanosecond).
* **Followers** (group math): the first member to enqueue an iteration
  leads it; members whose streams are in the leader's state ride its op
  timeline instead of enqueueing copies, and materialise their own
  streams, in the leader's exact state, before anything else observes
  them (:meth:`ReplicaArena.enter`).  In a traced run the leader's
  streams also write each rider's trace records.  A synchronize on any
  member's context observes its streams like any other observation
  (``CudaContext.observed``), so it ends every ride in the arena first;
  ``state_dict()`` ends only its own member's ride.  Replay-log
  validation (transparent family, the paper's Section 4.1) ends every
  ride too: the first member to validate an iteration materialises
  every rider and gives every gradient buffer a private copy
  (:meth:`ReplicaArena.validates`).  Each member then re-executes the
  iteration on its own math and gradients, a rider on its expanded log
  filled with what riding computed, its checksums reading the
  parameters it holds (:meth:`ReplicaArena.member_arrays`).
* **Served math** (group math, process-wide): exact recovery re-executes
  the failure-free trajectory, so restarted generations, oracle checks
  and campaign scenarios meet the same weights with the same minibatch
  again and again.  An iteration's first forward kernel digests the
  group's shape, parameters and batch (:meth:`ReplicaArena.math_digest`);
  an iteration whose digest a completed one had takes that iteration's
  member losses and reduced gradients from a process-wide memo
  (:data:`SERVED`) instead of recomputing them.  Its kernels still
  run at the same instants; only their numpy work disappears.  Only
  whole iterations are published, when the last backward completes, and
  a state one ulp off digests differently.  An arena dissolved for
  in-place recovery always recomputes, and a validation never reads the
  memo: it re-executes each member's private math.

Sharing is *copy-on-write*: the moment a rank diverges — its GPU bumps
its epoch (failure, driver reset), or state is loaded into it — the
member materialises a private copy of everything at the version it
witnessed and leaves the group; ``dedup_epoch`` counts these transitions.

Recovery makes replicas identical again: every member of a restarted
generation loads the same checkpoint (the paper's Section 3 restore).
Each load still diverges its member first, so the write stays private,
and then reports the restore to the arena.  Once every member of a
never-stepped arena has restored, the arena *re-seats* its canonical
state on member 0's restored arrays and optimizer and calls
:meth:`ReplicaArena.readmit` for the rest, which re-shares each one whose
state matches bitwise and leaves any other private.  Storage sharing
resumes at once; group math resumes from the first iteration no member
has enqueued yet, because it must be uniform across the group within an
iteration.

Transparent recovery (the paper's Section 4) recovers in place instead:
its coordinator dissolves every arena (:meth:`~ReplicaArena.dissolve`) when
it triggers, so reset, replica copy, rollback and replay all run on private
state.  A group-math kernel carries its private math too
(:class:`GroupThunk`); replay re-executes that, into gradient buffers
given back to each member first.  Recovery leaves every member at the
same version, bitwise, and :meth:`~ReplicaArena.reshare` then re-seats
the arena the way a restore does.  A rider's replay log holds one entry
per ridden iteration, expanded into its own records only when read (see
:mod:`repro.core.replay_log`); the engine's record of the iteration
(:class:`~repro.parallel.ddp.RiddenStep`) holds the ride for the proxy
too.

The contract is bitwise equivalence: losses, simulated clocks, and
logical event counts match dedup-off exactly, including mid-iteration
failure settlement.  The switch is :data:`repro.flags.dedup`
(``REPRO_DEDUP=0`` to disable), read when a job is built.
"""

from __future__ import annotations

import dataclasses
import hashlib
import weakref
from collections import OrderedDict
from functools import partial
from typing import Optional

import numpy as np

from repro import flags
from repro.cuda.event import CudaEvent, EventState
from repro.cuda.stream import (CollectiveKernelOp, KernelOp, MemcpyOp,
                               RecordEventOp, WaitEventOp)

from repro.framework.layers import OutputHead
from repro.sim import weak_method


def _shared_groups(job) -> list[tuple[list[int], bool]]:
    """*job*'s replica groups that share an arena: none with dedup off."""
    if not flags.dedup:
        return []
    return [(ranks, group_math) for ranks, group_math in job.dedup_groups()
            if len(ranks) >= 2]


def replica_leaders(job) -> dict[int, int]:
    """member rank -> leader rank for every member *job* builds bound.

    Read before the job builds its engines: each replica group's lowest
    rank (``dedup_groups`` lists ranks ascending; the arena's member 0)
    builds private state, and every other
    member is born bound to the leader's arrays (no parameters, moments
    or optimizer of its own), so :func:`attach_job` has nothing to throw
    away.
    """
    return {rank: ranks[0] for ranks, _ in _shared_groups(job)
            for rank in ranks[1:]}


def attach_job(job) -> list["ReplicaArena"]:
    """Share replica arenas across *job*'s data-parallel groups.

    No-op (returns ``[]``) when dedup is disabled or when no group has two
    or more members (pure model-parallel or fully-sharded jobs have no
    redundancy to exploit).  Every device API shares: the passthrough,
    the user-level JIT shim and the transparent family's device proxy,
    whose replay log a rider fills lazily.  The job built its members
    bound already (:func:`replica_leaders`).

    Group math additionally requires pure DDP without stochastic ops:
    dropout draws a per-rank RNG stream, so replicas stop being bitwise
    copies of one another below the all-reduce.
    """
    return [ReplicaArena([job.engines[rank] for rank in ranks],
                         group_math=group_math)
            for ranks, group_math in _shared_groups(job)]


def _copy_opt_state(state: dict) -> dict:
    """Structural copy of an optimizer state dict (arrays re-copied)."""
    out = {}
    for key, value in state.items():
        if isinstance(value, dict):
            out[key] = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                        for k, v in value.items()}
        else:
            out[key] = value
    return out


class GroupThunk:
    """A group-math kernel's thunk, plus the private math it stands for.

    Called, it runs the group's memoised math.  A kernel that runs again
    after its arena dissolved, on a replay of the log it was issued
    into, runs ``private`` instead: the member's own math into its own
    buffers.
    """

    __slots__ = ("group", "private")

    def __init__(self, group, private):
        self.group = group
        self.private = private

    def __call__(self) -> None:
        self.group()


def _zero_views(arrays: dict) -> dict:
    """Zero arrays shaped like *arrays*, all views of one buffer per dtype."""
    flats: dict = {}
    for array in arrays.values():
        flats[array.dtype] = max(flats.get(array.dtype, 0), array.size)
    flats = {dtype: np.zeros(size, dtype) for dtype, size in flats.items()}
    return {name: flats[array.dtype][:array.size].reshape(array.shape)
            for name, array in arrays.items()}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality; ``np.array_equal`` equates 0.0 with -0.0."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


#: Bytes of completed group-math iterations :data:`SERVED` keeps.  An
#: oracle checks every schedule against two golden trajectories (Adam, and
#: Swift's invertible SGD) of 20 iterations by default; at GPT2-S an
#: iteration is ~44 KB (5,480 float64 gradients), so those 40 take
#: ~1.75 MB.  2 MiB holds them with a few iterations to spare, and bounds
#: what the memo adds to a process's peak memory.
SERVED_BYTES = 2 << 20


class ServedMath:
    """Completed group-math iterations by content digest, least recently
    used first out once they hold more than *limit* bytes.

    An entry is ``(losses, grads)``: the member losses and every reduced
    gradient by arena name, all read-only copies of what the group's math
    computed.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries: OrderedDict[bytes, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: bytes) -> Optional[tuple]:
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
        return entry

    def put(self, digest: bytes, losses: np.ndarray, grads: dict) -> None:
        if digest in self._entries:
            self._entries.move_to_end(digest)
            return
        for array in (losses, *grads.values()):
            array.flags.writeable = False
        self._entries[digest] = (losses, grads)
        self.nbytes += _entry_bytes(losses, grads)
        while self.nbytes > self.limit:
            _, (old_losses, old_grads) = self._entries.popitem(last=False)
            self.nbytes -= _entry_bytes(old_losses, old_grads)

    def _clear(self) -> None:
        """Forget every entry (tests start from a cold memo)."""
        self._entries.clear()
        self.nbytes = 0


def _entry_bytes(losses: np.ndarray, grads: dict) -> int:
    return losses.nbytes + sum(grad.nbytes for grad in grads.values())


#: The process's served group math (see "Served math" above).
SERVED = ServedMath(SERVED_BYTES)


class MemberOptimizer:
    """Per-member proxy over a :class:`ReplicaArena`'s canonical optimizer.

    ``step`` routes through the arena: the first member to reach a given
    step count applies the canonical update once; every other member's
    call just witnesses it.  ``step_count`` reports *this member's*
    witnessed count, so :attr:`BaseEngine.applied_iteration` keeps its
    per-rank meaning (a rank whose optimizer kernel never executed still
    claims the older version).
    """

    def __init__(self, arena: "ReplicaArena", member: int):
        #: Weak, as the engines' view of their arena (see ``ReplicaArena``).
        self._arena = weakref.proxy(arena)
        self._member = member
        #: After divergence the engine swaps in a real optimizer; calls
        #: still in flight on this proxy delegate to it.
        self._materialized = None

    @property
    def step_count(self) -> int:
        if self._materialized is not None:
            return self._materialized.step_count
        return self._arena.member_steps(self._member)

    @property
    def lr(self) -> float:
        opt = self._materialized or self._arena.optimizer
        return opt.lr

    @property
    def params(self):
        opt = self._materialized or self._arena.optimizer
        return opt.params

    def __getattr__(self, name):
        # Moment views (m / v / velocity) and optimizer hyper-parameters
        # resolve against whichever optimizer currently backs this member.
        opt = (object.__getattribute__(self, "_materialized")
               or object.__getattribute__(self, "_arena").optimizer)
        return getattr(opt, name)

    def step(self, grads, lr: Optional[float] = None) -> None:
        if self._materialized is not None:
            self._materialized.step(grads, lr=lr)
            return
        self._arena.member_step(self._member, grads, lr)

    def state_dict(self) -> dict:
        if self._materialized is not None:
            return self._materialized.state_dict()
        return self._arena.member_opt_state(self._member)

    def load_state_dict(self, state: dict) -> None:
        # Loading foreign state into one member is divergence by
        # definition; materialise first, then load into the private copy.
        if self._materialized is None:
            self._arena.diverge(self._member)
        self._materialized.load_state_dict(state)


class FollowBatch:
    """One leader's run of enqueued ops that group members may ride.

    A batch is what one member (the *leader*) enqueues for one phase of
    one iteration: the whole forward/backward/all-reduce timeline, or the
    optimizer kernel.  Its state at open time is what a member must match
    to ride it instead of enqueueing its own copies.
    """

    __slots__ = ("leader", "iteration", "lr", "time", "riders", "remaining",
                 "woken", "events", "collectives", "nbytes", "nbufs",
                 "bwd_done", "optimizer", "followable", "pending", "shape",
                 "seq", "saw")

    def __init__(self, leader: "_Follower", iteration: int, lr: float,
                 time: float):
        self.leader = leader
        self.iteration = iteration
        self.lr = lr
        self.time = time
        #: Followers riding this batch (their copies are not enqueued).
        self.riders: list[_Follower] = []
        #: Ops of the batch not yet retired (maintained by the streams).
        self.remaining = 0
        #: Leader streams its enqueue woke, in order.
        self.woken: list = []
        #: Every CudaEvent the leader created for the batch, in order.
        self.events: list = []
        #: Collective instances the leader joined, in sequence order.
        self.collectives: list = []
        #: Logical device bytes, and buffers, the leader allocated for
        #: the batch.
        self.nbytes = 0
        self.nbufs = 0
        self.bwd_done = None
        #: The same iteration's optimizer batch, once the leader opened it.
        self.optimizer: Optional[FollowBatch] = None
        self.followable = False
        #: Batches of the ops queued on the leader's streams at open time.
        self.pending = frozenset()
        #: Structural state of the leader's streams at open time.
        self.shape = None
        #: The leader's next collective sequence number at open time.
        self.seq = None
        self.saw = None


class _Follower:
    """Per-member follow state: the batches it rides and its CPU."""

    __slots__ = ("engine", "rank", "rides", "cpu", "wakeups", "twins",
                 "event_names", "physical")

    def __init__(self, engine):
        self.engine = engine
        self.rank = engine.api.rank
        #: The engine's compute and comm CUDA streams (see ``_hook``).
        self.physical = ()
        self.rides: list[FollowBatch] = []
        self.cpu = None
        #: Own stream -> event dispatched in place of the wakeup its
        #: private enqueue would have triggered (see ``ReplicaArena._join``).
        self.wakeups: dict = {}
        #: Leader stream -> this member's stream of the same role.
        self.twins: dict = {}
        #: Leader event of a ridden batch -> the name this member's own
        #: copy has (a traced run's records and materialised copies).
        self.event_names: dict = {}


#: Shape of an idle, empty stream.
_IDLE = (0, None, ())


def _shape(stream):
    """Comparable state of *stream*'s executor and queue, or None.

    Only queues of plain kernels compare: their progress depends on
    nothing but their start times and durations.
    """
    wakeup = stream._wakeup
    state = 2 if wakeup is None else int(wakeup.triggered)
    chain = stream._active_chain
    ops = []
    for op in stream._queue:
        if type(op) is not KernelOp:
            return None
        ops.append((op.name, op.duration, op.started_at, op._done is None))
    return (state, None if chain is None else (chain[1], tuple(chain[2])),
            tuple(ops))


class ReplicaArena:
    """One canonical parameter/gradient/moment arena for a DP group.

    Member 0 (the leader) owns the canonical arrays and optimizer; every
    other member must be born bound to them: built over the leader's
    arrays with no optimizer of its own (``leader=`` on the engines).
    """

    def __init__(self, engines: list, group_math: bool = False):
        if len(engines) < 2:
            raise ValueError("a replica arena needs at least two members")
        if any(engine.optimizer is not None for engine in engines[1:]):
            raise ValueError("replica arena members must be born bound "
                             "to the leader's arrays")
        self.engines = list(engines)
        self.group_math = bool(group_math)
        #: Bumped on every diverge, re-seat and readmit, so observers can
        #: tell whether the sharing set changed since they last looked.
        self.dedup_epoch = 0
        leader = self.engines[0]
        self.optimizer = leader.optimizer
        #: Canonical parameter arrays — the leader's allocations.
        self.params = {name: buf.array
                       for name, buf in leader.param_buffers.items()}
        self.active = [True] * len(self.engines)
        self.witnessed = [0] * len(self.engines)
        self.steps_applied = 0
        #: Pre-step snapshot covering exactly one step of lag: captured
        #: before the canonical apply, dropped once every active member
        #:  has witnessed the step.
        self._undo: Optional[dict] = None
        #: Shared gradient arena (group-math mode): reused every
        #: iteration, always holding the *reduced* gradient by the time
        #: any optimizer kernel reads it.
        self.grad_arrays = {name: np.zeros(array.shape)
                            for name, array in self.params.items()
                            } if group_math else None
        #: Zero arrays the members allocate their gradient buffers with
        #: (what a private allocation holds) before :meth:`share_grads`
        #: points them at ``grad_arrays``: views of one zero buffer, never
        #: written.
        self.grad_zeros = _zero_views(self.params) if group_math else None
        #: What the group's math is besides its parameters' values and
        #: batch (see :meth:`math_digest`).
        self._signature = self._math_signature() if group_math else None
        #: (iteration, buffers) aliasing ``grad_arrays``, newest two.
        self._grad_views: list[tuple[int, dict]] = []
        #: Recent iterations some member enqueued on group math.
        self._group_iterations: set[int] = set()
        #: Set by :meth:`dissolve` until :meth:`reshare`.
        self.dissolved = False
        #: iteration -> memoised group-math results; two iterations are
        #: kept live (the CPU runs at most one iteration ahead of the
        #: device — the all-reduce rendezvous is a per-iteration barrier).
        self._memo: dict[int, dict] = {}
        #: Members that loaded checkpoint state into a never-stepped arena.
        self._restored: set[int] = set()
        #: First iteration whose math the group shares (group-math mode).
        self._math_from = 0
        #: One past the newest iteration any member has enqueued.
        self._enqueued = 0
        #: The newest iteration some member validated.
        self._validated: Optional[int] = None
        # The job owns its arenas; the engines' views of theirs are weak,
        # as the arena holds the engines.
        for member, engine in enumerate(self.engines):
            engine._dedup_arena = weakref.proxy(self)
            engine._dedup_member = member
            engine.optimizer = MemberOptimizer(self, member)
        #: Follower state per member, riders, and open batches by
        #: iteration (group-math mode only: see "Followers" below).
        self._followers = [_Follower(engine) for engine in self.engines]
        self._riding: list[_Follower] = []
        self._batches: dict[int, FollowBatch] = {}
        self._epoch_hooks: list = []
        #: Member contexts and streams whose ``follow_hook`` is ours.
        self._follow_hooked: list = []
        self._hook()

    def _hook(self) -> None:
        """Hook the members' current GPUs and contexts.

        Any epoch transition on a member's GPU (failure, driver reset) is
        the copy-on-write trigger; anything observing a member's streams,
        a synchronize included, materialises every rider first
        (group-math mode).  The hooks hold the arena weakly: it reaches
        the GPUs, contexts and streams through its engines, and a job
        that ends without ``detach`` must not be a reference cycle.
        """
        device_epoch = weak_method(self._device_epoch)
        self._epoch_hooks = [
            (engine.api.ctx.gpu, partial(device_epoch, member))
            for member, engine in enumerate(self.engines)]
        for gpu, hook in self._epoch_hooks:
            gpu.on_epoch.append(hook)
        self._follow_hooked = []
        if self.group_math:
            for follower in self._followers:
                engine = follower.engine
                physical = engine.api.physical
                follower.physical = (physical(engine.compute_stream),
                                     physical(engine.comm_stream))
                ctx = engine.api.ctx
                self._follow_hooked += [ctx, *ctx.streams]
            materialize_all = weak_method(self.materialize_all)
            for hooked in self._follow_hooked:
                hooked.follow_hook = materialize_all

    # -- membership --------------------------------------------------------

    def _bind_member(self, engine) -> None:
        """Point a follower's buffers and model objects at the arena."""
        for name, array in self.params.items():
            engine._rebind_param(name, array)
        self._bind_moments(engine, self.optimizer)

    @staticmethod
    def _bind_moments(engine, optimizer) -> None:
        for attr in ("m", "v", "velocity"):
            for name, array in getattr(optimizer, attr, {}).items():
                key = f"{attr}.{name}"
                buf = engine.opt_buffers.get(key)
                if buf is not None:
                    buf.array = array

    def detach(self) -> None:
        """Unhook from the members' GPUs, contexts and streams once the
        job is torn down.

        The hardware outlives the job: a restarted generation runs on the
        same GPUs, whose epoch transitions must no longer reach this
        arena, and whose hook lists would otherwise keep every torn-down
        generation's arrays alive until the run ends.  The contexts and
        streams die with the job, but their hooks point back through the
        arena at the engines that own them: left set, the whole job
        graph would be a reference cycle.
        """
        for gpu, hook in self._epoch_hooks:
            gpu.on_epoch.remove(hook)
        self._epoch_hooks = []
        for hooked in self._follow_hooked:
            hooked.follow_hook = None
        self._follow_hooked = []

    def member_active(self, member: int) -> bool:
        return self.active[member]

    def shares_math(self, member: int, iteration: int) -> bool:
        """Does *member* enqueue *iteration* on the group's shared math?

        Asked once per iteration, at enqueue time, so asking also records
        that *iteration* has been enqueued.  Group math must be
        uniform across the group within an iteration: a member that runs
        it writes the *reduced* gradient into the shared arena, so mixing
        it with private members in one all-reduce would average the wrong
        values.  After a re-seat it therefore resumes only from the first
        iteration no member had enqueued yet, and a dissolved arena
        finishes on group math only what some member enqueued on it
        before the dissolve.
        """
        self._enqueued = max(self._enqueued, iteration + 1)
        if self.dissolved:
            return iteration in self._group_iterations
        shares = (self.group_math and self.active[member]
                  and iteration >= self._math_from)
        if shares:
            self._group_iterations.add(iteration)
            self._group_iterations.discard(iteration - 3)
        return shares

    def member_steps(self, member: int) -> int:
        return self.witnessed[member]

    # -- optimizer step ----------------------------------------------------

    def member_step(self, member: int, grads, lr) -> None:
        """Apply-or-witness one optimizer step for *member*.

        Stream FIFO order guarantees a member's own next-iteration forward
        runs after its optimizer kernel, and the gradient all-reduce
        barrier guarantees no member's optimizer kernel for iteration ``i``
        runs before every member finished backward ``i`` — so whichever
        member's kernel executes first can safely advance the canonical
        state for the whole group.
        """
        target = self.witnessed[member] + 1
        if target > self.steps_applied:
            self._undo = self._capture_undo()
            self.optimizer.step(grads, lr=lr)
            self.steps_applied = target
        self.witnessed[member] = target
        if all(w >= self.steps_applied
               for w, a in zip(self.witnessed, self.active) if a):
            self._undo = None

    def _capture_undo(self) -> dict:
        """Cheap pre-step snapshot: params plus raw moment arenas.

        The Adam/AdamW flat arenas are copied wholesale (two contiguous
        copies) instead of through ``state_dict()``'s per-view dict — the
        snapshot is taken every canonical step, the state-dict shape is
        only needed on the rare lagging query (:meth:`_undo_opt_state`).
        """
        opt = self.optimizer
        undo = {"params": {name: array.copy()
                           for name, array in self.params.items()}}
        flat_m = getattr(opt, "_flat_m", None)
        if flat_m is not None:
            undo["flat"] = (flat_m.copy(), opt._flat_v.copy(),
                            opt.step_count, opt.lr)
        else:
            undo["opt"] = opt.state_dict()
        return undo

    def _undo_opt_state(self) -> dict:
        undo = self._undo
        if "flat" not in undo:
            return _copy_opt_state(undo["opt"])
        flat_m, flat_v, step_count, lr = undo["flat"]
        state = self.optimizer.state_dict()
        state["step_count"], state["lr"] = step_count, lr
        m_views = self.optimizer._view_dict(flat_m)
        v_views = self.optimizer._view_dict(flat_v)
        for name in state["m"]:
            state["m"][name][...] = m_views[name]
            state["v"][name][...] = v_views[name]
        return state

    def member_opt_state(self, member: int) -> dict:
        if self.witnessed[member] < self.steps_applied:
            return self._undo_opt_state()
        return self.optimizer.state_dict()

    def member_params_snapshot(self, member: int) -> Optional[dict]:
        """Params at *member*'s witnessed version, or None if current."""
        if self.active[member] and self.witnessed[member] < self.steps_applied:
            return {name: array.copy()
                    for name, array in self._undo["params"].items()}
        return None

    # -- copy-on-write -----------------------------------------------------

    def _device_epoch(self, member: int) -> None:
        self.materialize_all()
        # A device transition after a restore voids it as a re-seat
        # witness: the member's generation is failing, not converging.
        self._restored.discard(member)
        self.diverge(member)

    def member_restored(self, member: int) -> None:
        """Record that *member* loaded checkpoint state; re-share if all did.

        Only a never-stepped arena (a fresh generation) re-seats: then
        nothing but the restores has written the members' state.
        """
        if self.steps_applied:
            return
        self._restored.add(member)
        if len(self._restored) == len(self.engines) and not any(self.active):
            self._reseat()

    def _reseat(self) -> None:
        """Make member 0's restored state canonical and readmit the rest.

        Every member has diverged by now, so the canonical arrays still
        hold the generation's freshly initialised weights and ``readmit``
        alone would refuse everyone.  The undo snapshot and the memo
        describe that discarded state and are dropped with it.
        """
        leader = self.engines[0]
        self.optimizer = leader.optimizer
        self.params = {name: buf.array
                       for name, buf in leader.param_buffers.items()}
        self.steps_applied = self.optimizer.step_count
        self.witnessed = [self.steps_applied] * len(self.engines)
        self._undo = None
        self._memo.clear()
        self._group_iterations.clear()
        self.dissolved = False
        leader.optimizer = MemberOptimizer(self, 0)
        self.active[0] = True
        self.dedup_epoch += 1
        readmitted = [self.readmit(member)
                      for member in range(1, len(self.engines))]
        # A member that restored early may already have enqueued an
        # iteration privately; a refused one stays private for good.
        self._math_from = self._enqueued if all(readmitted) else float("inf")

    def diverge(self, member: int) -> None:
        """Materialise a private copy for *member* and detach it."""
        if not self.active[member]:
            return
        engine = self.engines[member]
        lagging = self.witnessed[member] < self.steps_applied
        source = self._undo["params"] if lagging else self.params
        opt_state = (self._undo_opt_state() if lagging
                     else self.optimizer.state_dict())
        private = {name: np.array(array) for name, array in source.items()}
        from repro.framework.optim import make_optimizer

        optimizer = make_optimizer(engine.optimizer_kind, private,
                                   lr=engine.base_lr)
        optimizer.load_state_dict(opt_state)
        proxy = engine.optimizer
        if isinstance(proxy, MemberOptimizer):
            proxy._materialized = optimizer
        # Install the private optimizer *before* rebinding: the proxy's
        # ``params`` is the canonical optimizer's dict, and rebinding
        # through it would point the group's optimizer at this member's
        # private arrays.
        engine.optimizer = optimizer
        for name, array in private.items():
            engine._rebind_param(name, array)
        self._bind_moments(engine, optimizer)
        self.active[member] = False
        self.dedup_epoch += 1
        if self._undo is not None and all(
                w >= self.steps_applied
                for w, a in zip(self.witnessed, self.active) if a):
            self._undo = None

    def readmit(self, member: int) -> bool:
        """Re-share a diverged member whose state re-converged bitwise.

        Returns False (and leaves the member private) if any parameter,
        moment, or the step count differs from the canonical arena.  After
        a restart the re-seat (:meth:`member_restored`) calls this for
        every member but the one it seated on.
        """
        if self.active[member]:
            return True
        engine = self.engines[member]
        optimizer = engine.optimizer
        if isinstance(optimizer, MemberOptimizer):
            optimizer = optimizer._materialized
        if optimizer is None or optimizer.step_count != self.steps_applied:
            return False
        for name, array in self.params.items():
            if not same_bits(optimizer.params[name], array):
                return False
        for attr in ("m", "v", "velocity"):
            canon = getattr(self.optimizer, attr, {})
            mine = getattr(optimizer, attr, {})
            for name, array in canon.items():
                if not same_bits(mine[name], array):
                    return False
        self._bind_member(engine)
        proxy = MemberOptimizer(self, member)
        engine.optimizer = proxy
        self.active[member] = True
        self.witnessed[member] = self.steps_applied
        self.dedup_epoch += 1
        return True

    # -- in-place recovery (transparent family) ------------------------------

    def dissolve(self) -> None:
        """Make every member private until :meth:`reshare`.

        Every rider materialises and every member diverges, as a device
        epoch diverges one.  Work some member enqueued on group math
        finishes on it (see :meth:`shares_math`); the rest runs privately.
        """
        self.materialize_all()
        for member in range(len(self.engines)):
            self.diverge(member)
        self.dissolved = True

    def release_grads(self) -> None:
        """Give every gradient buffer aliasing the arena a private copy.

        Called before members re-execute group-math work privately: a
        dissolved arena's logs replaying, or members validating on their
        own math.  A re-executed group-math kernel runs its
        :class:`GroupThunk`'s private math, and it and the re-executed
        all-reduce must write per-member values.
        """
        for _, buffers in self._grad_views:
            for buf in buffers.values():
                buf.array = buf.array.copy()
        self._grad_views.clear()

    def reshare(self) -> None:
        """Re-share once in-place recovery left every member bitwise equal.

        Members may have moved to new contexts or GPUs (proxy restart,
        migration), so the arena re-hooks before re-seating on member 0.
        """
        self.detach()
        self._hook()
        self._reseat()

    def share_grads(self, iteration: int, buffers: dict) -> None:
        """Point a member's gradient buffers for *iteration* at the arena.

        The buffers were allocated with ``grad_zeros``, so the allocation
        looks like a private one.
        """
        for name, buf in buffers.items():
            buf.array = self.grad_arrays[name]
        views = self._grad_views
        views.append((iteration, buffers))
        views[:] = [view for view in views if view[0] >= iteration - 1]

    # -- replay-log validation (transparent family) ---------------------------

    def validates(self, iteration: int) -> None:
        """Make the group ready for its members to validate *iteration*
        on their own math and gradients.

        Once per iteration, when the first member validates it: every
        rider materialises and every gradient buffer gets a private copy.
        The guard matters: by the time a later member validates, the
        next iteration's buffers may already share the arena again.
        """
        if self._validated != iteration:
            self._validated = iteration
            self.materialize_all()
            self.release_grads()

    def member_arrays(self, member: int) -> dict:
        """id(buffer) -> array, for each of *member*'s parameter and
        moment buffers whose canonical arrays hold a step the member has
        not witnessed: the pre-step array it still holds.

        A validating member's checksums read these, so another member's
        optimizer step never shows in them.
        """
        if not (self.active[member]
                and self.witnessed[member] < self.steps_applied):
            return {}
        engine = self.engines[member]
        arrays = {id(engine.param_buffers[name]): array
                  for name, array in self._undo["params"].items()}
        state = self._undo_opt_state()
        for attr in ("m", "v", "velocity"):
            for name, array in state.get(attr, {}).items():
                buf = engine.opt_buffers.get(f"{attr}.{name}")
                if buf is not None:
                    arrays[id(buf)] = array
        return arrays

    # -- followers (group math) ---------------------------------------------
    #
    # Under group math every member's iteration is the same op timeline
    # over the same memo.  The first member to enqueue an iteration leads
    # it; a member whose streams are in the state the leader's were in
    # then *rides* the leader's batch instead of enqueueing copies.  The
    # leader's streams dispatch each op once, arrive at collectives for
    # riders and credit each rider the logical events its copy would have
    # dispatched.  Before anything but a rider's own training step would
    # observe its streams (see ``follow_hook``), it *materialises*: it
    # gets its own copies of the ops still queued, in the exact state the
    # leader's are in, and runs privately from then on.

    def enter(self, engine, iteration: int, lr: float) -> Optional[FollowBatch]:
        """Lead or ride *iteration* for *engine*, or run it privately.

        Returns the batch *engine* leads (``batch.leader.engine is
        engine``) or rides; None when it enqueues privately.  Either way a
        member that rides an older batch has materialised unless it rides
        again.
        """
        follower = self._followers[engine._dedup_member]
        if self.dissolved:
            self._materialize(follower)
            return None
        batch = self._batches.get(iteration)
        if batch is None:
            self._materialize(follower)
            batch = self._open(follower, iteration, lr)
            self._batches[iteration] = batch
            self._batches.pop(iteration - 2, None)
            return batch
        if self._can_join(follower, batch):
            self._join(follower, batch)
            return batch
        self._materialize(follower)
        return None

    def enter_optimizer(self, engine, batch: FollowBatch,
                        lr: float) -> Optional[FollowBatch]:
        """The optimizer batch of *batch*'s iteration, as :meth:`enter`."""
        follower = self._followers[engine._dedup_member]
        if batch.leader is follower:
            if not batch.riders:
                return None
            batch.optimizer = self._open(follower, batch.iteration, lr)
            return batch.optimizer
        optimizer = batch.optimizer
        if (optimizer is not None and follower in batch.riders
                and self._can_join(follower, optimizer)):
            self._join(follower, optimizer)
            return optimizer
        self._materialize(follower)
        return None

    @staticmethod
    def _may_follow(follower: _Follower) -> bool:
        """Unpoisoned, healthy streams and an idle PCIe link."""
        ctx = follower.engine.api.ctx
        if ctx.poisoned:
            return False
        for stream in follower.physical:
            if (stream.aborted or stream.error is not None
                    or not stream._gpu_ok()):
                return False
        pcie = ctx.node.pcie_for(ctx.gpu)
        return not pcie.in_use and not pcie.queued

    def _open(self, follower: _Follower, iteration: int,
              lr: float) -> FollowBatch:
        engine = follower.engine
        batch = FollowBatch(follower, iteration, lr, engine.api.env.now)
        batch.followable = self._may_follow(follower)
        if batch.followable:
            streams = follower.physical
            batch.pending = frozenset(op.batch for stream in streams
                                      for op in stream._queue)
            batch.shape = tuple(_shape(stream) for stream in streams)
            batch.saw = tuple(stream.saw_collective for stream in streams)
            batch.seq = engine.api.live_comm(engine.comm).next_seq(
                follower.rank)
        return batch

    def _can_join(self, follower: _Follower, batch: FollowBatch) -> bool:
        engine = follower.engine
        if (not batch.followable or batch.time != engine.api.env.now
                or not self._may_follow(follower)):
            return False
        for stream in batch.leader.physical:
            if stream.aborted or not stream._gpu_ok():
                return False
        streams = follower.physical
        if tuple(stream.saw_collective for stream in streams) != batch.saw:
            return False
        if engine.api.live_comm(engine.comm).next_seq(follower.rank) \
                != batch.seq:
            return False
        riding = [ridden for ridden in follower.rides if ridden.remaining]
        if riding:
            # Still riding: the leader's queues must hold exactly the
            # batches this member rides, and its own nothing.
            return (frozenset(riding) == batch.pending
                    and all(_shape(stream) == _IDLE for stream in streams))
        return (None not in batch.shape
                and tuple(_shape(stream) for stream in streams) == batch.shape)

    def _join(self, follower: _Follower, batch: FollowBatch) -> None:
        engine = follower.engine
        env = engine.api.env
        batch.riders.append(follower)
        if not follower.rides:
            self._riding.append(follower)
        rides = [ridden for ridden in follower.rides if ridden.remaining]
        names = {event: follower.event_names[event] for ridden in rides
                 for event in ridden.events}
        # The events this member would have created take its own ordinals.
        next_name = engine.api.ctx.next_event_name
        names.update((event, next_name(event.hint)) for event in batch.events)
        follower.event_names = names
        follower.rides = rides + [batch]
        follower.cpu = env.active_process
        # A private enqueue would wake the same streams, dispatching their
        # wakeups behind everything already scheduled at this instant.
        streams = follower.twins = dict(zip(batch.leader.physical,
                                            follower.physical))
        for stream in batch.woken:
            wakeup = follower.wakeups[streams[stream]] = env.event()
            wakeup.succeed()
        if batch.collectives:
            engine.api.live_comm(engine.comm).follow(
                follower.rank, batch.collectives, batch.leader.rank,
                follower.physical[1])
        for source, stream in streams.items():
            if source.saw_collective:
                stream.saw_collective = True
        engine.api.follow(batch, names, streams)

    def materialize_all(self) -> None:
        """Materialise every rider of this arena (see ``follow_hook``)."""
        for follower in list(self._riding):
            self._materialize(follower)

    def materialize(self, engine) -> None:
        """Materialise *engine* before it enqueues work privately."""
        self._materialize(self._followers[engine._dedup_member])

    def _materialize(self, follower: _Follower) -> None:
        rides = follower.rides
        if not rides:
            return
        follower.rides = []
        wakeups, follower.wakeups = follower.wakeups, {}
        names, follower.event_names = follower.event_names, {}
        streams, follower.twins = follower.twins, {}
        self._riding.remove(follower)
        for batch in rides:
            if follower in batch.riders:
                batch.riders.remove(follower)
        pending = [batch for batch in rides if batch.remaining]
        if not pending:
            return
        engine = follower.engine
        env = engine.api.env
        copies = {}
        for batch in pending:
            for event in batch.events:
                copy = copies[event] = CudaEvent(env, name=names[event],
                                                 hint=event.hint)
                stream = streams[event.recorded_on]
                if event.state is EventState.TRIGGERED:
                    copy.adopt_trigger(stream, event.trigger_time)
                else:
                    copy.mark_recorded(stream)
        ridden_batches = set(pending)
        for source, stream in streams.items():
            ridden = [op for op in source._queue if op.batch in ridden_batches]
            if ridden:
                own = [self._copy_op(engine, op, copies) for op in ridden]
                stream.adopt(own, source, ridden, wakeups.get(stream))
        cpu = follower.cpu
        if cpu is not None and cpu.is_alive:
            for event, copy in copies.items():
                completion = event.completion
                if cpu.target is completion and not completion.triggered:
                    cpu.retarget(copy.completion)
                    break
        engine.api.follow_retarget(copies)

    @staticmethod
    def _copy_op(engine, op, events: dict):
        """*engine*'s own copy of the leader's queued *op*."""
        kind = type(op)
        if kind is KernelOp:
            copy = KernelOp(op.name, op.duration,
                            engine._follow_thunk(op.name, op.batch))
        elif kind is MemcpyOp:
            ctx = engine.api.ctx
            copy = MemcpyOp(op.name, op.nbytes, op.bandwidth,
                            None if op.pcie is None
                            else ctx.node.pcie_for(ctx.gpu))
        elif kind is WaitEventOp:
            copy = WaitEventOp(events.get(op.event, op.event))
        elif kind is RecordEventOp:
            event = events[op.event]
            copy = RecordEventOp(event, event.completion)
        else:
            copy = CollectiveKernelOp(op.name, op.rendezvous, engine.api.rank)
        copy._env = op._env
        return copy

    # -- group math (pure DDP) --------------------------------------------

    def _step_memo(self, iteration: int) -> dict:
        memo = self._memo.get(iteration)
        if memo is None:
            memo = self._memo[iteration] = {}
            for old in [it for it in self._memo if it < iteration - 1]:
                del self._memo[old]
        return memo

    def _math_signature(self) -> bytes:
        """Parameter names, shapes and dtypes, each block's kind and
        static fields, and the member count: built once per arena."""
        engine = self.engines[0]
        blocks = []
        for block in engine.blocks:
            arrays = set(block.names())
            blocks.append((type(block).__name__, tuple(
                (field.name, getattr(block, field.name))
                for field in dataclasses.fields(block)
                if field.name not in arrays)))
        params = tuple((name, array.shape, array.dtype.str)
                       for name, array in self.params.items())
        return repr((params, tuple(blocks), len(self.engines))).encode()

    def math_digest(self, x: np.ndarray, y: np.ndarray) -> bytes:
        """Content key of an iteration's group math: its signature, every
        canonical parameter's bytes, and the batch *x* with labels *y*."""
        digest = hashlib.sha256(self._signature)
        for array in self.params.values():
            digest.update(array)
        digest.update(x)
        digest.update(y)
        return digest.digest()

    def group_forward(self, iteration: int, index: int, block) -> None:
        """Forward for layer *index*, computed once on the full batch.

        The block runs with member count ``k`` = the group size: every
        2-D product is one BLAS call per member's rows
        (:func:`repro.framework.layers.member_matmul`), and every other op
        in :mod:`repro.framework.layers` / :mod:`repro.framework.attention`
        works row by row or sample by sample, so the row-slices of the
        shared activations are bitwise what each rank would have computed
        from its shard.

        Layer 0 digests the iteration, when its kernel runs and the
        parameters hold the previous step; a digest :data:`SERVED` holds
        serves the whole iteration, and every other digest's math is
        published once its last backward completes.
        """
        memo = self._step_memo(iteration)
        key = ("fwd", index)
        if key in memo or "served" in memo:
            return
        if index > 0:
            src = memo[("fwd", index - 1)][0]
        else:
            # The members' shards are row-slices of this one batch.
            x, y = self.engines[0].dataset.global_minibatch(iteration)
            if not self.dissolved:
                # A dissolved arena's members hold private state that
                # recovery may be rewriting: its math is neither served
                # nor published (see ``group_block_backward``).
                digest = self.math_digest(x, y)
                served = SERVED.get(digest)
                if served is not None:
                    memo["served"] = served
                    return
                memo["digest"], memo["grads"] = digest, {}
            memo["batch"] = x, y
            src = x
        memo[key] = block.forward(src, k=len(self.engines))

    def ridden_loss(self, iteration: int, member: int, head,
                    n_blocks: int) -> Optional[float]:
        """A rider's loss from the memo, or None once the memo lost it.

        The memo keeps the iteration unless a re-seat dropped it; the
        rider then ran the iteration privately, on a replay.
        """
        memo = self._memo.get(iteration)
        if memo is None or "head_losses" not in memo:
            return None
        return self.group_head_loss(iteration, member, head, n_blocks)

    def group_head_loss(self, iteration: int, member: int, head,
                        n_blocks: int) -> float:
        """Member's shard loss from the head run once on the full batch."""
        memo = self._step_memo(iteration)
        losses = memo.get("head_losses")
        if losses is None:
            served = memo.get("served")
            if served is not None:
                losses = served[0]
            else:
                src = memo[("fwd", n_blocks - 1)][0]
                losses, memo["head_cache"] = OutputHead.forward(
                    src, head, memo["batch"][1], k=len(self.engines))
            memo["head_losses"] = losses
        return float(losses[member])

    def group_head_backward(self, iteration: int, head,
                            n_blocks: int) -> None:
        """Head backward once; reduced grads land in the shared arena."""
        memo = self._step_memo(iteration)
        if "head_bwd" in memo:
            return
        if not self._serve(memo, "head.", head.names()):
            dx, grads = OutputHead.backward(memo["head_cache"], head,
                                            k=len(self.engines))
            memo[("dy", n_blocks - 1)] = dx
            for name, member_grads in grads.items():
                self._reduce_into(memo, f"head.{name}", member_grads)
        memo["head_bwd"] = True

    def group_block_backward(self, iteration: int, index: int, block) -> None:
        """Backward for layer *index* once, for the whole group.

        Runs the block's own ``backward_full`` on the full batch with
        ``k`` = the group size: the dx chain covers every row (row-wise
        bitwise with per-shard backward), and each parameter gradient
        comes back stacked over a leading member axis whose slices are
        bitwise each member's own; they are mean-reduced into the arena.
        Layer 0 completes the iteration, which is then published.
        """
        memo = self._step_memo(iteration)
        key = ("bwd", index)
        if key in memo:
            return
        if self._serve(memo, f"layer{index}.", block.names()):
            memo[key] = True
            return
        dx, grads = block.backward_full(memo[("dy", index)],
                                        memo[("fwd", index)][1],
                                        k=len(self.engines))
        for name, member_grads in grads.items():
            self._reduce_into(memo, f"layer{index}.{name}", member_grads)
        memo[("dy", index - 1)] = dx
        memo[key] = True
        if index == 0 and "digest" in memo and not self.dissolved:
            SERVED.put(memo["digest"], memo["head_losses"].copy(),
                       memo["grads"])

    def _serve(self, memo: dict, prefix: str, names: list) -> bool:
        """Copy a served iteration's reduced gradients of *names* into the
        arena, keeping the arrays every member's buffers alias."""
        served = memo.get("served")
        if served is None:
            return False
        for name in names:
            np.copyto(self.grad_arrays[prefix + name], served[1][prefix + name])
        return True

    def _reduce_into(self, memo: dict, name: str,
                     member_grads: np.ndarray) -> None:
        """Mean-reduce stacked per-member grads into the shared arena.

        ``member_grads`` is the contiguous ``(world, ...)`` batch whose
        slices are bitwise each rank's gradient; its ``mean(axis=0)``
        walks the same float sequence as the simulated all-reduce's
        reduction (bitwise ``np.stack([...]).mean(axis=0)``), so the
        collective's subsequent data application is an exact identity
        (and is skipped via the object-identity fast path in
        :mod:`repro.nccl.rendezvous`).  A digested iteration keeps a copy
        to publish.
        """
        # add.reduce + in-place divide is bitwise np.mean (same umath sum
        # then true_divide) with about half the Python dispatch overhead.
        out = self.grad_arrays[name]
        np.add.reduce(member_grads, axis=0, out=out)
        out /= member_grads.shape[0]
        grads = memo.get("grads")
        if grads is not None:
            grads[name] = out.copy()
