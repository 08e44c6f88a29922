"""Shared engine machinery: parameter registration and checkpoint state.

``state_dict`` / ``load_state_dict`` define the checkpoint format used by
*both* periodic baselines and JIT checkpointing — the paper notes the two
share code and file formats so they compose (Section 6.3).
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.cuda.memory import BufferKind, DeviceBuffer
from repro.framework.costmodel import TrainingCostModel
from repro.framework.lr_scheduler import ConstantLr, LrScheduler
from repro.framework.models import ModelConfig
from repro.framework.optim import Optimizer, make_optimizer
from repro.parallel.buffers import GroupShares, allocate_group
from repro.parallel.deviceapi import DeviceApi


class BaseEngine:
    """Common state shared by all parallel training engines."""

    def __init__(self, api: DeviceApi, config: ModelConfig,
                 cost: TrainingCostModel, optimizer_kind: str = "adam",
                 lr: float = 1e-2, scheduler: Optional[LrScheduler] = None):
        self.api = api
        self.config = config
        self.cost = cost
        self.gpu_spec = api.ctx.gpu.spec
        self.compute_stream = api.create_stream("compute")
        self.comm_stream = api.create_stream("comm")
        self.optimizer_kind = optimizer_kind
        self.base_lr = lr
        self.scheduler = scheduler or ConstantLr(lr)
        self.optimizer: Optional[Optimizer] = None
        #: name -> DeviceBuffer for parameters (set by subclasses).
        self.param_buffers: dict[str, DeviceBuffer] = {}
        #: name -> DeviceBuffer for optimizer moments.
        self.opt_buffers: dict[str, DeviceBuffer] = {}
        #: (target_iteration, event) pairs waiting on progress — succeeded
        #: by the ``iteration`` setter, so waiters (failure injectors,
        #: instrumentation) never have to busy-poll the simulator clock.
        self._iteration_waiters: list = []
        #: Next iteration to execute (the checkpointed resume point).
        self.iteration = 0
        #: Iteration this engine (re)started computing from: 0 for a cold
        #: start, or the checkpoint's iteration after a restore.  Earlier
        #: loss-history entries were inherited from the checkpoint.
        self.restored_at = 0
        self.loss_history: list[float] = []
        #: Buffer groups from prior iterations, freed once the CPU is sure
        #: the device has consumed them (start of the following step).
        self._deferred_frees: list[list] = []
        #: Optional checkpointable RNG (set by engines with stochastic
        #: ops).  ``_rng_snapshot`` holds the state as of the current
        #: iteration's start — the state a checkpoint labelled with this
        #: iteration must carry (paper Section 3.2: "random number
        #: generator state").
        self.rng = None
        self._rng_snapshot = None
        self._rng_snapshot_iteration = -1
        #: Human-readable shard id; equal across data-parallel replicas so
        #: replicas read each other's checkpoint files (Section 3.3).
        self.shard_id = "full"
        #: Set by :func:`repro.framework.dedup.attach_job` when this rank
        #: shares a canonical replica arena with its DP group.
        self._dedup_arena = None
        self._dedup_member = 0
        #: Shared zero array backing group-math activation buffers (their
        #: contents are dead weight; only allocation events matter).
        self._act_scratch = None

    def _rebind_param(self, name: str, array: np.ndarray) -> None:
        """Point this engine's view of parameter *name* at *array*.

        Used by replica deduplication to alias a follower onto the
        canonical arena (attach) and back onto a private copy (diverge).
        Subclasses that hold additional references — block/head attribute
        objects, flat shard dicts — extend this.
        """
        self.param_buffers[name].array = array
        if self.optimizer is not None and name in self.optimizer.params:
            self.optimizer.params[name] = array

    # -- progress conditions -----------------------------------------------------------

    @property
    def iteration(self) -> int:
        """Next iteration to execute (the checkpointed resume point)."""
        return self._iteration

    @iteration.setter
    def iteration(self, value: int) -> None:
        self._iteration = value
        if self._iteration_waiters:
            still_waiting = []
            for target, event in self._iteration_waiters:
                if value >= target:
                    if not event.triggered:
                        event.succeed(value)
                else:
                    still_waiting.append((target, event))
            self._iteration_waiters = still_waiting

    def iteration_reached(self, target: int):
        """Event that fires once this engine's iteration reaches *target*.

        Already-satisfied targets return an already-succeeded event, so
        callers can ``yield`` it unconditionally.
        """
        event = self.api.env.event(name=f"iter-reached:{target}")
        if self._iteration >= target:
            event.succeed(self._iteration)
        else:
            self._iteration_waiters.append((target, event))
        return event

    # -- parameter plumbing ------------------------------------------------------------

    def _register_params(self, named_arrays: dict[str, np.ndarray],
                         shares: GroupShares, leader=None) -> None:
        """Allocate parameter buffers, the optimizer, and moment buffers.

        *shares* memoises the groups' logical-byte splits (the engine's
        model template owns it).  A replica born bound to *leader*, the
        canonical member of its replica group, allocates its buffers over
        the leader's parameter and moment arrays and builds no optimizer
        of its own: :func:`repro.framework.dedup.attach_job` gives it a
        member proxy over the group's.
        """
        self._shares = shares
        total = self.cost.param_bytes_local
        self.param_buffers = allocate_group(
            self.api, named_arrays, total, BufferKind.PARAM,
            shares=shares("params", named_arrays, total))
        if leader is None:
            params = {name: buf.array
                      for name, buf in self.param_buffers.items()}
            self.optimizer = make_optimizer(self.optimizer_kind, params,
                                            lr=self.base_lr)
            source = self.optimizer
        else:
            source = leader.optimizer
        moments = {}
        for attr in ("m", "v", "velocity"):
            for name, array in getattr(source, attr, {}).items():
                moments[f"{attr}.{name}"] = array
        if moments:
            total = self.cost.optimizer_bytes_local
            self.opt_buffers = allocate_group(
                self.api, moments, total, BufferKind.OPTIMIZER_STATE,
                shares=shares(("moments", self.optimizer_kind), moments,
                              total))

    # -- checkpoint format ----------------------------------------------------------------

    def _snapshot_rng(self, iteration: int) -> None:
        """Record checkpoint metadata for this iteration's RNG.

        The actual stream position is re-derived on-device by the logged
        ``rng_reseed`` kernel (a pure function of the iteration), so the
        snapshot here is bookkeeping: what a checkpoint labelled with this
        iteration carries."""
        if self.rng is not None:
            import copy as _copy

            fresh = type(self.rng)(self.rng.seed, self.rng.stream_key)
            fresh.reseed(iteration)
            self._rng_snapshot = fresh.get_state()
            self._rng_snapshot_iteration = iteration

    def _rng_state_for_checkpoint(self, resume_iteration: int):
        if self.rng is None:
            return None
        if self._rng_snapshot_iteration == resume_iteration:
            return self._rng_snapshot
        # Every iteration begins by reseeding (a pure function of the
        # iteration index), so the resume point's stream state can always
        # be re-derived, however far the live stream has advanced.
        fresh = type(self.rng)(self.rng.seed, self.rng.stream_key)
        fresh.reseed(resume_iteration)
        return fresh.get_state()

    @property
    def applied_iteration(self) -> int:
        """Iterations whose optimizer update has actually executed.

        ``iteration`` counts *enqueued* minibatches: the CPU bumps it when
        it enqueues the optimizer and runs ahead.  If the device dies with
        that optimizer kernel still queued, the parameter arrays are one
        version behind the counter — the paper's Section 3.3 i-vs-i+1
        checkpoint case.  The optimizer's step counter only advances when
        the kernel thunk executes, so it names the version the arrays
        actually hold.
        """
        if self.optimizer is None:
            return self.iteration
        steps = getattr(self.optimizer, "step_count", None)
        if steps is None:
            return self.iteration
        return min(self.iteration, int(steps))

    def state_dict(self) -> dict:
        """CPU-side snapshot of everything needed to resume this shard.

        Labelled with :attr:`applied_iteration`, not the run-ahead
        counter: a checkpoint taken from a device that died mid-optimizer
        honestly claims the version its arrays hold, so checkpoint
        assembly can prefer a replica that got further.
        """
        if self._dedup_arena is not None:
            # Observing a member's state ends its own ride.
            self._dedup_arena.materialize(self)
        applied = self.applied_iteration
        history = list(self.loss_history)
        behind = self.iteration - applied
        if behind > 0 and history:
            # Losses are appended at the enqueue point, ahead of the
            # optimizer kernel; drop the ones past the resume point.
            history = history[:-behind] if behind < len(history) else []
        params = None
        if self._dedup_arena is not None:
            # A deduplicated member whose own optimizer kernel has not yet
            # witnessed the canonical step reports the pre-step arrays.
            params = self._dedup_arena.member_params_snapshot(
                self._dedup_member)
        if params is None:
            params = {name: buf.array.copy()
                      for name, buf in self.param_buffers.items()}
        return {
            "iteration": applied,
            "shard_id": self.shard_id,
            "model": self.config.name,
            "params": params,
            "optimizer": self.optimizer.state_dict(),
            "scheduler": self.scheduler.state_dict(),
            "loss_history": history,
            "rng": self._rng_state_for_checkpoint(applied),
        }

    def load_state_dict(self, state: dict) -> None:
        if self._dedup_arena is not None:
            self._dedup_arena.materialize_all()
        if (self._dedup_arena is not None
                and self._dedup_arena.member_active(self._dedup_member)):
            # Loading foreign state into one member of a shared arena is
            # divergence by definition: materialise a private copy first
            # so the writes below cannot corrupt the group.
            self._dedup_arena.diverge(self._dedup_member)
        if state["shard_id"] != self.shard_id:
            raise ValueError(
                f"checkpoint shard {state['shard_id']!r} does not match "
                f"engine shard {self.shard_id!r}")
        if state["model"] != self.config.name:
            raise ValueError(
                f"checkpoint model {state['model']!r} != {self.config.name!r}")
        for name, value in state["params"].items():
            self.param_buffers[name].array[...] = value
        self.optimizer.load_state_dict(state["optimizer"])
        self.scheduler.load_state_dict(state["scheduler"])
        self.iteration = int(state["iteration"])
        # Engines derive the LR purely from the iteration index
        # (``lr_at``), so pin the scheduler to the resume point regardless
        # of how far the CPU had run ahead when the snapshot was taken.
        self.scheduler.iteration = self.iteration
        self.loss_history = list(state["loss_history"])
        self.restored_at = self.iteration
        if self.rng is not None and state.get("rng") is not None:
            self.rng.set_state(state["rng"])
            self._rng_snapshot = state["rng"]
            self._rng_snapshot_iteration = self.iteration
        if self._dedup_arena is not None:
            # Replicas that restored the same checkpoint are bitwise
            # copies again; the arena re-shares them once all have.
            self._dedup_arena.member_restored(self._dedup_member)

    @property
    def state_bytes(self) -> int:
        """Logical size of one shard checkpoint (params + optimizer)."""
        return self.cost.checkpoint_bytes_local

    @property
    def is_checkpoint_writer(self) -> bool:
        """Does this rank write periodic checkpoints for its shard?

        One data-parallel replica per shard writes; the rest wait at the
        next collective (an emergent barrier).  Subclasses override.
        """
        return True

    # -- iteration-buffer lifecycle ---------------------------------------------------

    def _flush_deferred_frees(self) -> None:
        for bufs in self._deferred_frees:
            for buf in bufs:
                self.api.free(buf)
        self._deferred_frees = []

    def finish(self):
        """Drain the device after the last enqueued iteration."""
        yield from self.api.device_synchronize()
        self._flush_deferred_frees()

    def train(self, num_iterations: int) -> Generator:
        """Run *num_iterations* minibatches; returns the loss history."""
        for _ in range(num_iterations):
            yield from self.train_step()
        yield from self.finish()
        return list(self.loss_history)
