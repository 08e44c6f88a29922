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

Two sharing levels:

* **Arena sharing** (all engines): parameters and optimizer moments are
  one canonical allocation; the optimizer step — whose inputs are bitwise
  identical across the group after the gradient all-reduce — executes once
  and every member merely *witnesses* it.  A one-step undo snapshot keeps
  mid-iteration laggards honest: a member whose own optimizer kernel has
  not yet executed still reports the pre-step state from
  ``state_dict()`` (the Section 3.3 i-vs-i+1 checkpoint case).
* **Group math** (pure DDP, no dropout): forward/backward thunks memoise
  full-batch computation; each rank's loss is its row-slice of the shared
  result.  The reduced (mean) gradient is written straight into the shared
  gradient arena, which turns the simulated all-reduce's data application
  into an object-identity no-op (timing is untouched — the rendezvous
  still pays every simulated nanosecond).

Sharing is *copy-on-write*: the moment a rank diverges — its GPU bumps
its epoch (failure, driver reset), or state is loaded into it — the
member materialises a private copy of everything at the version it
witnessed and leaves the group; ``dedup_epoch`` counts these transitions
so post-recovery re-convergence can re-share via :meth:`ReplicaArena.readmit`.

The contract is bitwise equivalence: losses, simulated clocks, and
logical event counts match dedup-off exactly, including mid-iteration
failure settlement.  The switch is :data:`repro.flags.dedup`
(``REPRO_DEDUP=0`` to disable), read when a job is built.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import flags

try:
    # Same C kernel np.einsum dispatches to, minus its Python-level
    # subscript parsing (~1us per call); bitwise-identical output.
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover - older numpy layouts
    _einsum = np.einsum


def attach_job(job) -> list["ReplicaArena"]:
    """Share replica arenas across *job*'s data-parallel groups.

    No-op (returns ``[]``) when dedup is disabled, when any rank sits
    behind an interception API (managed JIT/periodic runs intercept the
    very device calls the memo elides — their per-rank replay logs must
    stay materialised), or when no group has two or more members (pure
    model-parallel or fully-sharded jobs have no redundancy to exploit).

    Group math additionally requires pure DDP without stochastic ops:
    dropout draws a per-rank RNG stream, so replicas stop being bitwise
    copies of one another below the all-reduce.
    """
    if not flags.dedup:
        return []
    from repro.parallel.deviceapi import DeviceApi

    if any(type(api) is not DeviceApi for api in job.apis):
        return []
    arenas = []
    for ranks, group_math in job.dedup_groups():
        if len(ranks) < 2:
            continue
        engines = [job.engines[rank] for rank in ranks]
        arenas.append(ReplicaArena(engines, group_math=group_math))
    return arenas


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
        self._arena = arena
        self._member = member
        #: After divergence the engine swaps in a real optimizer; calls
        #: still in flight on this proxy delegate to it.
        self._materialized = None

    def _real(self):
        return self._materialized

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


class ReplicaArena:
    """One canonical parameter/gradient/moment arena for a DP group."""

    def __init__(self, engines: list, group_math: bool = False):
        if len(engines) < 2:
            raise ValueError("a replica arena needs at least two members")
        self.engines = list(engines)
        self.group_math = bool(group_math)
        #: Bumped on every diverge *and* readmit, so observers can tell
        #: whether the sharing set changed since they last looked.
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
        self.grad_arrays = {name: np.zeros_like(array)
                            for name, array in self.params.items()
                            } if group_math else None
        #: iteration -> memoised group-math results; two iterations are
        #: kept live (the CPU runs at most one iteration ahead of the
        #: device — the all-reduce rendezvous is a per-iteration barrier).
        self._memo: dict[int, dict] = {}
        for member, engine in enumerate(self.engines):
            engine._dedup_arena = self
            engine._dedup_member = member
            if member > 0:
                self._bind_member(engine)
            engine.optimizer = MemberOptimizer(self, member)
            # Any epoch transition on the member's GPU (failure, driver
            # reset) is the copy-on-write trigger.
            engine.api.ctx.gpu.on_epoch.append(
                lambda m=member: self.diverge(m))

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

    def member_active(self, member: int) -> bool:
        return self.active[member]

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
        for name, array in private.items():
            engine._rebind_param(name, array)
        from repro.framework.optim import make_optimizer

        optimizer = make_optimizer(engine.optimizer_kind, private,
                                   lr=engine.base_lr)
        optimizer.load_state_dict(opt_state)
        proxy = engine.optimizer
        if isinstance(proxy, MemberOptimizer):
            proxy._materialized = optimizer
        engine.optimizer = optimizer
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
        moment, or the step count differs from the canonical arena — the
        caller decides whether to retry after further re-convergence.
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
            if not np.array_equal(optimizer.params[name], array):
                return False
        for attr in ("m", "v", "velocity"):
            canon = getattr(self.optimizer, attr, {})
            mine = getattr(optimizer, attr, {})
            for name, array in canon.items():
                if not np.array_equal(mine[name], array):
                    return False
        self._bind_member(engine)
        proxy = MemberOptimizer(self, member)
        engine.optimizer = proxy
        self.active[member] = True
        self.witnessed[member] = self.steps_applied
        self.dedup_epoch += 1
        return True

    # -- group math (pure DDP) --------------------------------------------

    def _step_memo(self, iteration: int) -> dict:
        memo = self._memo.get(iteration)
        if memo is None:
            memo = self._memo[iteration] = {}
            for old in [it for it in self._memo if it < iteration - 1]:
                del self._memo[old]
        return memo

    def member_shard(self, iteration: int, member: int, dataset):
        """This member's row-slice of the memoised global minibatch."""
        memo = self._step_memo(iteration)
        batch = memo.get("batch")
        if batch is None:
            batch = memo["batch"] = dataset.global_minibatch(iteration)
        x, y = batch
        world = len(self.engines)
        per_rank = x.shape[0] // world
        lo = member * per_rank
        return x[lo:lo + per_rank], y[lo:lo + per_rank]

    def group_forward(self, iteration: int, index: int, block) -> None:
        """Forward for layer *index*, computed once on the full batch.

        Row ``r`` of every op in :mod:`repro.framework.layers` /
        :mod:`repro.framework.attention` depends only on row ``r`` of the
        input, so the row-slices of the shared activations are bitwise
        what each rank would have computed from its shard.
        """
        memo = self._step_memo(iteration)
        key = ("fwd", index)
        if key in memo:
            return
        src = (memo[("fwd", index - 1)][0] if index > 0
               else memo["batch"][0])
        memo[key] = block.forward(src)

    def group_head_loss(self, iteration: int, member: int, head,
                        n_blocks: int) -> float:
        """Member's shard loss from the shared full-batch softmax."""
        memo = self._step_memo(iteration)
        probs = memo.get("head_probs")
        if probs is None:
            src = memo[("fwd", n_blocks - 1)][0]
            labels = memo["batch"][1]
            logits = src @ head.w + head.b
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            probs = memo["head_probs"] = exp / exp.sum(axis=1, keepdims=True)
            memo["head_src"] = src
        labels = memo["batch"][1]
        world = len(self.engines)
        per_rank = probs.shape[0] // world
        lo = member * per_rank
        rows = np.arange(per_rank)
        picked = probs[lo:lo + per_rank][rows, labels[lo:lo + per_rank]]
        return float(-np.log(picked + 1e-30).mean())

    def group_head_backward(self, iteration: int, head,
                            n_blocks: int) -> None:
        """Head backward once; reduced grads land in the shared arena."""
        memo = self._step_memo(iteration)
        if "head_bwd" in memo:
            return
        probs, labels = memo["head_probs"], memo["batch"][1]
        src = memo["head_src"]
        world = len(self.engines)
        batch = probs.shape[0]
        per_rank = batch // world
        # Replicates softmax_cross_entropy's gradient with the *per-shard*
        # normalisation each rank applies to its own slice.
        dlogits = probs.copy()
        dlogits[np.arange(batch), labels] -= 1.0
        dlogits /= per_rank
        memo[("dy", n_blocks - 1)] = dlogits @ head.w.T
        d3 = dlogits.reshape(world, per_rank, -1)
        s3 = src.reshape(world, per_rank, -1)
        self._reduce_into("head.w", np.matmul(s3.transpose(0, 2, 1), d3))
        self._reduce_into("head.b", d3.sum(axis=1))
        memo["head_bwd"] = True

    def group_block_backward(self, iteration: int, index: int, block) -> None:
        """Backward for layer *index* once, with batched per-member grads.

        The dx chain is computed on the full batch (row-wise bitwise with
        per-shard backward); the per-parameter gradients — the only
        reductions that cross the batch axis — are computed per member
        via a batched leading axis and mean-reduced into the arena.
        """
        memo = self._step_memo(iteration)
        key = ("bwd", index)
        if key in memo:
            return
        dy = memo[("dy", index)]
        cache = memo[("fwd", index)][1]
        if hasattr(block, "w1"):
            dx = self._mlp_backward(index, block, dy, cache)
        else:
            dx = self._attention_backward(index, block, dy, cache)
        memo[("dy", index - 1)] = dx
        memo[key] = True

    def _split(self, array: np.ndarray) -> np.ndarray:
        """View ``(batch, ...)`` as ``(world, per_rank, ...)``."""
        world = len(self.engines)
        return array.reshape((world, array.shape[0] // world)
                             + array.shape[1:])

    def _mlp_backward(self, index: int, block, dy, cache) -> np.ndarray:
        # Same float sequence as MlpBlockParams.backward_full on the full
        # batch; weight grads use a batched member axis (verified bitwise
        # against the per-slice matmuls).
        from repro.framework.layers import gelu_grad

        x, pre, h = cache["x"], cache["pre"], cache["h"]
        dh = dy @ block.w2.T
        dpre = dh * gelu_grad(pre)
        dx = dpre @ block.w1.T
        dx = dx + dy  # residual connection (backward_full)
        h3, dy3 = self._split(h), self._split(dy)
        x3, dpre3 = self._split(x), self._split(dpre)
        self._reduce_into(f"layer{index}.w2",
                          np.matmul(h3.transpose(0, 2, 1), dy3))
        self._reduce_into(f"layer{index}.b2", dy3.sum(axis=1))
        self._reduce_into(f"layer{index}.w1",
                          np.matmul(x3.transpose(0, 2, 1), dpre3))
        self._reduce_into(f"layer{index}.b1", dpre3.sum(axis=1))
        return dx

    def _attention_backward(self, index: int, block, dy, cache) -> np.ndarray:
        # Mirrors AttentionBlockParams.backward_full: every op except the
        # weight-grad einsums is per-sample, so the full-batch chain is
        # row-wise bitwise; the weight grads get a batched member axis.
        batch = dy.shape[0]
        seq, heads = block.seq_len, block.n_heads_local
        d_head = block.d_head
        tokens, q, k, v = cache["tokens"], cache["q"], cache["k"], cache["v"]
        attn, context_flat = cache["attn"], cache["context_flat"]
        dy_tokens = dy.reshape(batch, seq, -1)
        dcontext = (dy_tokens @ block.wo.T).reshape(batch, seq, heads, d_head)
        dattn = _einsum("bshd,bthd->bhst", dcontext, v)
        dv = _einsum("bhst,bshd->bthd", attn, dcontext)
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= np.sqrt(d_head)
        dq = _einsum("bhst,bthd->bshd", dscores, k)
        dk = _einsum("bhst,bshd->bthd", dscores, q)
        dq_flat = dq.reshape(batch, seq, -1)
        dk_flat = dk.reshape(batch, seq, -1)
        dv_flat = dv.reshape(batch, seq, -1)
        t4, c4, y4 = self._split(tokens), self._split(context_flat), \
            self._split(dy_tokens)
        self._reduce_into(f"layer{index}.bo", y4.sum(axis=(1, 2)))
        self._reduce_into(f"layer{index}.wo",
                          _einsum("rbse,rbsf->ref", c4, y4))
        self._reduce_into(f"layer{index}.wq",
                          _einsum("rbse,rbsf->ref", t4, self._split(dq_flat)))
        self._reduce_into(f"layer{index}.wk",
                          _einsum("rbse,rbsf->ref", t4, self._split(dk_flat)))
        self._reduce_into(f"layer{index}.wv",
                          _einsum("rbse,rbsf->ref", t4, self._split(dv_flat)))
        dtokens = dq_flat @ block.wq.T + dk_flat @ block.wk.T \
            + dv_flat @ block.wv.T
        return dtokens.reshape(batch, -1) + dy

    def _reduce_into(self, name: str, member_grads: np.ndarray) -> None:
        """Mean-reduce stacked per-member grads into the shared arena.

        ``member_grads`` is the contiguous ``(world, ...)`` batch whose
        slices are bitwise each rank's gradient; its ``mean(axis=0)``
        walks the same float sequence as the simulated all-reduce's
        ``np.stack([...]).mean(axis=0)``, so the collective's subsequent
        data application is an exact identity (and is skipped via the
        object-identity fast path in :mod:`repro.nccl.rendezvous`).
        """
        # add.reduce + in-place divide is bitwise np.mean (same umath sum
        # then true_divide) with about half the Python dispatch overhead.
        out = self.grad_arrays[name]
        np.add.reduce(member_grads, axis=0, out=out)
        out /= member_grads.shape[0]
