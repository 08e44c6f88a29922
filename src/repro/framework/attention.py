"""Multi-head self-attention block with exact tensor-parallel sharding.

Each sample's feature vector of width ``D`` is viewed as a short token
sequence ``(S, E)`` with ``S * E = D``; attention runs *within* the
sample, so samples stay independent (data parallelism over the batch is
exact).  Sharding follows the Megatron split the paper's 3D workloads
use: attention heads are partitioned across TP ranks (Q/K/V projections
column-sharded by head), each rank runs attention for its heads locally,
and the output projection is row-sharded producing partial sums that the
TP all-reduce combines — after which the bias and residual are applied
once.  Sharded math equals the unsharded computation up to float
summation order, like :class:`~repro.framework.layers.MlpBlockParams`,
and backward takes the same member count ``k`` for data-parallel groups.

Shapes are semantic-scale (a couple of tokens, a few heads); the cost
model still charges logical transformer FLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.framework.layers import members, per_member

try:
    # The C kernel np.einsum calls when ``optimize`` is off, minus its
    # Python-level dispatch (~1us per call); bitwise-identical output.
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:  # pragma: no cover - older numpy layouts
    einsum = np.einsum


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass
class AttentionBlockParams:
    """One (possibly TP-sharded) self-attention block's parameters.

    ``wq/wk/wv`` are ``(E, H_local * d_head)`` column-parallel by head,
    ``wo`` is ``(H_local * d_head, E)`` row-parallel, and ``bo`` (shape
    ``E``, applied per token) is replicated — added once, after the TP
    reduction.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    seq_len: int
    n_heads_local: int
    d_head: int

    def names(self) -> list[str]:
        return ["wq", "wk", "wv", "wo", "bo"]

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.names()}

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.names()]

    @staticmethod
    def tp_replicated_param_names() -> tuple[str, ...]:
        return ("bo",)

    # -- initialisation ----------------------------------------------------------

    @classmethod
    def init_params(cls, rng: np.random.Generator, d_model: int,
                    n_heads: int, seq_len: int = 2, tp_rank: int = 0,
                    tp_world: int = 1) -> "AttentionBlockParams":
        """Initialise the TP shard for (tp_rank, tp_world).

        The full projections are drawn first and sliced by head, so every
        TP degree trains the same underlying network.
        """
        if d_model % seq_len:
            raise ValueError(f"d_model={d_model} not divisible by "
                             f"seq_len={seq_len}")
        embed = d_model // seq_len
        if embed % n_heads:
            raise ValueError(f"embed={embed} not divisible by "
                             f"n_heads={n_heads}")
        if n_heads % tp_world:
            raise ValueError(f"{n_heads} heads not divisible by tp={tp_world}")
        d_head = embed // n_heads
        scale = 1.0 / np.sqrt(embed)
        wq = rng.standard_normal((embed, embed)) * scale
        wk = rng.standard_normal((embed, embed)) * scale
        wv = rng.standard_normal((embed, embed)) * scale
        wo = rng.standard_normal((embed, embed)) * scale
        bo = np.zeros(embed)
        heads_local = n_heads // tp_world
        cols = slice(tp_rank * heads_local * d_head,
                     (tp_rank + 1) * heads_local * d_head)
        return cls(wq=wq[:, cols].copy(), wk=wk[:, cols].copy(),
                   wv=wv[:, cols].copy(), wo=wo[cols, :].copy(), bo=bo,
                   seq_len=seq_len, n_heads_local=heads_local, d_head=d_head)

    # -- forward -------------------------------------------------------------------

    def forward_partial(self, x: np.ndarray,
                        k: int = 1) -> tuple[np.ndarray, dict]:
        """This shard's partial output (pre-bias, pre-residual).

        ``x`` is ``(B, D)``; internally ``(B, S, E)``, attention over S.
        Every product is already one BLAS call per sample, so a member
        count ``k`` changes nothing.
        """
        batch = x.shape[0]
        seq, heads, d_head = self.seq_len, self.n_heads_local, self.d_head
        tokens = x.reshape(batch, seq, -1)
        q = (tokens @ self.wq).reshape(batch, seq, heads, d_head)
        keys = (tokens @ self.wk).reshape(batch, seq, heads, d_head)
        v = (tokens @ self.wv).reshape(batch, seq, heads, d_head)
        scores = einsum("bshd,bthd->bhst", q, keys) / np.sqrt(d_head)
        attn = _softmax(scores)
        context = einsum("bhst,bthd->bshd", attn, v)
        context_flat = context.reshape(batch, seq, heads * d_head)
        partial = (context_flat @ self.wo).reshape(batch, -1)
        cache = {"x": x, "tokens": tokens, "q": q, "k": keys, "v": v,
                 "attn": attn, "context_flat": context_flat}
        return partial, cache

    def finish_forward(self, x: np.ndarray, reduced: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        with_bias = reduced.reshape(batch, self.seq_len, -1) + self.bo
        return with_bias.reshape(batch, -1) + x

    def forward(self, x: np.ndarray, k: int = 1) -> tuple[np.ndarray, dict]:
        partial, cache = self.forward_partial(x, k)
        return self.finish_forward(x, partial), cache

    # -- backward ----------------------------------------------------------------------

    def backward(self, dy: np.ndarray, cache: dict,
                 k: int = 1) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Backward through this shard; returns (dx_partial, grads).

        ``dy`` is the (TP-identical) gradient of the block output.  The
        returned ``dx_partial`` excludes the residual path, which the
        caller adds once after the TP reduction.  Each gradient is stacked
        over ``k`` members, as in
        :meth:`~repro.framework.layers.MlpBlockParams.backward`.
        """
        batch = dy.shape[0]
        seq, heads, d_head = self.seq_len, self.n_heads_local, self.d_head
        tokens4 = members(cache["tokens"], k)
        q, keys, v, attn = cache["q"], cache["k"], cache["v"], cache["attn"]
        dy_tokens = dy.reshape(batch, seq, -1)
        dy4 = members(dy_tokens, k)
        grads: dict[str, np.ndarray] = {}

        grads["bo"] = dy4.sum(axis=(1, 2))
        context4 = members(cache["context_flat"], k)
        grads["wo"] = einsum("rbse,rbsf->ref", context4, dy4)
        dcontext = (dy_tokens @ self.wo.T).reshape(batch, seq, heads, d_head)

        # context = einsum('bhst,bthd->bshd', attn, v)
        dattn = einsum("bshd,bthd->bhst", dcontext, v)
        dv = einsum("bhst,bshd->bthd", attn, dcontext)
        # softmax backward over the last axis.
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores /= np.sqrt(d_head)
        # scores = einsum('bshd,bthd->bhst', q, k)
        dq = einsum("bhst,bthd->bshd", dscores, keys)
        dk = einsum("bhst,bshd->bthd", dscores, q)

        dq_flat = dq.reshape(batch, seq, -1)
        dk_flat = dk.reshape(batch, seq, -1)
        dv_flat = dv.reshape(batch, seq, -1)
        grads["wq"] = einsum("rbse,rbsf->ref", tokens4, members(dq_flat, k))
        grads["wk"] = einsum("rbse,rbsf->ref", tokens4, members(dk_flat, k))
        grads["wv"] = einsum("rbse,rbsf->ref", tokens4, members(dv_flat, k))
        dtokens = (dq_flat @ self.wq.T + dk_flat @ self.wk.T
                   + dv_flat @ self.wv.T)
        return dtokens.reshape(batch, -1), per_member(grads, k)

    def backward_full(self, dy: np.ndarray, cache: dict,
                      k: int = 1) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        dx_partial, grads = self.backward(dy, cache, k)
        return dx_partial + dy, grads
