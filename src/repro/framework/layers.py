"""Layer math: residual MLP blocks and a classification head.

Pure numpy functions with explicit caches, organised so that tensor
parallelism can split them exactly:

* the block's first linear is *column parallel* (each TP rank holds a
  contiguous slice of hidden units),
* the second linear is *row parallel* (each rank holds the matching slice
  of rows) producing a partial output that the TP all-reduce sums,
* the residual and second bias are applied once, after the reduction.

With that split, TP-sharded math is numerically identical to the unsharded
computation up to float summation order, which our parallel-engine tests
pin down.

Forward and backward passes also split *data* parallelism exactly:
given a member count ``k``, every 2-D product is one BLAS call per
member's rows (:func:`member_matmul`) and the weight- and bias-gradient
reductions run over a leading member axis, so one call on a replica
group's full batch returns every member's activations, loss and
gradient, bitwise what each would compute from its row-shard
(:mod:`repro.framework.dedup` relies on this).  A product over the whole
batch would not do: BLAS gives no row-independent bits across row
counts (a one-row product takes the gemv path, and at some shapes a
narrow output differs even at two rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU (the variant GPT-2 uses)."""
    # x*x*x instead of x**3: float64 pow takes the generic libm path
    # (~20x slower than two multiplies) for these kernel-sized arrays.
    return 0.5 * x * (1.0 + np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    x_sq = x * x
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x_sq * x))
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner * tanh_inner
    d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x_sq)
    return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner


def members(array: np.ndarray, k: int) -> np.ndarray:
    """View ``(rows, ...)`` as ``(k, rows // k, ...)``: the member axis.

    Member ``r`` of a ``k``-member batch owns rows ``r * rows // k`` up
    to ``(r + 1) * rows // k``, the row-shard a data-parallel rank holds.
    """
    return array.reshape((k, array.shape[0] // k) + array.shape[1:])


def member_matmul(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """``a @ b`` for 2-D *a*, one BLAS call per member's rows of *a*.

    Each member's rows multiply exactly as its row-shard alone would.
    """
    return np.matmul(members(a, k), b).reshape(a.shape[0], b.shape[1])


def per_member(grads: dict[str, np.ndarray],
               k: int) -> dict[str, np.ndarray]:
    """``k``-stacked gradients; with ``k == 1`` the one member's, unstacked."""
    return grads if k > 1 else {name: grad[0] for name, grad in grads.items()}


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                          k: int = 1) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy loss and gradient w.r.t. logits.

    The gradient is already divided by the batch size, so summing
    per-sample contributions across data-parallel shards and averaging
    (all-reduce MEAN over equal shards) reproduces the full-batch gradient.

    With ``k`` members (see :func:`members`) the loss is one mean per
    member, an array of ``k``, and the gradient is divided by the
    per-member batch ``n // k``: each member's rows are what that member
    would compute alone.  ``k == 1`` returns the loss as a float.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    nll = -np.log(probs[rows, labels] + 1e-30)
    losses = members(nll, k).mean(axis=1)
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    grad /= logits.shape[0] // k
    return (float(losses[0]) if k == 1 else losses), grad


@dataclass
class MlpBlockParams:
    """One (possibly TP-sharded) residual MLP block's parameters.

    ``y = x + gelu(x W1 + b1) W2 + b2``.  Exposes the same instance-method
    protocol as :class:`~repro.framework.attention.AttentionBlockParams`,
    so engines dispatch polymorphically over heterogeneous block stacks.
    """

    w1: np.ndarray   # (D, H_local) column-parallel
    b1: np.ndarray   # (H_local,)
    w2: np.ndarray   # (H_local, D) row-parallel
    b2: np.ndarray   # (D,) replicated; applied post-reduction

    def names(self) -> list[str]:
        return ["w1", "b1", "w2", "b2"]

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    @staticmethod
    def tp_replicated_param_names() -> tuple[str, ...]:
        return ("b2",)

    @classmethod
    def init_params(cls, rng: np.random.Generator, d_model: int, hidden: int,
                    tp_rank: int = 0, tp_world: int = 1) -> "MlpBlockParams":
        """Initialise the TP shard for (tp_rank, tp_world).

        The full weight matrices are drawn first and then sliced, so every
        TP degree sees the same underlying full model.
        """
        if hidden % tp_world:
            raise ValueError(f"hidden={hidden} not divisible by tp={tp_world}")
        w1_full = rng.standard_normal((d_model, hidden)) * (1.0 / np.sqrt(d_model))
        b1_full = np.zeros(hidden)
        w2_full = rng.standard_normal((hidden, d_model)) * (1.0 / np.sqrt(hidden))
        b2 = np.zeros(d_model)
        shard = slice(tp_rank * hidden // tp_world, (tp_rank + 1) * hidden // tp_world)
        return cls(w1=w1_full[:, shard].copy(), b1=b1_full[shard].copy(),
                   w2=w2_full[shard, :].copy(), b2=b2)

    def forward_partial(self, x: np.ndarray,
                        k: int = 1) -> tuple[np.ndarray, dict]:
        """Compute this shard's partial output (before TP reduction).

        Returns the partial ``h @ W2`` (no bias, no residual) plus cache.
        With ``k`` members each member's rows are its own (:func:`members`).
        """
        pre = member_matmul(x, self.w1, k) + self.b1
        h = gelu(pre)
        partial = member_matmul(h, self.w2, k)
        cache = {"x": x, "pre": pre, "h": h}
        return partial, cache

    def finish_forward(self, x: np.ndarray, reduced: np.ndarray) -> np.ndarray:
        """Apply bias and residual after the partial outputs were summed."""
        return reduced + self.b2 + x

    def forward(self, x: np.ndarray, k: int = 1) -> tuple[np.ndarray, dict]:
        """Unsharded forward (tp_world == 1 fast path)."""
        partial, cache = self.forward_partial(x, k)
        return self.finish_forward(x, partial), cache

    def backward(self, dy: np.ndarray, cache: dict,
                 k: int = 1) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Backward through one shard.

        ``dy`` is the gradient of the block output (same for every TP rank,
        since the output was all-reduced).  Returns this shard's partial
        ``dx`` — TP ranks must sum their ``dx`` contributions *excluding*
        the residual, which is added once by the caller — and parameter
        gradients.  For the unsharded path use :meth:`backward_full`.

        ``dx`` covers every row; each gradient is stacked over ``k``
        members, member ``r`` reducing only its own rows (:func:`members`).
        """
        h = cache["h"]
        pre = cache["pre"]
        x = cache["x"]
        dh = member_matmul(dy, self.w2.T, k)
        dpre = dh * gelu_grad(pre)
        dy3, dpre3 = members(dy, k), members(dpre, k)
        grads = {"w2": np.matmul(members(h, k).transpose(0, 2, 1), dy3),
                 "b2": dy3.sum(axis=1),
                 "w1": np.matmul(members(x, k).transpose(0, 2, 1), dpre3),
                 "b1": dpre3.sum(axis=1)}
        dx_partial = member_matmul(dpre, self.w1.T, k)
        return dx_partial, per_member(grads, k)

    def backward_full(self, dy: np.ndarray, cache: dict,
                      k: int = 1) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Unsharded backward: adds the residual path to dx."""
        dx_partial, grads = self.backward(dy, cache, k)
        return dx_partial + dy, grads


@dataclass
class OutputHeadParams:
    w: np.ndarray   # (D, C)
    b: np.ndarray   # (C,)

    def names(self) -> list[str]:
        return ["w", "b"]

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}


class OutputHead:
    """Classification head: logits plus softmax cross-entropy loss."""

    @staticmethod
    def init_params(rng: np.random.Generator, d_model: int,
                    n_classes: int) -> OutputHeadParams:
        w = rng.standard_normal((d_model, n_classes)) * (1.0 / np.sqrt(d_model))
        return OutputHeadParams(w=w, b=np.zeros(n_classes))

    @staticmethod
    def forward(x: np.ndarray, params: OutputHeadParams, labels: np.ndarray,
                k: int = 1) -> tuple[float | np.ndarray, dict]:
        """Loss (one per member, see :func:`softmax_cross_entropy`) and cache."""
        logits = member_matmul(x, params.w, k) + params.b
        loss, dlogits = softmax_cross_entropy(logits, labels, k)
        cache = {"x": x, "dlogits": dlogits}
        return loss, cache

    @staticmethod
    def backward(cache: dict, params: OutputHeadParams,
                 k: int = 1) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        x, dlogits = cache["x"], cache["dlogits"]
        d3 = members(dlogits, k)
        grads = {"w": np.matmul(members(x, k).transpose(0, 2, 1), d3),
                 "b": d3.sum(axis=1)}
        dx = member_matmul(dlogits, params.w.T, k)
        return dx, per_member(grads, k)
