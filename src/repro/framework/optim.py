"""Optimizers over flat dicts of numpy parameters.

The optimizer *step* is the only point where model state mutates — the
invariant the paper's whole recovery strategy leans on (Section 1.1).  The
state dict (returned by :meth:`Optimizer.state_dict`) is exactly what a
checkpoint must capture besides the parameters themselves.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

ParamDict = dict[str, np.ndarray]


class Optimizer:
    """Base: binds a parameter dict and updates it from a gradient dict."""

    def __init__(self, params: ParamDict, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0

    def step(self, grads: ParamDict, lr: Optional[float] = None) -> None:
        effective_lr = self.lr if lr is None else lr
        self.step_count += 1
        self._apply(grads, effective_lr)

    def _apply(self, grads: ParamDict, lr: float) -> None:  # pragma: no cover
        raise NotImplementedError

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {"step_count": self.step_count, "lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        self.step_count = int(state["step_count"])
        self.lr = float(state["lr"])


class Sgd(Optimizer):
    """Plain SGD with optional momentum."""

    def __init__(self, params: ParamDict, lr: float = 1e-3, momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.velocity: ParamDict = {
            name: np.zeros_like(value) for name, value in params.items()
        } if momentum else {}

    def _apply(self, grads: ParamDict, lr: float) -> None:
        for name, param in self.params.items():
            grad = grads[name]
            if self.momentum:
                vel = self.velocity[name]
                vel *= self.momentum
                vel += grad
                grad = vel
            param -= lr * grad

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["momentum"] = self.momentum
        state["velocity"] = {k: v.copy() for k, v in self.velocity.items()}
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.momentum = state["momentum"]
        for name, value in state["velocity"].items():
            self.velocity[name][...] = value


@functools.lru_cache(maxsize=256)
def _flat_layout(shapes: tuple) -> tuple[dict, int]:
    """name -> (slice, shape) of each parameter in a flat moment arena,
    and the arena's size, for *shapes* ((name, shape) pairs): one layout
    per parameter set per process, shared read-only by its optimizers."""
    views: dict[str, tuple[slice, tuple[int, ...]]] = {}
    total = 0
    for name, shape in shapes:
        size = math.prod(shape)
        views[name] = (slice(total, total + size), shape)
        total += size
    return views, total


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, params: ParamDict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        # Moment state lives in one contiguous arena per moment; self.m /
        # self.v expose per-param views so state_dict()/load_state_dict()
        # and external readers (checkpoint capture) see ordinary dicts.
        # The arena lets _apply run most of the update as a handful of
        # whole-arena ufuncs instead of ~14 tiny ufunc calls per parameter
        # — every op is elementwise, so values are bit-for-bit identical
        # to the per-param formulation.
        self._views, total = _flat_layout(
            tuple([(name, value.shape) for name, value in params.items()]))
        self._flat_m = np.zeros(total)
        self._flat_v = np.zeros(total)
        self.m = self._view_dict(self._flat_m)
        self.v = self._view_dict(self._flat_v)
        # Step scratch, made by the first step: many optimizers (a
        # restarted generation's initial one, a replica's private copy
        # before it re-shares) never step.
        self._grad_s = self._grad_t = None

    def _view_dict(self, flat: np.ndarray) -> ParamDict:
        return {name: flat[idx].reshape(shape)
                for name, (idx, shape) in self._views.items()}

    def _apply(self, grads: ParamDict, lr: float) -> None:
        # In-place formulation of
        #   m = b1*m + (1-b1)*grad
        #   v = b2*v + ((1-b2)*grad)*grad
        #   param -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)
        # Scalar multiplication commutes exactly in IEEE-754 and the
        # original left-to-right association is preserved, so the
        # checkpoint/replay equivalence oracles see identical parameter
        # streams.
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        if self._grad_s is None:
            self._flat_s = np.empty(self._flat_m.size)
            self._flat_t = np.empty(self._flat_m.size)
            self._grad_s = self._view_dict(self._flat_s)
            self._grad_t = self._view_dict(self._flat_t)
        m, v, s, t = self._flat_m, self._flat_v, self._flat_s, self._flat_t
        for name in self.params:
            grad = grads[name]
            np.multiply(grad, 1 - b1, out=self._grad_s[name])
            gt = self._grad_t[name]
            np.multiply(grad, 1 - b2, out=gt)
            gt *= grad
        m *= b1
        m += s
        v *= b2
        v += t
        np.divide(m, bias1, out=s)
        s *= lr
        np.divide(v, bias2, out=t)
        np.sqrt(t, out=t)
        t += self.eps
        s /= t
        for name, param in self.params.items():
            param -= self._grad_s[name]

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            beta1=self.beta1, beta2=self.beta2, eps=self.eps,
            m={k: v.copy() for k, v in self.m.items()},
            v={k: v.copy() for k, v in self.v.items()},
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.beta1, self.beta2, self.eps = state["beta1"], state["beta2"], state["eps"]
        for name, value in state["m"].items():
            self.m[name][...] = value
        for name, value in state["v"].items():
            self.v[name][...] = value


class AdamW(Adam):
    """Adam with decoupled weight decay."""

    def __init__(self, params: ParamDict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.01):
        super().__init__(params, lr, beta1, beta2, eps)
        self.weight_decay = weight_decay

    def _apply(self, grads: ParamDict, lr: float) -> None:
        for param in self.params.values():
            param *= 1.0 - lr * self.weight_decay
        super()._apply(grads, lr)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["weight_decay"] = self.weight_decay
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.weight_decay = state["weight_decay"]


#: Optimizer registry.  Packages that layer extra optimizers on top of
#: the framework (e.g. ``repro.core.swift``'s invertible SGD) register
#: here instead of importing into this module, which would be circular.
OPTIMIZER_KINDS: dict[str, Callable[..., Optimizer]] = {
    "sgd": Sgd, "adam": Adam, "adamw": AdamW,
}


def register_optimizer(kind: str, factory: Callable[..., Optimizer]) -> None:
    """Register *factory* under *kind* for :func:`make_optimizer`."""
    existing = OPTIMIZER_KINDS.get(kind)
    if existing is not None and existing is not factory:
        raise ValueError(f"optimizer kind {kind!r} already registered")
    OPTIMIZER_KINDS[kind] = factory


def make_optimizer(kind: str, params: ParamDict, lr: float = 1e-3) -> Optimizer:
    """Factory used by workload configs ("sgd" / "adam" / "adamw" / ...)."""
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(
            f"unknown optimizer {kind!r}; choose from {sorted(OPTIMIZER_KINDS)}")
    return OPTIMIZER_KINDS[kind](params, lr=lr)
