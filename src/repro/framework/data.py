"""Deterministic synthetic training data.

The dataset is *stateless*: the minibatch for (seed, iteration) is a pure
function, so a restarted worker resuming at iteration ``i`` reads exactly
the bytes it would have read in a failure-free run.  That is what makes
"redo at most one minibatch" semantically exact rather than approximate.

Labels are a fixed deterministic function of the inputs (a random but
frozen linear teacher), so training loss genuinely decreases and loss
curves are meaningful for the semantics-preservation experiments.

Being pure, both are shared rather than recomputed: the teacher is drawn
once per process for each (seed, features, classes), and a dataset keeps
its newest global minibatch, so every rank of a job slices the one batch
the iteration draws.  Both come back read-only.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=64)
def _teacher(seed: int, n_features: int, n_classes: int) -> np.ndarray:
    teacher_rng = np.random.Generator(np.random.Philox(key=seed, counter=2**63))
    teacher = teacher_rng.standard_normal((n_features, n_classes))
    teacher.flags.writeable = False
    return teacher


class SyntheticDataset:
    """Classification batches: ``x ~ N(0,1)``, ``y = argmax(x @ T)``."""

    def __init__(self, seed: int, n_features: int, n_classes: int,
                 global_batch: int):
        self.seed = seed
        self.n_features = n_features
        self.n_classes = n_classes
        self.global_batch = global_batch
        self._teacher = _teacher(seed, n_features, n_classes)
        #: (iteration, x, y) of the newest batch drawn.
        self._newest: tuple = (None, None, None)

    def global_minibatch(self, iteration: int) -> tuple[np.ndarray, np.ndarray]:
        """The full (un-sharded) batch for *iteration*, read-only."""
        newest, x, y = self._newest
        if newest == iteration:
            return x, y
        rng = np.random.Generator(np.random.Philox(key=self.seed,
                                                   counter=iteration))
        x = rng.standard_normal((self.global_batch, self.n_features))
        y = np.argmax(x @ self._teacher, axis=1)
        x.flags.writeable = False
        y.flags.writeable = False
        self._newest = (iteration, x, y)
        return x, y

    def shard(self, iteration: int, dp_rank: int,
              dp_world: int) -> tuple[np.ndarray, np.ndarray]:
        """This data-parallel rank's equal slice of the global batch."""
        if self.global_batch % dp_world:
            raise ValueError(
                f"global batch {self.global_batch} not divisible by dp={dp_world}")
        x, y = self.global_minibatch(iteration)
        per_rank = self.global_batch // dp_world
        lo = dp_rank * per_rank
        return x[lo:lo + per_rank], y[lo:lo + per_rank]

    def microbatches(self, iteration: int, dp_rank: int, dp_world: int,
                     n_micro: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split this rank's shard into pipeline microbatches."""
        x, y = self.shard(iteration, dp_rank, dp_world)
        if len(x) % n_micro:
            raise ValueError(
                f"per-rank batch {len(x)} not divisible by {n_micro} microbatches")
        return [
            (xs, ys)
            for xs, ys in zip(np.split(x, n_micro), np.split(y, n_micro))
        ]
