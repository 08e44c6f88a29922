"""Deterministic synthetic training data.

The dataset is *stateless*: the minibatch for (seed, iteration) is a pure
function, so a restarted worker resuming at iteration ``i`` reads exactly
the bytes it would have read in a failure-free run.  That is what makes
"redo at most one minibatch" semantically exact rather than approximate.

Labels are a fixed deterministic function of the inputs (a random but
frozen linear teacher), so training loss genuinely decreases and loss
curves are meaningful for the semantics-preservation experiments.

Being pure, both are shared rather than recomputed: the teacher is drawn
once per process for each (seed, features, classes), and each global
minibatch once per process for each (seed, features, classes, global
batch, iteration), so every rank of a job, and every restarted generation,
oracle check and campaign scenario of the same workload, slices the one
batch the iteration drew.  Both come back read-only.
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


# 256 batches cover every iteration the oracle's and campaigns' runs
# repeat, at ~2.2 KB each for the catalog's width and batch (16 x 16).
@functools.lru_cache(maxsize=256)
def _minibatch(seed: int, n_features: int, n_classes: int, global_batch: int,
               iteration: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(key=seed, counter=iteration))
    x = rng.standard_normal((global_batch, n_features))
    y = np.argmax(x @ _teacher(seed, n_features, n_classes), axis=1)
    x.flags.writeable = False
    y.flags.writeable = False
    return x, y


class SyntheticDataset:
    """Classification batches: ``x ~ N(0,1)``, ``y = argmax(x @ T)``."""

    def __init__(self, seed: int, n_features: int, n_classes: int,
                 global_batch: int):
        self.seed = seed
        self.n_features = n_features
        self.n_classes = n_classes
        self.global_batch = global_batch
        self._teacher = _teacher(seed, n_features, n_classes)

    def global_minibatch(self, iteration: int) -> tuple[np.ndarray, np.ndarray]:
        """The full (un-sharded) batch for *iteration*, read-only."""
        return _minibatch(self.seed, self.n_features, self.n_classes,
                          self.global_batch, iteration)

    def check_shards(self, dp_world: int) -> None:
        """Raise ValueError unless *dp_world* ranks split the batch evenly."""
        if self.global_batch % dp_world:
            raise ValueError(
                f"global batch {self.global_batch} not divisible by dp={dp_world}")

    def shard(self, iteration: int, dp_rank: int,
              dp_world: int) -> tuple[np.ndarray, np.ndarray]:
        """This data-parallel rank's equal slice of the global batch."""
        self.check_shards(dp_world)
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
