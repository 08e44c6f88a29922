"""Shared fixtures and helpers for the test suite."""

import collections
import gc

import numpy as np
import pytest

from repro.hardware.specs import A100_NODE, V100_NODE
from repro.parallel.topology import ParallelLayout
from repro.workloads import TrainingJob, WorkloadSpec


def make_spec(name="TEST", model="GPT2-S", node_spec=None, num_nodes=1,
              layout=None, engine="ddp", minibatch_time=0.05,
              global_batch=16, seed=7, **kwargs) -> WorkloadSpec:
    """A small, fast workload spec for unit/integration tests."""
    return WorkloadSpec(
        name=name, model=model, node_spec=node_spec or V100_NODE,
        num_nodes=num_nodes, layout=layout or ParallelLayout(dp=2),
        engine=engine, framework="test", minibatch_time=minibatch_time,
        global_batch=global_batch, seed=seed, **kwargs)


def make_job(**kwargs) -> TrainingJob:
    return TrainingJob(make_spec(**kwargs))


@pytest.fixture
def small_ddp_job():
    return make_job(layout=ParallelLayout(dp=2))


def repro_cyclic_garbage(scenario) -> collections.Counter:
    """``repro`` objects that *scenario* leaves to the cyclic collector.

    Runs ``scenario()`` with the collector off, so everything it drops
    is freed by refcount or stays behind, then counts, by type, the
    ``repro`` objects one full collection finds unreachable.
    ``gc.DEBUG_SAVEALL`` is set only for that final collection: set
    during the run, the collections it triggers would keep every piece
    of garbage, whatever freed it.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        scenario()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
        finally:
            gc.set_debug(0)
        found = collections.Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro"))
    finally:
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return found
