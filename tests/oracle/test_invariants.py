"""Unit tests for each invariant detector (no end-to-end simulation)."""

from types import SimpleNamespace

import numpy as np

from repro.core.checkpoints import CheckpointKey, CheckpointRegistry
from repro.oracle.invariants import (check_bounded_rework, check_exactness,
                                     check_gc_live_checkpoint,
                                     check_no_double_resume,
                                     check_replay_log_reset,
                                     check_virtual_handles)
from repro.oracle.strategies import StrategyRun, _guard_garbage_collect
from repro.sim import Environment, Tracer
from repro.storage import SharedObjectStore


def make_run(**overrides) -> StrategyRun:
    defaults = dict(strategy="transparent", losses=[1.0, 2.0], outcome="ok",
                    completed=True)
    defaults.update(overrides)
    return StrategyRun(**defaults)


# -- exactness ------------------------------------------------------------------------


def test_exactness_passes_on_bitwise_match():
    assert check_exactness(make_run(), [1.0, 2.0], []) == []


def test_exactness_flags_divergence_and_length_mismatch():
    (v,) = check_exactness(make_run(losses=[1.0, np.nextafter(2.0, 3.0)]),
                           [1.0, 2.0], [])
    assert v.invariant == "exactness" and "iteration 1" in v.detail
    (v,) = check_exactness(make_run(losses=[1.0]), [1.0, 2.0], [])
    assert "length" in v.detail


def test_exactness_compares_final_state_bitwise():
    """Equal losses still fail on a final state that differs: the first
    (rank, tensor) is named, and -0.0 differs from 0.0."""
    def state(w=0.0, lr=0.5):
        return {"param w": np.array([1.0, w]), "optimizer lr": lr,
                "rng": {"state": 3}, "data cursor": 2}

    golden = [state(), state()]
    assert check_exactness(make_run(final_state=[state(), state()]),
                           [1.0, 2.0], golden) == []
    for rank, bad, name in ((1, state(w=np.nextafter(0.0, 1.0)), "param w"),
                            (0, state(w=-0.0), "param w"),
                            (1, state(lr=-0.5), "optimizer lr"),
                            (0, {**state(), "rng": {"state": 4}}, "rng"),
                            (1, {**state(), "data cursor": 1}, "data cursor")):
        final = [state(), state()]
        final[rank] = bad
        (v,) = check_exactness(make_run(final_state=final), [1.0, 2.0],
                               golden)
        assert v.detail == f"final state diverges at rank {rank}, {name}"
    (v,) = check_exactness(make_run(final_state=[state()]), [1.0, 2.0],
                           golden)
    assert "2" in v.detail and "ranks" in v.detail


def test_exactness_flags_unrecoverable_run():
    run = make_run(outcome="unrecoverable", detail="no spare", losses=[])
    (v,) = check_exactness(run, [1.0], [])
    assert "no spare" in v.detail


# -- bounded rework -------------------------------------------------------------------


def _telemetry_with(notes_list):
    records = [SimpleNamespace(kind="transient", notes=notes)
               for notes in notes_list]
    return SimpleNamespace(records=records)


def test_bounded_rework_accepts_single_minibatch_replay():
    run = make_run(rework_bound=1, telemetry=_telemetry_with(
        [{"minibatch": 5, "base_version": 4}]))
    assert check_bounded_rework(run) == []


def test_bounded_rework_flags_multi_minibatch_replay():
    run = make_run(rework_bound=1, telemetry=_telemetry_with(
        [{"minibatch": 7, "base_version": 3}]))
    (v,) = check_bounded_rework(run)
    assert "replayed 4 minibatches" in v.detail


def test_bounded_rework_checks_generation_resume_points():
    generations = [SimpleNamespace(generation=0, iterations_at_end=9),
                   SimpleNamespace(generation=1, iterations_at_end=12)]
    ok = make_run(rework_bound=1, generations=generations,
                  resume_points={0: 0, 1: 8})
    assert check_bounded_rework(ok) == []
    bad = make_run(rework_bound=1, generations=generations,
                   resume_points={0: 0, 1: 4})
    (v,) = check_bounded_rework(bad)
    assert "rework 5" in v.detail


def test_bounded_rework_none_means_unbounded():
    run = make_run(rework_bound=None, telemetry=_telemetry_with(
        [{"minibatch": 50, "base_version": 0}]))
    assert check_bounded_rework(run) == []


# -- double resume --------------------------------------------------------------------


def _recovery_trace(actions):
    tracer = Tracer()
    for t, action in enumerate(actions):
        tracer.record(float(t), "recovery", action)
    return tracer


def test_double_resume_accepts_alternating_episodes():
    run = make_run(tracer=_recovery_trace(["trigger", "done",
                                           "trigger", "done"]))
    assert check_no_double_resume(run) == []


def test_double_resume_flags_overlapping_episodes():
    run = make_run(tracer=_recovery_trace(["trigger", "trigger", "done"]))
    (v,) = check_no_double_resume(run)
    assert "still open" in v.detail


def test_double_resume_flags_unfinished_and_orphan_done():
    (v,) = check_no_double_resume(make_run(tracer=_recovery_trace(["trigger"])))
    assert "never completed" in v.detail
    (v,) = check_no_double_resume(make_run(tracer=_recovery_trace(["done"])))
    assert "no open" in v.detail


# -- replay log hygiene ---------------------------------------------------------------


def _proxy_with_log(record_minibatches, current):
    log = SimpleNamespace(
        records=[SimpleNamespace(minibatch=m) for m in record_minibatches],
        current_minibatch=current)
    return SimpleNamespace(rank=0, log=log)


def test_replay_log_reset_passes_when_records_are_current():
    run = make_run(proxies=[_proxy_with_log([4, 4, 4], 4)])
    assert check_replay_log_reset(run) == []


def test_replay_log_reset_flags_stale_records():
    run = make_run(proxies=[_proxy_with_log([2, 4, 4], 4)])
    (v,) = check_replay_log_reset(run)
    assert "stale replay records" in v.detail


# -- virtual handles ------------------------------------------------------------------


def _proxy_with_buffer(freed=False, physical="bound"):
    array = np.zeros(4)
    if physical == "bound":
        phys = SimpleNamespace(array=array)
    elif physical == "alien":
        phys = SimpleNamespace(array=np.zeros(4))
    else:
        phys = None
    vbuf = SimpleNamespace(label="params", freed=freed, physical=phys,
                           array=array)
    return SimpleNamespace(rank=0, persistent_buffers=lambda: [vbuf])


def test_virtual_handles_pass_when_consistent():
    assert check_virtual_handles(make_run(proxies=[_proxy_with_buffer()])) == []


def test_virtual_handles_flag_freed_unbound_and_aliased():
    (v,) = check_virtual_handles(
        make_run(proxies=[_proxy_with_buffer(freed=True)]))
    assert "marked freed" in v.detail
    (v,) = check_virtual_handles(
        make_run(proxies=[_proxy_with_buffer(physical=None)]))
    assert "no physical backing" in v.detail
    (v,) = check_virtual_handles(
        make_run(proxies=[_proxy_with_buffer(physical="alien")]))
    assert "does not alias" in v.detail


# -- GC guard -------------------------------------------------------------------------


def _registry_with_checkpoints(env):
    store = SharedObjectStore(env, bandwidth=1e12)
    registry = CheckpointRegistry(store, "job0")

    def writes():
        for iteration in (4, 6):
            for shard in ("shard0", "shard1"):
                key = CheckpointKey(kind="jit", epoch=0, shard_id=shard,
                                    rank=0, iteration=iteration)
                yield from registry.write(key, {"it": iteration}, nbytes=64)

    env.run(until=env.process(writes()))
    return registry


def test_gc_guard_passes_on_correct_collector():
    env = Environment()
    registry = _registry_with_checkpoints(env)
    violations = []
    _guard_garbage_collect(registry, violations)

    def collect():
        registry.garbage_collect(["shard0", "shard1"], keep_iterations=1)
        yield env.timeout(0)

    env.run(until=env.process(collect()))
    assert violations == []
    assert registry.latest_consistent_iteration(["shard0", "shard1"]) == 6


def test_gc_guard_catches_live_checkpoint_deletion():
    env = Environment()
    registry = _registry_with_checkpoints(env)

    def overzealous_gc(shard_ids, keep_iterations=2, retention=None):
        # A broken collector that wipes every checkpoint object.
        for path in list(registry.store.list("job0/ckpt/")):
            registry.store.delete(path)
        return 1

    registry.garbage_collect = overzealous_gc
    violations = []
    _guard_garbage_collect(registry, violations)
    registry.garbage_collect(["shard0", "shard1"])
    assert len(violations) == 2  # both shards lost the live iteration
    assert all("live valid checkpoint" in v for v in violations)

    run = make_run(gc_violations=violations)
    found = check_gc_live_checkpoint(run)
    assert len(found) == 2
    assert all(v.invariant == "gc_live_checkpoint" for v in found)
