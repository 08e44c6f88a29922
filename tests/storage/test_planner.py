"""Resume planner, retention policy and validator-aware GC tests.

These drive a real :class:`CheckpointRegistry` over a simulated shared
store: write checkpoints at several iterations, corrupt some at rest,
and check that planning falls back to the newest iteration that still
validates, that rejected candidates are quarantined (append-only), and
that GC can never collect the last valid restore point.
"""

import numpy as np
import pytest

from repro.core.checkpoints import CheckpointKey, CheckpointRegistry
from repro.sim import Environment
from repro.storage import (QUARANTINE_PREFIX, RetentionPolicy,
                           SharedObjectStore)
from repro.storage.frozen import freeze


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def registry(env):
    store = SharedObjectStore(env, bandwidth=1e12, latency=0.0)
    return CheckpointRegistry(store, job_id="job0")


def drive(env, gen):
    return env.run(until=env.process(gen))


def write_ckpt(env, registry, iteration, rank=0, shard="full",
               kind="jit", epoch=None):
    key = CheckpointKey(kind=kind, epoch=iteration if epoch is None else epoch,
                        shard_id=shard, rank=rank, iteration=iteration)
    state = {"weights": np.full(4, float(iteration)), "step": iteration}
    drive(env, registry.write(key, state, nbytes=64))
    return key


def rot(registry, key):
    """Silently corrupt a checkpoint's data payload at rest."""
    stored = registry.store.stat(registry._prefix(key.data_path)).peek()
    stored["weights"][0] += 1.0


# -- planning ----------------------------------------------------------------------


def test_plan_picks_newest_valid_iteration(env, registry):
    for it in (2, 4, 6):
        write_ckpt(env, registry, it)
    plan = registry.planner.plan(["full"])
    assert plan.iteration == 6
    assert plan.keys["full"].iteration == 6
    assert plan.rejected == ()


def test_plan_falls_back_when_newest_is_corrupt(env, registry):
    keys = {it: write_ckpt(env, registry, it) for it in (2, 4, 6)}
    rot(registry, keys[6])
    plan = registry.planner.plan(["full"])
    assert plan.iteration == 4
    assert any("epoch6" in path for path in plan.rejected)
    # The condemned checkpoint moved to the quarantine namespace.
    qpaths = registry.store.quarantine_log
    assert any(p.startswith(QUARANTINE_PREFIX) for p in qpaths)
    assert registry.store.stats["quarantined"] >= 1


def test_plan_prefers_surviving_replica_at_same_iteration(env, registry):
    """Corruption of one DP replica's copy must not roll the plan back
    while a sibling replica at the same iteration still validates."""
    bad = write_ckpt(env, registry, 6, rank=0)
    write_ckpt(env, registry, 6, rank=1)
    write_ckpt(env, registry, 4, rank=0)
    rot(registry, bad)
    plan = registry.planner.plan(["full"])
    assert plan.iteration == 6
    assert plan.keys["full"].rank == 1


def test_plan_cold_start_when_everything_is_corrupt(env, registry):
    for it in (2, 4):
        rot(registry, write_ckpt(env, registry, it))
    plan = registry.planner.plan(["full"])
    assert plan.iteration is None
    assert plan.keys == {}
    assert len(plan.rejected) == 2


def test_last_known_good_remembers_verified_iteration(env, registry):
    for it in (2, 4):
        write_ckpt(env, registry, it)
    first = registry.planner.plan(["full"])
    assert first.iteration == 4
    newest = write_ckpt(env, registry, 6)
    rot(registry, newest)
    plan = registry.planner.plan(["full"], policy="last_known_good")
    assert plan.iteration == 4
    assert plan.policy == "last_known_good"


def test_newest_before_bounds_the_plan(env, registry):
    for it in (2, 4, 6):
        write_ckpt(env, registry, it)
    plan = registry.planner.plan(["full"], policy="newest_before",
                                 before_iteration=6)
    assert plan.iteration == 4


def test_plan_requires_every_shard(env, registry):
    write_ckpt(env, registry, 4, shard="shard0")
    write_ckpt(env, registry, 4, shard="shard1")
    write_ckpt(env, registry, 6, shard="shard0")   # shard1 lags behind
    plan = registry.planner.plan(["shard0", "shard1"])
    assert plan.iteration == 4


def test_plan_decisions_are_recorded(env, registry):
    write_ckpt(env, registry, 2)
    registry.planner.plan(["full"])
    registry.planner.plan(["full"], policy="newest_before",
                          before_iteration=2)
    policies = [d.policy for d in registry.planner.decisions]
    assert policies == ["latest_valid", "newest_before"]


def test_unknown_policy_rejected(env, registry):
    with pytest.raises(ValueError):
        registry.planner.plan(["full"], policy="optimistic")


# -- retention ----------------------------------------------------------------------


def test_retention_keep_last():
    policy = RetentionPolicy(keep_last=2)
    assert policy.kept([2, 4, 6, 8]) == {6, 8}


def test_retention_keep_every():
    policy = RetentionPolicy(keep_last=1, keep_every=4)
    assert policy.kept([2, 4, 6, 8, 10]) == {4, 8, 10}


def test_retention_validates_parameters():
    with pytest.raises(ValueError):
        RetentionPolicy(keep_last=0)
    with pytest.raises(ValueError):
        RetentionPolicy(keep_every=0)


def test_gc_honours_retention_policy(env, registry):
    for it in (2, 4, 6, 8):
        write_ckpt(env, registry, it)
    removed = registry.garbage_collect(
        ["full"], retention=RetentionPolicy(keep_last=1, keep_every=4))
    assert removed == 2                      # 2 and 6 go; 4, 8 stay
    assert registry.iterations_for("full") == {4, 8}


def test_gc_keeps_the_newest_iterations_every_shard_shares(env, registry):
    """Torn writes on alternating shards leave each shard's newest
    iterations disjoint.  Keep-last per shard alone then holds a single
    consistent restore point, and one bit rot on it leaves nothing to
    resume from; GC must also keep the newest iterations all shards
    share."""
    shards = ["shard0", "shard1"]
    policy = RetentionPolicy(keep_last=2)
    keys = {}
    for it, torn in ((1, None), (2, None), (3, "shard0"), (4, "shard1")):
        for rank, shard in enumerate(shards):
            if shard != torn:
                keys[shard, it] = write_ckpt(env, registry, it, rank=rank,
                                             shard=shard)
        registry.garbage_collect(shards, retention=policy)
    assert registry.latest_consistent_iteration(shards) == 2

    rot(registry, keys["shard0", 2])
    plan = registry.planner.plan(shards)
    assert plan.iteration == 1      # keep-last per shard alone: None
    assert plan.rejected == (registry._prefix(keys["shard0", 2].data_path),)
    assert registry.iterations_for("shard0") == {1, 4}
    assert registry.iterations_for("shard1") == {1, 2, 3}


def test_gc_never_collects_last_valid_checkpoint(env, registry):
    """Everything newer than iteration 2 is corrupt: keep-last-1 would
    blindly keep only corrupt iteration 6 — the validator-aware GC must
    also retain iteration 2, the last valid restore point."""
    good = write_ckpt(env, registry, 2)
    for it in (4, 6):
        rot(registry, write_ckpt(env, registry, it))
    registry.garbage_collect(["full"], keep_iterations=1)
    assert registry.store.exists(registry._prefix(good.data_path))
    plan = registry.planner.plan(["full"])
    assert plan.iteration == 2


# -- work per call and scan freshness --------------------------------------------------


SHARDS = [f"shard{i}" for i in range(8)]


def count_work(registry):
    """Count store listings and at-rest validations (by data path)."""
    lists, validated = [], []
    store_list = registry.store.list
    validate = registry.validator.validate_at_rest

    def counting_list(prefix=""):
        lists.append(prefix)
        return store_list(prefix)

    def counting_validate(data_path, meta_path):
        validated.append(data_path)
        return validate(data_path, meta_path)

    registry.store.list = counting_list
    registry.validator.validate_at_rest = counting_validate
    return lists, validated


def write_grid(env, registry):
    """8 shards x iterations 1-3; shard5's newest checkpoint is rotted."""
    keys = {(shard, it): write_ckpt(env, registry, it, shard=shard)
            for shard in SHARDS for it in (1, 2, 3)}
    rot(registry, keys["shard5", 3])
    return keys


def test_plan_lists_once_and_validates_each_key_at_most_once(env, registry):
    write_grid(env, registry)
    lists, validated = count_work(registry)
    plan = registry.planner.plan(SHARDS)
    assert plan.iteration == 2
    assert len(lists) == 1
    assert len(validated) == len(set(validated))
    # Iteration 3 up to the rotted shard5, then all eight at iteration 2.
    assert len(validated) == 6 + 8


def test_gc_lists_once_and_validates_each_key_at_most_once(env, registry):
    write_grid(env, registry)
    lists, validated = count_work(registry)
    removed = registry.garbage_collect(SHARDS, keep_iterations=1)
    assert len(lists) == 1
    assert len(validated) == len(set(validated))
    # Finding the protected point condemned shard5's rotted iteration 3;
    # every shard then keeps iteration 2 and its newest valid one.
    assert removed == len(SHARDS)              # every iteration 1
    assert registry.latest_valid_consistent_iteration(SHARDS) == 2
    assert registry.iterations_for("shard0") == {2, 3}
    assert registry.iterations_for("shard5") == {2}


def test_no_verdict_survives_across_calls(env, registry):
    """A checkpoint that validated in one plan and rotted afterwards must
    be hashed again, caught and quarantined by the next plan."""
    for it in (2, 4):
        write_ckpt(env, registry, it)
    first = registry.planner.plan(["full"])
    assert first.iteration == 4
    rot(registry, first.keys["full"])
    second = registry.planner.plan(["full"])
    assert second.iteration == 2
    assert second.rejected == (
        registry._prefix(first.keys["full"].data_path),)
    assert registry.iterations_for("full") == {2}


def test_meta_rotted_to_another_shard_stays_undiscoverable(env, registry):
    write_ckpt(env, registry, 2, shard="shard0")
    moved = write_ckpt(env, registry, 4, shard="shard0")
    # Metadata rot is structural: it lands as a new snapshot of the record.
    obj = registry.store.stat(registry._prefix(moved.meta_path))
    meta = obj.payload.value
    meta["shard_id"] = "shard1"
    obj.install(freeze(meta))
    assert registry.iterations_for("shard0") == {2}
    assert registry.jit_get_checkpoint_path("shard0").iteration == 2
    # The rotted record names shard1, but shard1 has no such data object.
    assert registry.iterations_for("shard1") == set()
    assert registry.planner.plan(["shard0"]).iteration == 2


# -- quarantine is append-only -------------------------------------------------------


def test_quarantined_objects_resist_mutation(env, registry):
    key = write_ckpt(env, registry, 6)
    rot(registry, key)
    assert registry.planner.plan(["full"]).iteration is None
    qpath = registry.store.quarantine_log[0]
    assert registry.store.exists(qpath)

    registry.store.delete(qpath)
    assert registry.store.exists(qpath)      # delete refused
    registry.store.rename(qpath, "elsewhere")
    assert registry.store.exists(qpath)      # rename refused
    assert len(registry.store.quarantine_violations) == 2
