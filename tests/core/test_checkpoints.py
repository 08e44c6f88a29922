"""Unit tests for checkpoint naming, atomicity and assembly."""

import pytest

from repro.core.checkpoints import CheckpointKey, CheckpointRegistry
from repro.sim import Environment
from repro.storage import SharedObjectStore


@pytest.fixture
def setup():
    env = Environment()
    store = SharedObjectStore(env, bandwidth=1e9, latency=0.0)
    return env, store, CheckpointRegistry(store, "jobX")


def write(env, registry, key, state=None, nbytes=1e6):
    env.run(until=env.process(registry.write(key, state or {"x": 1}, nbytes)))


def test_write_then_assemble(setup):
    env, store, registry = setup
    key = CheckpointKey("jit", epoch=0, shard_id="full", rank=2, iteration=7)
    write(env, registry, key)
    found = registry.jit_get_checkpoint_path("full")
    assert found == key


def test_newest_iteration_wins(setup):
    env, store, registry = setup
    write(env, registry, CheckpointKey("jit", 0, "full", 0, iteration=5))
    write(env, registry, CheckpointKey("jit", 1, "full", 1, iteration=9))
    write(env, registry, CheckpointKey("periodic", 6, "full", 0, iteration=6))
    assert registry.jit_get_checkpoint_path("full").iteration == 9


def test_periodic_wins_when_newer(setup):
    env, store, registry = setup
    write(env, registry, CheckpointKey("jit", 0, "full", 0, iteration=5))
    write(env, registry, CheckpointKey("periodic", 8, "full", 0, iteration=8))
    found = registry.jit_get_checkpoint_path("full")
    assert found.kind == "periodic" and found.iteration == 8


def test_any_replica_is_acceptable(setup):
    env, store, registry = setup
    write(env, registry, CheckpointKey("jit", 0, "full", 3, iteration=4))
    found = registry.jit_get_checkpoint_path("full")
    assert found.rank == 3  # another rank's checkpoint serves this shard


def test_torn_checkpoint_discarded(setup):
    env, store, registry = setup
    key = CheckpointKey("jit", 0, "full", 0, iteration=5)
    proc = env.process(registry.write(key, {"x": 1}, nbytes=1e12))

    def killer():
        yield env.timeout(1.0)
        proc.kill()

    env.process(killer())
    env.run()
    assert registry.jit_get_checkpoint_path("full") is None


def test_kill_between_data_and_meta_discards(setup):
    env, store, registry = setup
    key = CheckpointKey("jit", 0, "full", 0, iteration=5)
    # Data takes 1s; meta write starts after.  Kill mid-meta-commit: data
    # is complete but the metadata commit is torn.
    proc = env.process(registry.write(key, {"x": 1}, nbytes=1e9))

    def killer():
        yield env.timeout(1.0 + 2e-6)
        proc.kill()

    env.process(killer())
    env.run()
    assert registry.jit_get_checkpoint_path("full") is None


def test_missing_shard_returns_none(setup):
    _env, _store, registry = setup
    assert registry.jit_get_checkpoint_path("pp0-tp0") is None
    assert not registry.shard_has_checkpoint("pp0-tp0")


def test_latest_consistent_iteration(setup):
    env, store, registry = setup
    write(env, registry, CheckpointKey("jit", 0, "pp0", 0, iteration=5))
    write(env, registry, CheckpointKey("jit", 0, "pp1", 1, iteration=5))
    write(env, registry, CheckpointKey("jit", 1, "pp0", 0, iteration=9))
    # pp1 has nothing at 9: only 5 is mutually consistent.
    assert registry.latest_consistent_iteration(["pp0", "pp1"]) == 5
    write(env, registry, CheckpointKey("jit", 1, "pp1", 1, iteration=9))
    assert registry.latest_consistent_iteration(["pp0", "pp1"]) == 9


def test_latest_consistent_none_when_shard_empty(setup):
    env, store, registry = setup
    write(env, registry, CheckpointKey("jit", 0, "pp0", 0, iteration=5))
    assert registry.latest_consistent_iteration(["pp0", "pp1"]) is None


def test_checkpoint_at_exact_iteration(setup):
    env, store, registry = setup
    write(env, registry, CheckpointKey("jit", 0, "full", 0, iteration=5))
    write(env, registry, CheckpointKey("jit", 1, "full", 0, iteration=9))
    assert registry.checkpoint_at("full", 5).iteration == 5
    assert registry.checkpoint_at("full", 7) is None


def test_read_roundtrip_payload(setup):
    env, store, registry = setup
    key = CheckpointKey("jit", 0, "full", 0, iteration=3)
    write(env, registry, key, state={"params": [1.0, 2.0]})

    def reader():
        return (yield from registry.read(key))

    state = env.run(until=env.process(reader()))
    assert state == {"params": [1.0, 2.0]}


def test_jobs_are_namespaced(setup):
    env, store, registry = setup
    other = CheckpointRegistry(store, "jobY")
    write(env, registry, CheckpointKey("jit", 0, "full", 0, iteration=3))
    assert other.jit_get_checkpoint_path("full") is None


def test_read_valid_replica_falls_back_past_rot(setup):
    env, store, registry = setup
    replicas = [CheckpointKey("jit", 0, "full", rank, iteration=5)
                for rank in (0, 1)]
    for key in replicas:
        write(env, registry, key, state={"params": [1.0], "rank": key.rank})

    def restore(key):
        return (yield from registry.read_valid_replica(key))

    assert store.inject_bit_rot("full/rank0/data")
    assert env.run(until=env.process(restore(replicas[0])))["rank"] == 1
    assert store.inject_bit_rot("full/rank1/data")
    with pytest.raises(RuntimeError, match="no valid checkpoint left for "
                                           "full at iteration 5"):
        env.run(until=env.process(restore(replicas[1])))
