"""Unit tests for checkpoint stores."""

import numpy as np
import pytest

from repro.hardware import Cluster, ClusterSpec
from repro.sim import Environment
from repro.storage import LocalDiskStore, SharedObjectStore, TmpfsStore


@pytest.fixture
def env():
    return Environment()


def drive(env, gen):
    return env.run(until=env.process(gen))


def test_write_then_read_roundtrip(env):
    store = SharedObjectStore(env, bandwidth=1e9, latency=0.0)
    payload = {"weights": np.arange(4.0)}

    def writer():
        yield from store.write("ckpt/rank0", payload, nbytes=1e9)

    def reader():
        return (yield from store.read("ckpt/rank0"))

    drive(env, writer())
    result = drive(env, reader())
    np.testing.assert_array_equal(result["weights"], np.arange(4.0))


def test_write_time_follows_bandwidth(env):
    store = SharedObjectStore(env, bandwidth=2e9, latency=0.5)

    def writer():
        yield from store.write("a", {}, nbytes=4e9)

    drive(env, writer())
    assert env.now == pytest.approx(2.5)


def test_payload_is_isolated_from_later_mutation(env):
    store = SharedObjectStore(env, bandwidth=1e12)
    live = {"w": np.zeros(3)}

    def writer():
        yield from store.write("a", live, nbytes=10)

    drive(env, writer())
    live["w"][...] = 99.0  # optimizer keeps training after the snapshot

    def reader():
        return (yield from store.read("a"))

    result = drive(env, reader())
    np.testing.assert_array_equal(result["w"], np.zeros(3))


def test_torn_write_is_not_readable(env):
    store = SharedObjectStore(env, bandwidth=1e9, latency=0.0)

    def writer():
        yield from store.write("torn", {"x": 1}, nbytes=10e9)  # 10 seconds

    proc = env.process(writer())

    def killer():
        yield env.timeout(3.0)
        proc.kill()

    env.process(killer())
    env.run()
    assert not store.exists("torn")
    assert store.stat("torn") is not None          # partial object visible
    assert not store.stat("torn").complete

    def reader():
        return (yield from store.read("torn"))

    with pytest.raises(FileNotFoundError):
        drive(env, reader())


def test_list_only_returns_complete_objects(env):
    store = SharedObjectStore(env, bandwidth=1e9)

    def writer(path, nbytes):
        yield from store.write(path, {}, nbytes=nbytes)

    proc = env.process(writer("ckpt/rank0/meta", 1))
    slow = env.process(writer("ckpt/rank1/meta", 1e12))

    def killer():
        yield env.timeout(1.0)
        slow.kill()

    env.process(killer())
    env.run()
    assert store.list("ckpt/") == ["ckpt/rank0/meta"]


def test_local_disk_serializes_writers(env):
    cluster = Cluster(env, ClusterSpec(num_nodes=1))
    node = cluster.nodes[0]
    store = LocalDiskStore(env, node, latency=0.0)
    nbytes = node.spec.disk_bandwidth  # one second each
    done = []

    def writer(path):
        yield from store.write(path, {}, nbytes=nbytes)
        done.append((path, env.now))

    env.process(writer("a"))
    env.process(writer("b"))
    env.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]


def test_shared_store_parallel_writers(env):
    store = SharedObjectStore(env, bandwidth=1e9, latency=0.0)
    done = []

    def writer(path):
        yield from store.write(path, {}, nbytes=1e9)
        done.append((path, env.now))

    env.process(writer("a"))
    env.process(writer("b"))
    env.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(1.0))]


def test_tmpfs_faster_than_disk(env):
    cluster = Cluster(env, ClusterSpec(num_nodes=1))
    node = cluster.nodes[0]
    tmpfs = TmpfsStore(env, node)
    disk = LocalDiskStore(env, node)
    assert tmpfs.transfer_time(10e9) < disk.transfer_time(10e9)


def test_delete_and_wipe(env):
    store = SharedObjectStore(env, bandwidth=1e12)

    def writer(path):
        yield from store.write(path, {}, nbytes=1)

    drive(env, writer("a"))
    drive(env, writer("b"))
    store.delete("a")
    assert not store.exists("a")
    assert store.exists("b")
    store.wipe()
    assert store.list() == []


# -- corruption injection: torn writes and bit rot ----------------------------------


def test_armed_torn_write_raises_and_never_publishes(env):
    from repro.storage import TornWriteError

    store = SharedObjectStore(env, bandwidth=1e9, latency=0.0)
    store.arm_torn_write("ckpt")

    def writer():
        yield from store.write("ckpt/rank0", {"x": 1}, nbytes=2e9)

    with pytest.raises(TornWriteError):
        drive(env, writer())
    assert not store.exists("ckpt/rank0")
    partial = store.stat("ckpt/rank0")
    assert partial is not None and not partial.complete
    assert partial.payload is None               # unreadable, never wrong
    assert 0 < partial.written_bytes < 2e9       # genuinely mid-transfer
    assert store.stats["writes_torn"] == 1


def test_torn_write_trap_is_one_shot(env):
    from repro.storage import TornWriteError

    store = SharedObjectStore(env, bandwidth=1e12)
    store.arm_torn_write("a")

    def writer(path):
        yield from store.write(path, {"x": 1}, nbytes=10)

    with pytest.raises(TornWriteError):
        drive(env, writer("a/data"))
    drive(env, writer("a/data"))                 # retry succeeds
    assert store.exists("a/data")


def test_mid_write_kill_through_registry_never_readable_wrong(env):
    """Regression for the _BaseStore.write torn-write hole: killing the
    writer mid-transfer (the JIT failure model) must leave the final
    checkpoint path unpublished and the partial unreadable — a reader can
    never observe a half-written checkpoint as if it were whole."""
    import numpy as np

    from repro.core.checkpoints import CheckpointKey, CheckpointRegistry

    store = SharedObjectStore(env, bandwidth=1e9, latency=0.0)
    registry = CheckpointRegistry(store, job_id="job0")
    key = CheckpointKey(kind="jit", epoch=1, shard_id="full", rank=0,
                        iteration=5)
    state = {"weights": np.arange(4.0)}

    proc = env.process(registry.write(key, state, nbytes=4e9))  # 4 seconds

    def killer():
        yield env.timeout(1.5)
        proc.kill()

    env.process(killer())
    env.run()
    data = registry._prefix(key.data_path)
    assert not store.exists(data)                       # never published
    assert not store.exists(registry._prefix(key.meta_path))
    assert store.stat(data + ".part").payload is None   # partial unreadable
    assert registry.jit_get_checkpoint_path("full") is None  # not discoverable
    assert registry.planner.plan(["full"]).iteration is None


def test_bit_rot_corrupts_newest_complete_data_object(env):
    store = SharedObjectStore(env, bandwidth=1e12)

    def writer(path, payload):
        yield from store.write(path, payload, nbytes=10)

    drive(env, writer("ckpt/epoch1/rank0/data", {"w": np.zeros(2)}))
    drive(env, writer("ckpt/epoch1/rank0/meta", {"iteration": 1}))
    drive(env, writer("ckpt/epoch2/rank0/data", {"w": np.zeros(2)}))
    drive(env, writer("ckpt/epoch2/rank0/meta", {"iteration": 2}))
    assert store.inject_bit_rot("rank0", salt=1)
    assert store.stat("ckpt/epoch2/rank0/data").rotted
    assert not store.stat("ckpt/epoch1/rank0/data").rotted
    assert not store.stat("ckpt/epoch2/rank0/meta").rotted  # data preferred
    assert store.stats["bit_rot_injected"] == 1


def test_bit_rot_with_no_match_arms_rot_on_next_write(env):
    from repro.storage import value_digest

    store = SharedObjectStore(env, bandwidth=1e12)
    assert not store.inject_bit_rot("rank3", salt=1)   # nothing at rest yet
    clean = {"w": np.arange(4.0)}
    digest = value_digest(clean)

    def writer():
        yield from store.write("ckpt/rank3/data", clean, nbytes=10)

    drive(env, writer())
    stored = store.stat("ckpt/rank3/data").peek()
    assert value_digest(stored) != digest              # rotted on landing
    np.testing.assert_array_equal(clean["w"], np.arange(4.0))  # caller's copy safe


def test_bit_rot_never_touches_quarantine_or_criu(env):
    store = SharedObjectStore(env, bandwidth=1e12)

    def writer(path):
        yield from store.write(path, {"w": np.zeros(2)}, nbytes=10)

    drive(env, writer("node0/criu/rank0/data"))
    drive(env, writer("old/rank0/data"))
    store.quarantine("old/rank0/data")
    assert not store.inject_bit_rot("rank0", salt=1)
    assert store.stats["bit_rot_injected"] == 0


def test_match_fragment_semantics():
    from repro.storage import match_fragment

    assert match_fragment("job0/ckpt/epoch1/rank0/data", "rank0")
    assert match_fragment("gpu/ckpt/gen1/full/rank2.part", "rank2")
    assert match_fragment("gpu/ckpt/gen1/full/rank2.manifest", "rank2")
    assert match_fragment("job0/ckpt/rank1", "rank1")
    assert not match_fragment("job0/ckpt/rank10/data", "rank1")
    assert not match_fragment("job0/ckpt/rank0/data", "rank1")
