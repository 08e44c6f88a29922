"""Property-based manifest round-trip tests.

The contract under test: write a random state dict through the atomic
manifest protocol, flip exactly one entry at rest, and the validator must
flag exactly that entry — no false negatives (rot slips through) and no
false positives (pristine entries blamed).  Stored payloads are frozen
snapshots: their frames must hash to exactly what the tree walk
(``value_digest``) computes, and a read must hand out an equal,
writable copy that shares nothing with the store.
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.storage import (CheckpointValidator, Manifest, SharedObjectStore,
                           TornWriteError, entry_digests, manifest_path,
                           value_digest, verify_payload, write_atomic,
                           write_with_manifest)
from repro.storage.frozen import freeze

KEYS = st.text(alphabet="abcdefgh_", min_size=1, max_size=8)

ENTRY = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.lists(st.integers(0, 9), max_size=4),
    st.integers(1, 6).map(lambda n: np.arange(float(n))),
)

PAYLOADS = st.dictionaries(KEYS, ENTRY, min_size=1, max_size=6)


def drive(env, gen):
    return env.run(until=env.process(gen))


def _store():
    env = Environment()
    return env, SharedObjectStore(env, bandwidth=1e12, latency=0.0)


def _corrupt(obj, key):
    """Flip one entry at rest, the way bit rot would: an array in place
    through ``peek()``, any other entry through a new snapshot (frozen
    containers refuse in-place edits)."""
    value = obj.peek()[key]
    if isinstance(value, np.ndarray):
        value[0] += 1.0
        return
    payload = obj.payload.value
    if isinstance(value, list):
        payload[key] = payload[key] + [999]
    else:
        payload[key] = (value + 1) if isinstance(value, (int, float)) else "rot"
    obj.install(freeze(payload))


@given(payload=PAYLOADS, pick=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_single_entry_rot_is_flagged_exactly(payload, pick):
    env, store = _store()
    data, meta = "ckpt/data", manifest_path("ckpt/data")
    drive(env, write_with_manifest(store, data, meta, payload, nbytes=100))

    obj = store.stat(data)
    manifest = Manifest.from_payload(store.stat(meta).peek())
    assert manifest is not None and manifest.intact
    ok = verify_payload(obj.peek(), manifest, data)
    assert ok.ok and ok.bad_entries == ()
    validator = CheckpointValidator(store)
    assert validator.validate_at_rest(data, meta).ok

    keys = sorted(obj.peek())
    victim = keys[pick % len(keys)]
    before = value_digest(obj.peek()[victim])
    _corrupt(obj, victim)
    if value_digest(obj.peek()[victim]) == before:
        return  # the flip was a no-op for this draw (e.g. float rounding)

    # The tree walk and the validator's next framed hash both name the
    # victim: no verdict outlives the rot.
    result = verify_payload(obj.peek(), manifest, data)
    assert not result.ok
    assert result.bad_entries == (victim,)
    framed = validator.validate_at_rest(data, meta)
    assert not framed.ok
    assert framed.bad_entries == (victim,)


@given(payload=PAYLOADS)
@settings(max_examples=15, deadline=None)
def test_round_trip_without_corruption_always_validates(payload):
    env, store = _store()
    data, meta = "a/data", manifest_path("a/data")
    drive(env, write_with_manifest(store, data, meta, payload, nbytes=10,
                                   meta={"iteration": 3}))
    manifest = Manifest.from_payload(store.stat(meta).peek())
    assert manifest.meta["iteration"] == 3
    result = verify_payload(store.stat(data).peek(), manifest, data)
    assert result.ok, result.detail


def test_manifest_meta_rot_is_detectable():
    """Rot in the manifest's own meta fields (e.g. the recorded resume
    iteration) breaks the self-digest — a rotted manifest cannot lie."""
    manifest = Manifest.for_payload("p", {"w": np.zeros(2)}, 8,
                                    meta={"iteration": 7})
    assert manifest.intact
    rotted = manifest.to_payload()
    rotted["iteration"] = 700
    reparsed = Manifest.from_payload(rotted)
    assert reparsed is not None
    assert not reparsed.intact
    assert not verify_payload({"w": np.zeros(2)}, reparsed, "p").ok


def test_manifest_entry_table_rot_is_detectable():
    manifest = Manifest.for_payload("p", {"w": 1, "b": 2}, 8)
    payload = manifest.to_payload()
    payload["__manifest__"]["entries"]["w"] = "0" * 64
    reparsed = Manifest.from_payload(payload)
    assert not reparsed.intact


def test_from_payload_rejects_malformed_records():
    assert Manifest.from_payload(None) is None
    assert Manifest.from_payload({"no": "manifest"}) is None
    assert Manifest.from_payload({"__manifest__": {"nbytes": "x"}}) is None
    assert Manifest.from_payload(7) is None


def test_missing_manifest_fails_validation():
    result = verify_payload({"w": 1}, None, "p")
    assert not result.ok
    assert "manifest" in result.detail


def test_write_atomic_tear_publishes_nothing():
    """A torn atomic write leaves only the .part partial: the final path
    is never visible, so no reader can observe a half-written object."""
    env, store = _store()
    store.arm_torn_write("ckpt")

    def writer():
        yield from write_atomic(store, "ckpt/data", {"w": 1}, nbytes=1e9)

    with pytest.raises(TornWriteError):
        drive(env, writer())
    assert not store.exists("ckpt/data")
    assert not store.exists("ckpt/data.part")
    partial = store.stat("ckpt/data.part")
    assert partial is not None and not partial.complete
    assert store.stats["writes_torn"] == 1


def test_entry_digests_are_order_insensitive_and_value_sensitive():
    a = entry_digests({"x": np.arange(3.0), "y": 2})
    b = entry_digests({"y": 2, "x": np.arange(3.0)})
    assert a == b
    c = entry_digests({"x": np.arange(3.0), "y": 3})
    assert a["x"] == c["x"] and a["y"] != c["y"]


def test_value_digest_is_pinned():
    """The canonical byte stream is part of the on-store format: a faster
    encoder must reproduce the original digests bit for bit (including a
    non-contiguous array and every container and scalar kind)."""
    value = {"w": np.arange(6.0).reshape(2, 3).T, "step": 7,
             "hist": [0.5, (1, "a")], "raw": b"zz", "none": None}
    assert value_digest(value) == (
        "c7cba715ced9c4cceddb21aada50bb44f10e733c3e57ec569bd38c19b1c823f8")


def test_value_digest_of_subclasses_matches_base_types():
    from collections import OrderedDict

    assert (value_digest(OrderedDict(b=1, a=2))
            == value_digest({"a": 2, "b": 1}))
    class Tagged(np.ndarray):
        pass

    tagged = np.arange(6.0).reshape(2, 3).T.view(Tagged)
    assert value_digest(tagged) == value_digest(np.asarray(tagged))


def test_value_digest_distinguishes_dtype_and_shape():
    assert (value_digest(np.zeros(4, dtype=np.float32))
            != value_digest(np.zeros(4, dtype=np.float64)))
    assert (value_digest(np.zeros((2, 2))) != value_digest(np.zeros(4)))


# -- frozen snapshots ------------------------------------------------------------------


class Tagged(np.ndarray):
    """An ndarray subclass: stored and read back as itself."""


@dataclass
class _Image:
    """A non-dict payload, shaped like a CRIU process image."""

    rank: int
    cpu_state: dict


#: Entries beyond ``ENTRY``: an OrderedDict, an ndarray subclass, a
#: non-contiguous array, numpy scalars, tuples and nested dicts.
RICH_ENTRY = st.one_of(
    ENTRY,
    st.dictionaries(KEYS, ENTRY, max_size=3).map(OrderedDict),
    st.integers(1, 6).map(lambda n: np.arange(float(n)).view(Tagged)),
    st.integers(1, 4).map(lambda n: np.arange(2.0 * n).reshape(2, n).T),
    st.integers(-5, 5).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False,
              width=32).map(np.float32),
    st.lists(ENTRY, max_size=3).map(tuple),
    st.dictionaries(KEYS, ENTRY, max_size=3),
)

RICH_PAYLOADS = st.one_of(
    PAYLOADS,
    st.dictionaries(KEYS, RICH_ENTRY, min_size=1, max_size=6),
    st.builds(_Image, rank=st.integers(0, 7),
              cpu_state=st.dictionaries(KEYS, ENTRY, max_size=3)),
)


def _as_entries(payload):
    return payload if isinstance(payload, dict) else {"__payload__": payload}


def _children(value):
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple)):
        return list(value)
    if hasattr(value, "__dict__") and not isinstance(value, np.ndarray):
        return list(vars(value).values())
    return []


def _arrays(value) -> list:
    if isinstance(value, np.ndarray):
        return [value]
    return [arr for child in _children(value) for arr in _arrays(child)]


def same_bits(a, b) -> bool:
    """Bitwise equality, types included (an OrderedDict stays one)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes())
    if isinstance(a, dict):
        return (list(a) == list(b)
                and all(same_bits(a[k], b[k]) for k in a))
    children = _children(a)
    if children or isinstance(a, (list, tuple)):
        return (len(children) == len(_children(b))
                and all(same_bits(x, y)
                        for x, y in zip(children, _children(b))))
    return repr(a) == repr(b)


@given(payload=RICH_PAYLOADS)
@settings(max_examples=40, deadline=None)
def test_frozen_digests_equal_the_tree_walk(payload):
    frozen = freeze(payload)
    assert frozen.entry_digests() == entry_digests(_as_entries(payload))
    assert frozen.digest() == value_digest(payload)
    copy = frozen.thaw()
    assert copy.entry_digests() == entry_digests(_as_entries(payload))
    assert copy.digest() == value_digest(copy.value)


@given(payload=RICH_PAYLOADS)
@settings(max_examples=30, deadline=None)
def test_read_copy_is_equal_writable_and_unaliased(payload):
    env, store = _store()
    data, meta = "ckpt/data", manifest_path("ckpt/data")
    drive(env, write_with_manifest(store, data, meta, payload, nbytes=10))
    obj = store.stat(data)
    stored = obj.frozen.entry_digests()

    copy = drive(env, store.read(data))
    assert same_bits(copy, payload)
    assert copy is not obj.peek()
    for arr in _arrays(copy):
        assert arr.flags.writeable
        assert not any(np.shares_memory(arr, kept)
                       for kept in _arrays(obj.peek()))
        arr[...] = -arr - 1
    if isinstance(copy, dict):
        copy["__added__"] = 1
        for key in list(copy):
            if isinstance(copy[key], (dict, list)):
                copy[key].clear()

    assert obj.frozen.entry_digests() == stored
    assert CheckpointValidator(store).validate_at_rest(data, meta).ok


def test_non_dict_payload_is_one_framed_entry():
    env, store = _store()
    image = _Image(rank=3, cpu_state={"minibatch": 7, "w": np.arange(3.0)})
    data, meta = "job/criu/rank3", manifest_path("job/criu/rank3")
    drive(env, write_with_manifest(store, data, meta, image, nbytes=10))
    manifest = Manifest.from_payload(store.stat(meta).peek())
    assert manifest.entries == {"__payload__": value_digest(image)}
    assert CheckpointValidator(store).validate_at_rest(data, meta).ok
    restored = drive(env, store.read(data))
    assert same_bits(restored, image) and restored is not image
    # Opaque leaves are re-encoded live: rot inside one is still caught.
    store.stat(data).peek().cpu_state["minibatch"] = 8
    assert not CheckpointValidator(store).validate_at_rest(data, meta).ok


def test_shared_array_keeps_its_sharing():
    """An array referenced twice is stored once and read back once, as
    ``copy.deepcopy`` would keep it; rot in it shows in every entry."""
    shared = np.arange(4.0)
    payload = {"a": shared, "b": [shared, (shared,)], "c": {"d": shared}}
    frozen = freeze(payload)
    kept = frozen.value
    assert kept["a"] is kept["b"][0] is kept["b"][1][0] is kept["c"]["d"]
    assert kept["a"] is not shared
    copy = frozen.thaw().value
    assert copy["a"] is copy["b"][0] is copy["b"][1][0] is copy["c"]["d"]
    assert not np.shares_memory(copy["a"], kept["a"])
    assert frozen.entry_digests() == entry_digests(payload)

    before = frozen.entry_digests()
    kept["a"][0] += 1.0
    after = frozen.entry_digests()
    assert sorted(k for k in before if before[k] != after[k]) == ["a", "b",
                                                                  "c"]
    assert after == entry_digests(kept)


MUTATIONS = {
    "dict-setitem": lambda p: p.__setitem__("w", 1),
    "dict-delitem": lambda p: p.__delitem__("w"),
    "dict-pop": lambda p: p.pop("w"),
    "dict-popitem": lambda p: p.popitem(),
    "dict-update": lambda p: p.update(x=1),
    "dict-setdefault": lambda p: p.setdefault("x", 1),
    "dict-clear": lambda p: p.clear(),
    "dict-ior": lambda p: p.__ior__({"x": 1}),
    "nested-dict-setitem": lambda p: p["nested"].__setitem__("k", 0),
    "list-append": lambda p: p["hist"].append(1),
    "list-extend": lambda p: p["hist"].extend([1]),
    "list-insert": lambda p: p["hist"].insert(0, 1),
    "list-setitem": lambda p: p["hist"].__setitem__(0, 9),
    "list-delitem": lambda p: p["hist"].__delitem__(0),
    "list-iadd": lambda p: p["hist"].__iadd__([1]),
    "list-pop": lambda p: p["hist"].pop(),
    "list-remove": lambda p: p["hist"].remove(0.5),
    "list-sort": lambda p: p["hist"].sort(),
    "list-reverse": lambda p: p["hist"].reverse(),
    "list-in-tuple-append": lambda p: p["pair"][1].append(1),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_peek_containers_refuse_mutation(mutation):
    env, store = _store()
    data, meta = "ckpt/data", manifest_path("ckpt/data")
    payload = {"w": np.zeros(2), "hist": [0.5, 2.0], "nested": {"k": 1},
               "pair": (1, [2])}
    drive(env, write_with_manifest(store, data, meta, payload, nbytes=10))
    with pytest.raises(TypeError, match="read-only"):
        MUTATIONS[mutation](store.stat(data).peek())
    assert CheckpointValidator(store).validate_at_rest(data, meta).ok


def test_array_header_is_read_live():
    """A frame keeps no stale ``nd:`` header: an in-place reshape through
    ``peek()`` keeps every byte but changes the digest."""
    env, store = _store()
    data, meta = "ckpt/data", manifest_path("ckpt/data")
    drive(env, write_with_manifest(store, data, meta,
                                   {"w": np.arange(6.0)}, nbytes=10))
    store.stat(data).peek()["w"].shape = (2, 3)
    result = CheckpointValidator(store).validate_at_rest(data, meta)
    assert result.bad_entries == ("w",)
    assert (store.stat(data).frozen.entry_digests()
            == entry_digests(store.stat(data).peek()))
