"""Property-based manifest round-trip tests.

The contract under test: write a random state dict through the atomic
manifest protocol, flip exactly one entry at rest, and the validator must
flag exactly that entry — no false negatives (rot slips through) and no
false positives (pristine entries blamed).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.storage import (Manifest, SharedObjectStore, TornWriteError,
                           entry_digests, manifest_path, value_digest,
                           verify_payload, write_atomic, write_with_manifest)

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


def _corrupt(payload: dict, key):
    """Flip one entry in place, the way bit rot would."""
    value = payload[key]
    if isinstance(value, np.ndarray):
        value[0] += 1.0
    elif isinstance(value, list):
        payload[key] = value + [999] if value else [999]
    else:
        payload[key] = (value + 1) if isinstance(value, (int, float)) else "rot"


@given(payload=PAYLOADS, pick=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_single_entry_rot_is_flagged_exactly(payload, pick):
    env, store = _store()
    data, meta = "ckpt/data", manifest_path("ckpt/data")
    drive(env, write_with_manifest(store, data, meta, payload, nbytes=100))

    stored = store.stat(data).peek()
    manifest = Manifest.from_payload(store.stat(meta).peek())
    assert manifest is not None and manifest.intact
    ok = verify_payload(stored, manifest, data)
    assert ok.ok and ok.bad_entries == ()

    victim = sorted(stored)[pick % len(stored)]
    before = value_digest(stored[victim])
    _corrupt(stored, victim)
    if value_digest(stored[victim]) == before:
        return  # the flip was a no-op for this draw (e.g. float rounding)

    result = verify_payload(stored, manifest, data)
    assert not result.ok
    assert result.bad_entries == (victim,)


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
