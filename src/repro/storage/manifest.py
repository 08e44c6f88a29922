"""Checkpoint manifests: per-shard sha256 integrity metadata.

A :class:`Manifest` is the small record published *after* a checkpoint's
data object, carrying a sha256 digest for every top-level entry of the
state payload (parameters, optimizer moments, scalars...).  Together with
temp-path + publish-on-rename writes this gives the store the two
properties the recovery paths assume:

* **atomicity** — a crash mid-write leaves a ``.part`` object and no
  manifest; the final path never names a partial object, so there is
  never a published manifest lie;
* **integrity** — bit rot at rest flips payload bits but cannot update
  the digests, so validation on read catches silent corruption and names
  exactly the entries that rotted.

Manifests carry a digest *of their own entry table* (``self_digest``) so
a rotted manifest is just as detectable as a rotted payload.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Generator, Mapping, Optional

import numpy as np

from repro.storage.stores import _BaseStore

#: Suffix for the in-flight temp object of an atomic write.
PART_SUFFIX = ".part"
#: Manifest object size: a small metadata record (one store IO).
MANIFEST_NBYTES = 4096


@functools.lru_cache(maxsize=1024)
def _array_header(dtype: str, shape: tuple) -> bytes:
    return b"nd:" + dtype.encode() + repr(shape).encode()


def _encode_array(value: np.ndarray, out: list) -> None:
    out.append(_array_header(value.dtype.str, value.shape))
    out.append(value.tobytes())    # C order, whatever the strides


def _encode_array_subclass(value: np.ndarray, out: list) -> None:
    # A subclass may override tobytes (a masked array fills its masked
    # slots), so hash the raw buffer through a base-class array.
    out.append(_array_header(value.dtype.str, value.shape))
    out.append(np.ascontiguousarray(value).tobytes())


def _encode_dict(value: dict, out: list) -> None:
    out.append(b"d{")
    for key in sorted(value, key=str):
        out.append(repr(key).encode())
        _encode(value[key], out)
    out.append(b"}")


def _encode_sequence(value, out: list) -> None:
    out.append(b"l[")
    for item in value:
        _encode(item, out)
    out.append(b"]")


def _encode_bytes(value: bytes, out: list) -> None:
    out.append(b"b:")
    out.append(value)


def _encode_repr(value: Any, out: list) -> None:
    out.append(repr(value).encode())


#: Encoder per exact payload type.  Anything else (subclasses such as
#: numpy scalars or an OrderedDict) goes through :func:`_encoder_for`.
_ENCODERS = {
    np.ndarray: _encode_array, dict: _encode_dict, list: _encode_sequence,
    tuple: _encode_sequence, bytes: _encode_bytes, str: _encode_repr,
    int: _encode_repr, float: _encode_repr, bool: _encode_repr,
    type(None): _encode_repr,
}


def _encoder_for(value: Any):
    if isinstance(value, np.ndarray):
        return _encode_array_subclass
    if isinstance(value, dict):
        return _encode_dict
    if isinstance(value, (list, tuple)):
        return _encode_sequence
    if isinstance(value, bytes):
        return _encode_bytes
    return _encode_repr


def _encode(value: Any, out: list) -> None:
    """Append one payload value's canonical byte stream to *out*."""
    (_ENCODERS.get(type(value)) or _encoder_for(value))(value, out)


def value_digest(value: Any) -> str:
    """Canonical sha256 of one payload entry."""
    out: list = []
    _encode(value, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


def entry_digests(payload: Mapping[str, Any]) -> dict[str, str]:
    """Per-entry digests of a checkpoint state dict (sorted keys)."""
    return {str(key): value_digest(payload[key])
            for key in sorted(payload, key=str)}


def manifest_fingerprint(data_path: str, nbytes: int,
                         entries: Mapping[str, str],
                         meta: Mapping[str, Any]) -> str:
    """Digest over the whole manifest record (its self-check).

    Covers the identity/meta fields too, so bit rot flipping e.g. the
    recorded resume iteration is as detectable as rot in the digests.
    """
    canonical = json.dumps(
        {"data_path": data_path, "nbytes": int(nbytes),
         "entries": dict(entries), "meta": dict(meta)},
        sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class Manifest:
    """Integrity metadata for one published checkpoint object."""

    data_path: str
    nbytes: int
    entries: dict[str, str] = field(default_factory=dict)
    self_digest: str = ""
    #: Free-form identity fields (iteration, shard_id, rank, kind, epoch)
    #: preserved for discovery code that reads the meta record.
    meta: dict = field(default_factory=dict)

    @classmethod
    def for_payload(cls, data_path: str, payload: Mapping[str, Any],
                    nbytes: int, meta: Optional[dict] = None) -> "Manifest":
        if not isinstance(payload, Mapping):
            # Non-dict payloads (e.g. CRIU images) get one synthetic entry.
            payload = {"__payload__": payload}
        entries = entry_digests(payload)
        meta = dict(meta or {})
        return cls(data_path=data_path, nbytes=int(nbytes), entries=entries,
                   self_digest=manifest_fingerprint(data_path, nbytes,
                                                    entries, meta),
                   meta=meta)

    @property
    def intact(self) -> bool:
        """Does the manifest record still match its self-digest?"""
        return self.self_digest == manifest_fingerprint(
            self.data_path, self.nbytes, self.entries, self.meta)

    # -- (de)serialisation to a store payload ------------------------------------

    def to_payload(self) -> dict:
        out = dict(self.meta)
        out["__manifest__"] = {
            "data_path": self.data_path, "nbytes": self.nbytes,
            "entries": dict(self.entries), "self_digest": self.self_digest,
        }
        return out

    @classmethod
    def from_payload(cls, payload: Optional[Mapping]) -> Optional["Manifest"]:
        if not isinstance(payload, Mapping) or "__manifest__" not in payload:
            return None
        body = payload["__manifest__"]
        meta = {k: v for k, v in payload.items() if k != "__manifest__"}
        try:
            return cls(data_path=body["data_path"],
                       nbytes=int(body["nbytes"]),
                       entries=dict(body["entries"]),
                       self_digest=str(body["self_digest"]), meta=meta)
        except (KeyError, TypeError, ValueError):
            return None


def manifest_path(data_path: str) -> str:
    """Manifest location for a bare data object (non-registry layouts)."""
    return data_path + ".manifest"


def write_atomic(store: _BaseStore, path: str, payload: Any,
                 nbytes: int) -> Generator:
    """Timed write to ``path + '.part'`` then instantaneous rename.

    Raises :class:`~repro.storage.stores.TornWriteError` if the transfer
    tears; the partial ``.part`` object is left behind (GC sweeps it) and
    *path* itself is never published.
    """
    tmp = path + PART_SUFFIX
    yield from store.write(tmp, payload, nbytes)
    store.rename(tmp, path)


def write_with_manifest(store: _BaseStore, data_path: str,
                        manifest_path_: str, payload: Mapping[str, Any],
                        nbytes: int,
                        meta: Optional[dict] = None) -> Generator:
    """The full atomic protocol: data first, manifest last, both renamed.

    Returns the :class:`Manifest`.  A tear during either transfer leaves
    no published manifest, so readers can never trust a torn checkpoint.
    """
    manifest = Manifest.for_payload(data_path, payload, nbytes, meta=meta)
    yield from write_atomic(store, data_path, payload, nbytes)
    yield from write_atomic(store, manifest_path_, manifest.to_payload(),
                            MANIFEST_NBYTES)
    return manifest
