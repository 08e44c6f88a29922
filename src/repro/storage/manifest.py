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

An entry's digest is :func:`~repro.storage.frozen.value_digest` of its
value; a save computes it from the frozen snapshot the store installs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Generator, Mapping, Optional

from repro.storage.frozen import Framed, freeze
from repro.storage.stores import _BaseStore

#: Suffix for the in-flight temp object of an atomic write.
PART_SUFFIX = ".part"
#: Manifest object size: a small metadata record (one store IO).
MANIFEST_NBYTES = 4096


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
    def for_payload(cls, data_path: str, payload: Any, nbytes: int,
                    meta: Optional[dict] = None) -> "Manifest":
        """The manifest of *payload*, hashed through its frames (a plain
        payload is frozen first).  A non-dict payload (e.g. a CRIU image)
        gets one synthetic entry, ``__payload__``."""
        if not isinstance(payload, Framed):
            payload = freeze(payload)
        entries = payload.entry_digests()
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
    The payload is frozen once: the manifest hashes the snapshot the
    store then installs.
    """
    frozen = freeze(payload)
    manifest = Manifest.for_payload(data_path, frozen, nbytes, meta=meta)
    yield from write_atomic(store, data_path, frozen, nbytes)
    yield from write_atomic(store, manifest_path_, manifest.to_payload(),
                            MANIFEST_NBYTES)
    return manifest
