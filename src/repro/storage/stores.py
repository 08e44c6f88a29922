"""Store implementations with transfer-time models and failure modes.

All three expose the same generator API:

* ``write(path, payload, nbytes)`` — blocks the calling process for the
  transfer time; the object only becomes ``complete`` when the write
  finishes (kill the writer mid-transfer to model a torn write);
* ``read(path)`` — blocks for the transfer time and returns the payload;
* ``rename(src, dst)`` — instantaneous atomic publish: write to a temp
  path, rename into place, and there is never a moment where the final
  path names a partial object.

Payloads are frozen on write (at write *start*, so a checkpoint
snapshots the state of the moment the write was issued) and thawed into
a fresh copy on read (:mod:`repro.storage.frozen`): a checkpoint must not
alias live training arrays, otherwise later optimizer steps would corrupt
history.  ``read_framed`` returns that copy with its frames, so a caller
can verify the bytes it got without walking them again.

Stores also model their *own* failure classes, driven by the failure
injector:

* **torn writes** (``arm_torn_write``) — the next matching write dies
  mid-transfer, leaving a partial object and raising
  :class:`TornWriteError` in the writer (the IO error a real filesystem
  surfaces).  The payload is never installed, so a torn write can never
  be read back.
* **bit rot** (``inject_bit_rot``) — silent at-rest corruption: one
  element of a stored payload is bit-flipped.  The store keeps serving
  the object as if nothing happened; only manifest validation
  (:mod:`repro.storage.validate`) can tell.  Array bytes flip in place;
  a payload without arrays has a scalar flipped, which the store applies
  by installing a new snapshot.

Objects under the ``quarantine/`` namespace are append-only: the
validator moves corrupt checkpoints there, and the store refuses (and
records) any later attempt to delete, overwrite, rename or re-corrupt
them — the forensic record must survive the run.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.sim import Environment, Resource
from repro.storage.frozen import Framed, freeze
from repro.storage.objects import StoredObject

#: Namespace prefix for quarantined (corrupt, preserved) objects.
QUARANTINE_PREFIX = "quarantine/"

#: Path fragments the injector's storage failures never touch: CRIU
#: process images are the *process* state machine, not checkpoint data,
#: and quarantined objects are already dead.
_IMMUNE_FRAGMENTS = ("/criu/",)


class TornWriteError(OSError):
    """A write died mid-transfer; the object on the medium is partial."""

    def __init__(self, path: str):
        super().__init__(f"torn write: {path}")
        self.path = path


def match_fragment(path: str, fragment: str) -> bool:
    """Does a storage-failure target *fragment* select *path*?

    Empty fragment matches every checkpoint object.  A ``rankN`` fragment
    matches paths with a ``rankN/`` component or a ``rankN`` leaf (both
    the registry's ``.../rankN/data`` layout and the transparent hard
    path's ``.../rankN`` files).  CRIU images and quarantined objects are
    never matched.
    """
    if path.startswith(QUARANTINE_PREFIX):
        return False
    if any(frag in path for frag in _IMMUNE_FRAGMENTS):
        return False
    if not fragment:
        return True
    return (f"{fragment}/" in path or f"{fragment}." in path
            or path.endswith(fragment))


def consume_trap(traps: list[str], path: str) -> bool:
    """Pop the first armed trap in *traps* whose fragment selects *path*."""
    for i, fragment in enumerate(traps):
        if match_fragment(path, fragment):
            del traps[i]
            return True
    return False


def _flip_array_element(arr: np.ndarray, salt: int) -> bool:
    """Flip one bit of one element in-place; False if the array is inert."""
    if arr.size == 0 or arr.dtype == object:
        return False
    if arr.flags["C_CONTIGUOUS"] and arr.dtype.itemsize:
        bview = arr.reshape(-1).view(np.uint8)
        bview[salt % bview.size] ^= 0x40
        return True
    idx = salt % arr.size
    arr.flat[idx] = -arr.flat[idx] - 1  # non-contiguous fallback
    return True


def _leaves(container: Any) -> tuple[list, list]:
    """``(arrays, scalars)`` of a nested payload, in sorted-key order:
    ``(name, array)`` and ``(name, parent, key)`` entries."""
    arrays: list[tuple[str, np.ndarray]] = []
    scalars: list[tuple[str, Any, Any]] = []

    def walk(obj: Any, parent: Any, key: Any, name: str) -> None:
        if isinstance(obj, np.ndarray):
            arrays.append((name, obj))
        elif isinstance(obj, dict):
            for k in sorted(obj, key=str):
                walk(obj[k], obj, k, f"{name}/{k}" if name else str(k))
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, obj, i, f"{name}[{i}]")
        elif isinstance(obj, (str, int, float, bool)) and parent is not None:
            scalars.append((name, parent, key))

    walk(container, None, None, "")
    return arrays, scalars


def _flip_scalar(scalars: list, salt: int) -> Optional[str]:
    """Flip one scalar leaf held by a dict or list; returns its name."""
    mutable = [(n, p, k) for n, p, k in scalars if isinstance(p, (dict, list))]
    if not mutable:
        return None
    name, parent, key = mutable[salt % len(mutable)]
    value = parent[key]
    if isinstance(value, str):
        flipped = (chr(ord(value[0]) ^ 0x01) + value[1:]) if value else "\x01"
    elif isinstance(value, bool):
        flipped = not value
    else:
        flipped = value + 1
    parent[key] = flipped
    return name


def _rot_leaf(frozen: Framed, salt: int) -> tuple[Framed, Optional[str]]:
    """Bit-flip one leaf of a frozen payload; returns the payload to keep
    and the leaf's name (None when nothing could flip).

    Deterministic: leaves are enumerated in sorted-key order and *salt*
    selects the victim.  Arrays are preferred (payload corruption) and
    flip in place, where the frames read them live.  If the payload
    holds none — e.g. a manifest — a scalar leaf is flipped instead
    (metadata corruption).  Frozen containers refuse that, so the flip
    lands in a thawed copy and the copy is frozen again: the returned
    snapshot's frames describe the rotted bytes.
    """
    arrays, _ = _leaves(frozen.value)
    if arrays:
        name, arr = arrays[salt % len(arrays)]
        return frozen, (name if _flip_array_element(arr, salt) else None)
    payload = frozen.thaw().value
    leaf = _flip_scalar(_leaves(payload)[1], salt)
    return (frozen if leaf is None else freeze(payload)), leaf


class _BaseStore:
    def __init__(self, env: Environment, bandwidth: float, latency: float = 0.0,
                 name: str = "store"):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self._objects: dict[str, StoredObject] = {}
        #: Serialisation point for stores that cannot absorb parallel
        #: writers (local disk); None means writes proceed in parallel.
        self._resource: Optional[Resource] = None
        #: Armed torn-write traps (path fragments); the next matching
        #: write consumes one and dies mid-transfer.
        self._torn_traps: list[str] = []
        #: Armed bit-rot traps; the next matching write completes, then
        #: its stored payload rots silently.
        self._rot_traps: list[str] = []
        #: Paths quarantined so far, in order — append-only by contract.
        self.quarantine_log: list[str] = []
        #: Contract breaches: attempted mutation of quarantined objects.
        self.quarantine_violations: list[str] = []
        self.stats = {
            "writes_started": 0, "writes_completed": 0, "writes_torn": 0,
            "reads": 0, "renames": 0, "deletes": 0,
            "bit_rot_injected": 0, "quarantined": 0,
        }

    # -- timing -------------------------------------------------------------

    def transfer_time(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth

    # -- write/read ------------------------------------------------------------

    def write(self, path: str, payload: Any, nbytes: int) -> Generator:
        """Write *payload* under *path*; completes only if uninterrupted.

        The payload is frozen (:func:`~repro.storage.frozen.freeze`) at
        call time but only *installed* when the transfer finishes: a
        writer killed mid-way leaves a partial object whose payload can
        never be read, and a torn-write trap makes the write itself die
        half-way with :class:`TornWriteError`.  A payload already frozen
        by the caller (a :class:`~repro.storage.frozen.Framed` fresh from
        ``freeze``, e.g. one a manifest was just computed from) is
        adopted as is: it must not be handed to another write.
        """
        if self._guard_quarantine(path, "write"):
            raise TornWriteError(path)
        self.stats["writes_started"] += 1
        staged = payload if isinstance(payload, Framed) else freeze(payload)
        obj = StoredObject(path, None, nbytes)
        self._objects[path] = obj   # visible immediately, but incomplete
        duration = self.transfer_time(nbytes)
        torn = consume_trap(self._torn_traps, path)
        if torn:
            duration *= 0.5
        start = self.env.now
        try:
            if self._resource is not None:
                yield from self._resource.use(duration)
            else:
                yield self.env.timeout(duration)
        finally:
            if not obj.complete and duration > 0:
                elapsed = max(0.0, self.env.now - start)
                obj.written_bytes = min(nbytes,
                                        int(nbytes * elapsed / duration))
        if torn:
            self.stats["writes_torn"] += 1
            obj.written_bytes = min(obj.written_bytes, int(nbytes) // 2)
            raise TornWriteError(path)
        obj.install(staged)
        obj.created_at = self.env.now
        self.stats["writes_completed"] += 1
        if self.env.tracer.enabled:
            self.env.tracer.record(self.env.now, self.name, "store_write",
                                   path=path, nbytes=int(nbytes), started=start)
        if consume_trap(self._rot_traps, path):
            self._rot(obj, salt=self.stats["writes_completed"])

    def read(self, path: str) -> Generator:
        """Timed read; returns a fresh, writable copy of the payload."""
        copy = yield from self.read_framed(path)
        return copy.value

    def read_framed(self, path: str) -> Generator:
        """Timed read; returns the copy with its frames
        (:class:`~repro.storage.frozen.Framed`), so the caller can verify
        exactly the bytes it got without walking them again."""
        obj = self._objects.get(path)
        if obj is None or not obj.complete:
            raise FileNotFoundError(f"{self.name}:{path}")
        self.stats["reads"] += 1
        start = self.env.now
        if self._resource is not None:
            yield from self._resource.use(self.transfer_time(obj.nbytes))
        else:
            yield self.env.timeout(self.transfer_time(obj.nbytes))
        if self.env.tracer.enabled:
            self.env.tracer.record(self.env.now, self.name, "store_read",
                                   path=path, nbytes=int(obj.nbytes), started=start)
        return obj.payload

    def rename(self, src: str, dst: str) -> None:
        """Atomic, instantaneous publish: *dst* flips from absent (or its
        old object) to the complete object in one step."""
        if self._guard_quarantine(src, "rename-src"):
            return
        if self._guard_quarantine(dst, "rename-dst"):
            return
        obj = self._objects.pop(src, None)
        if obj is None:
            raise FileNotFoundError(f"{self.name}:{src}")
        obj.path = dst
        self._objects[dst] = obj
        self.stats["renames"] += 1
        if self.env.tracer.enabled:
            self.env.tracer.record(self.env.now, self.name, "store_commit",
                                   src=src, dst=dst)

    # -- metadata ------------------------------------------------------------------

    def exists(self, path: str) -> bool:
        obj = self._objects.get(path)
        return obj is not None and obj.complete

    def stat(self, path: str) -> Optional[StoredObject]:
        return self._objects.get(path)

    def list(self, prefix: str = "") -> list[str]:
        """Paths of *complete* objects under *prefix*, sorted."""
        return sorted(path for path, obj in self._objects.items()
                      if obj.complete and path.startswith(prefix))

    def delete(self, path: str) -> None:
        if self._guard_quarantine(path, "delete"):
            return
        if self._objects.pop(path, None) is not None:
            self.stats["deletes"] += 1

    def wipe(self) -> None:
        self._objects.clear()
        self.quarantine_log.clear()

    # -- failure modes -----------------------------------------------------------

    def arm_torn_write(self, fragment: str = "") -> bool:
        """The next write matching *fragment* dies mid-transfer."""
        self._torn_traps.append(fragment)
        return True

    def inject_bit_rot(self, fragment: str = "", salt: int = 0) -> bool:
        """Silently corrupt at-rest state matching *fragment*.

        Corrupts the newest matching complete object if one exists
        (preferring data objects over manifests); otherwise arms a trap
        that rots the next matching write the moment it completes.
        Returns True when an existing object was corrupted.
        """
        candidates = [obj for path, obj in self._objects.items()
                      if obj.complete and match_fragment(path, fragment)]
        if candidates:
            data = [o for o in candidates if "/meta" not in o.path
                    and not o.path.endswith(".manifest")]
            pool = data or candidates
            pool.sort(key=lambda o: (o.created_at or 0.0, o.path))
            self._rot(pool[-1], salt=salt)
            return True
        self._rot_traps.append(fragment)
        return False

    def _rot(self, obj: StoredObject, salt: int) -> None:
        obj.frozen, leaf = _rot_leaf(obj.frozen, salt)
        if leaf is not None:
            obj.rotted = True
            self.stats["bit_rot_injected"] += 1

    # -- quarantine ----------------------------------------------------------------

    def quarantine(self, path: str) -> Optional[str]:
        """Move *path* into the append-only quarantine namespace.

        Returns the quarantine path, or None if *path* does not exist.
        Quarantined objects can still be inspected (``stat``/``list``)
        but never deleted, renamed, overwritten or re-corrupted.
        """
        obj = self._objects.pop(path, None)
        if obj is None:
            return None
        qpath = QUARANTINE_PREFIX + path
        suffix = 0
        while qpath in self._objects:      # same path quarantined twice
            suffix += 1
            qpath = f"{QUARANTINE_PREFIX}{path}~{suffix}"
        obj.path = qpath
        self._objects[qpath] = obj
        self.quarantine_log.append(qpath)
        self.stats["quarantined"] += 1
        if self.env.tracer.enabled:
            self.env.tracer.record(self.env.now, self.name, "store_quarantine",
                                   path=path, quarantine=qpath)
        return qpath

    def _guard_quarantine(self, path: str, action: str) -> bool:
        if path.startswith(QUARANTINE_PREFIX):
            self.quarantine_violations.append(f"{action}:{path}")
            return True
        return False


class SharedObjectStore(_BaseStore):
    """Cluster-wide durable store (cloud blob / shared filesystem).

    Survives node loss; this is where JIT checkpoints and periodic
    checkpoints that must outlive a node are written.  Writers from
    different nodes proceed in parallel (object stores scale out).
    """

    def __init__(self, env: Environment, bandwidth: float, latency: float = 0.01):
        super().__init__(env, bandwidth, latency, name="shared")


class LocalDiskStore(_BaseStore):
    """Node-local SSD; writes serialise on the node's disk.

    Contents are lost if the node is replaced, which is why PC_disk alone
    cannot recover from hard node failures.
    """

    def __init__(self, env: Environment, node, latency: float = 1e-3):
        super().__init__(env, node.spec.disk_bandwidth, latency,
                         name=f"disk:{node.name}")
        self.node = node
        self._resource = node.disk


class TmpfsStore(_BaseStore):
    """RAM-backed filesystem on one node (PC_mem's first hop)."""

    def __init__(self, env: Environment, node, latency: float = 1e-5):
        super().__init__(env, node.spec.tmpfs_bandwidth, latency,
                         name=f"tmpfs:{node.name}")
        self.node = node
