"""Stored objects: named blobs with logical sizes and completion markers."""

from __future__ import annotations

from typing import Any, Optional

from repro.storage.frozen import Framed


class StoredObject:
    """One blob in a store.

    ``complete`` flips true only when the writing process survives the full
    transfer; a writer killed mid-write leaves a *partial* object — the
    payload is never installed, ``written_bytes`` records how far the
    transfer got, and reads fail.  This models real torn writes: a partial
    object can be *seen* (``stat``) but never *read*, so a mid-write kill
    can never yield a readable-but-wrong checkpoint.

    The payload is held frozen (:mod:`repro.storage.frozen`): a
    store-private copy in read-only containers, with the frames that hash
    it.  At rest only its array bytes can change, in place; anything
    else goes through the store, which installs a new snapshot.
    """

    __slots__ = ("path", "frozen", "nbytes", "complete", "created_at",
                 "written_bytes", "rotted")

    def __init__(self, path: str, frozen: Optional[Framed], nbytes: int):
        self.path = path
        #: The frozen payload; None until a completed write installs it.
        self.frozen: Optional[Framed] = None
        self.nbytes = int(nbytes)
        self.complete = False
        self.created_at: Optional[float] = None
        #: Bytes that made it to the medium; < nbytes for torn writes.
        self.written_bytes = 0
        #: Debug marker: a bit-rot injection touched this payload.  Real
        #: systems have no such flag — nothing in the read/validate path
        #: may consult it; only tests and the tracer do.
        self.rotted = False
        if frozen is not None:
            self.install(frozen)

    def install(self, frozen: Framed) -> None:
        """Publish a frozen payload (write completed)."""
        self.frozen = frozen
        self.complete = True
        self.written_bytes = self.nbytes

    @property
    def payload(self) -> Optional[Framed]:
        """What a read hands out: a fresh, writable copy of the payload
        with its frames (``.value`` is the payload itself).

        Partial objects have no readable payload (``None``): the bytes on
        the medium are torn and must never deserialise into a checkpoint.
        """
        if not self.complete:
            return None
        return self.frozen.thaw()

    def peek(self) -> Any:
        """The stored payload itself, no copy — integrity checks only.

        Its containers are read-only; its arrays are the store's own.
        """
        if not self.complete:
            return None
        return self.frozen.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.complete else (
            f"partial({self.written_bytes}/{self.nbytes}B)")
        return f"<StoredObject {self.path} {self.nbytes}B {state}>"
