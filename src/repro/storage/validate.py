"""Checkpoint validation and quarantine.

The validator is the read-side half of the manifest protocol
(:mod:`repro.storage.manifest`): it recomputes entry digests over a
checkpoint's payload and compares them against the published manifest.
Any mismatch — rotted payload, rotted manifest, missing data — condemns
the checkpoint: it is moved to the store's append-only ``quarantine/``
namespace so restarts never trip over it again and the corruption is
preserved for forensics.

Two validation flavours:

* :meth:`CheckpointValidator.validate_at_rest` — instantaneous digest
  check against the stored object (models metadata-scale verification at
  resume-*planning* time, where strategies pick a restore point);
* :meth:`CheckpointValidator.verify_read` — applied to a payload already
  paid for by a timed read (the belt-and-braces check restore performs).

The validator hashes stored snapshots and read copies through their
frames (:mod:`repro.storage.frozen`): every byte, one sha256 per entry,
no tree walk.  ``verify_payload`` is a module-level pure function that
walks the tree instead, so oracle audits can re-verify decisions
independently of a (possibly deliberately broken) validator instance —
the mutation-testing hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.storage.frozen import Framed, entry_digests
from repro.storage.manifest import Manifest
from repro.storage.stores import _BaseStore


class CorruptCheckpointError(RuntimeError):
    """A checkpoint failed manifest validation (quarantined)."""

    def __init__(self, path: str, detail: str):
        super().__init__(f"corrupt checkpoint {path}: {detail}")
        self.path = path
        self.detail = detail


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of checking one checkpoint against its manifest."""

    path: str
    ok: bool
    #: Entry names whose digests mismatched (empty when the failure is
    #: structural: missing data, missing/rotted manifest).
    bad_entries: tuple[str, ...] = ()
    detail: str = ""


def verify_payload(payload: Any, manifest: Optional[Manifest],
                   path: str = "?") -> ValidationResult:
    """Pure manifest-vs-payload check; no store access, no quarantine.

    Walks the payload's tree (a :class:`~repro.storage.frozen.Framed`'s
    value; its frames are ignored): the reference the framed check in
    :meth:`CheckpointValidator.verify` is audited against.
    """
    if isinstance(payload, Framed):
        payload = payload.value
    if not isinstance(payload, Mapping):
        payload = {"__payload__": payload}
    return _verdict(lambda: entry_digests(payload), manifest, path)


def _verdict(digests: Callable[[], dict], manifest: Optional[Manifest],
             path: str) -> ValidationResult:
    """Compare *digests()* against *manifest* (hashed only if it is
    intact)."""
    if manifest is None:
        return ValidationResult(path, False, detail="no manifest")
    if not manifest.intact:
        return ValidationResult(path, False,
                                detail="manifest failed its self-digest")
    got = digests()
    if got == manifest.entries:
        return ValidationResult(path, True)
    bad = sorted(set(manifest.entries) ^ set(got)
                 | {k for k in manifest.entries
                    if got.get(k, manifest.entries[k]) != manifest.entries[k]})
    return ValidationResult(path, False, bad_entries=tuple(bad),
                            detail=f"digest mismatch: {', '.join(bad)}")


@dataclass
class QuarantineRecord:
    """One condemned checkpoint (kept for reporting/invariants)."""

    data_path: str
    quarantine_path: Optional[str]
    detail: str
    time: float


class CheckpointValidator:
    """Manifest checks plus quarantine bookkeeping for one store."""

    def __init__(self, store: _BaseStore):
        self.store = store
        self.quarantined: list[QuarantineRecord] = []
        self.checks = 0

    # -- checks ---------------------------------------------------------------

    def verify(self, payload: Framed, manifest: Optional[Manifest],
               path: str = "?") -> ValidationResult:
        """Instance-level check — the hook mutation tests break.

        Hashes the payload through its frames: every byte, no walk.
        """
        self.checks += 1
        return _verdict(payload.entry_digests, manifest, path)

    def manifest_at(self, meta_path: str) -> Optional[Manifest]:
        obj = self.store.stat(meta_path)
        if obj is None or not obj.complete:
            return None
        return Manifest.from_payload(obj.peek())

    def validate_at_rest(self, data_path: str,
                         meta_path: str) -> ValidationResult:
        """Digest check straight against stored objects (untimed).

        Models the metadata-scale verification pass resume planning runs
        before committing to a restore point.
        """
        obj = self.store.stat(data_path)
        if obj is None or not obj.complete:
            return ValidationResult(data_path, False, detail="no data object")
        return self.verify(obj.frozen, self.manifest_at(meta_path),
                           path=data_path)

    def verify_read(self, payload: Framed, meta_path: str,
                    data_path: str) -> ValidationResult:
        """Check the copy a timed ``read_framed`` returned."""
        return self.verify(payload, self.manifest_at(meta_path),
                           path=data_path)

    # -- quarantine -------------------------------------------------------------

    def condemn(self, data_path: str, meta_path: Optional[str],
                detail: str) -> None:
        """Quarantine a checkpoint's data (and manifest) objects."""
        qpath = self.store.quarantine(data_path)
        if meta_path is not None:
            self.store.quarantine(meta_path)
        self.quarantined.append(QuarantineRecord(
            data_path=data_path, quarantine_path=qpath, detail=detail,
            time=self.store.env.now))
