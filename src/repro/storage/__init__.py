"""Checkpoint storage: stores, manifests, validation, resume planning.

Checkpoint durability is central to both the periodic baselines (PC_disk
writes to local disk in the critical path, PC_mem to tmpfs with an async
upload) and to JIT checkpointing (healthy ranks write their GPU state to a
shared store during recovery, Section 3.2).  All stores model transfer
time from logical byte counts and implement the paper's atomic-commit
scheme in full: payload objects are written to a temp path and published
by rename, a sha256 manifest covering every state entry is written last,
and restore paths validate manifests on read (Section 3.3).  Corrupt
checkpoints are quarantined and the resume planner falls back to the
newest checkpoint that still validates.
"""

from repro.storage.frozen import entry_digests, value_digest
from repro.storage.manifest import (
    MANIFEST_NBYTES,
    Manifest,
    manifest_path,
    write_atomic,
    write_with_manifest,
)
from repro.storage.objects import StoredObject
from repro.storage.planner import (
    PLAN_POLICIES,
    PlanDecision,
    ResumePlanner,
    RetentionPolicy,
)
from repro.storage.stores import (
    QUARANTINE_PREFIX,
    LocalDiskStore,
    SharedObjectStore,
    TmpfsStore,
    TornWriteError,
    match_fragment,
)
from repro.storage.validate import (
    CheckpointValidator,
    CorruptCheckpointError,
    QuarantineRecord,
    ValidationResult,
    verify_payload,
)

__all__ = [
    "CheckpointValidator",
    "CorruptCheckpointError",
    "LocalDiskStore",
    "MANIFEST_NBYTES",
    "Manifest",
    "PLAN_POLICIES",
    "PlanDecision",
    "QUARANTINE_PREFIX",
    "QuarantineRecord",
    "ResumePlanner",
    "RetentionPolicy",
    "SharedObjectStore",
    "StoredObject",
    "TmpfsStore",
    "TornWriteError",
    "ValidationResult",
    "entry_digests",
    "manifest_path",
    "match_fragment",
    "value_digest",
    "verify_payload",
    "write_atomic",
    "write_with_manifest",
]
