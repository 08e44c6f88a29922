"""Checkpoint naming, atomic commit, validation and assembly.

Implements the Section 3.2/3.3 scheme, hardened to ckptkit grade:

* each rank writes its state under a rank-dependent path so simultaneous
  writers never collide;
* writes are atomic — data goes to a ``.part`` temp object and is
  published by rename, then a sha256 *manifest* covering every state
  entry is committed the same way.  A crash or torn write mid-transfer
  leaves only an unreadable partial temp object: the final path never
  names a lie;
* restore looks for a checkpoint from *any* data-parallel replica of the
  same shard (``jit_get_checkpoint_path``), newest complete one first, and
  also considers periodic checkpoints — "the most recent checkpoint will
  be used, which can be either a periodic checkpoint or a JIT checkpoint"
  (Section 6.3);
* reads are validated against the manifest; corrupt checkpoints (bit rot
  at rest) are quarantined and the resume planner falls back to the
  newest checkpoint that still validates;
* retention GC consults the validator so it never collects the last
  valid restore point.

Every discovery, planning and GC call works on one :class:`_Scan`: a
single listing of the job's checkpoints in which each key is validated
at most once.  A scan lives for one synchronous call only.  Rot at rest
is silent, so a verdict from an earlier call could be stale; the next
call lists and hashes again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Optional

from repro.storage.manifest import write_with_manifest
from repro.storage.planner import ResumePlanner, RetentionPolicy
from repro.storage.stores import SharedObjectStore
from repro.storage.validate import CheckpointValidator, CorruptCheckpointError


@dataclass(frozen=True)
class CheckpointKey:
    """Identity of one complete shard checkpoint."""

    kind: str          # "jit" | "periodic"
    epoch: int         # JIT: failure generation; periodic: iteration index
    shard_id: str
    rank: int
    iteration: int     # iteration to resume at

    @property
    def data_path(self) -> str:
        return (f"ckpt/{self.kind}/epoch{self.epoch}/{self.shard_id}/"
                f"rank{self.rank}/data")

    @property
    def meta_path(self) -> str:
        return (f"ckpt/{self.kind}/epoch{self.epoch}/{self.shard_id}/"
                f"rank{self.rank}/meta")


#: Discoverable checkpoint kinds, in listing order: a JIT checkpoint is
#: listed before a periodic one, so it wins exact ties.
_KINDS = ("jit", "periodic")


class _Scan:
    """One call's view of a job's complete checkpoints.

    Built from one ``store.list``; keys are grouped by shard in listing
    order.  :meth:`valid_at` validates a key at most once per scan and
    condemns one that fails, then drops every entry the quarantine took
    away, so the scan keeps matching what a fresh listing would return.
    Build a new scan for every call: rot at rest is silent, so no
    verdict may be trusted once simulated time has passed.
    """

    def __init__(self, registry: "CheckpointRegistry"):
        self._registry = registry
        store = registry.store
        prefix = registry._prefix("ckpt/")
        #: shard_id -> [(listed meta path, key)], in listing order.
        self._entries: dict[str, list[tuple[str, CheckpointKey]]] = {}
        self._valid: set[CheckpointKey] = set()
        for meta_path in store.list(prefix):
            if (not meta_path.endswith("/meta")
                    or meta_path[len(prefix):].split("/", 1)[0] not in _KINDS):
                continue
            meta = store.stat(meta_path).peek()
            try:
                key = CheckpointKey(kind=meta["kind"], epoch=meta["epoch"],
                                    shard_id=meta["shard_id"],
                                    rank=meta["rank"],
                                    iteration=meta["iteration"])
            except (KeyError, TypeError):
                continue    # malformed/rotted meta record: not discoverable
            # Metadata implies the data object committed first, but verify:
            # a crash between data-complete and meta-complete is benign,
            # the reverse would be a torn checkpoint.
            if store.exists(registry._prefix(key.data_path)):
                self._entries.setdefault(key.shard_id, []).append(
                    (meta_path, key))

    def keys(self, shard_id: str) -> list[CheckpointKey]:
        return [key for _, key in self._entries.get(shard_id, ())]

    def candidates(self, shard_id: str, iteration: int) -> list[CheckpointKey]:
        """Keys of *shard_id* at *iteration*, best (newest epoch, lowest
        rank) first; equal keys keep listing order."""
        return sorted(
            (k for k in self.keys(shard_id) if k.iteration == iteration),
            key=lambda k: (k.epoch, -k.rank), reverse=True)

    def valid_at(self, shard_id: str,
                 iteration: int) -> Optional[CheckpointKey]:
        """Best candidate at *iteration* that validates, condemning every
        better one that fails; None when none validates."""
        registry = self._registry
        for key in self.candidates(shard_id, iteration):
            if key in self._valid:
                return key
            data_path = registry._prefix(key.data_path)
            meta_path = registry._prefix(key.meta_path)
            result = registry.validator.validate_at_rest(data_path, meta_path)
            if result.ok:
                self._valid.add(key)
                return key
            registry.validator.condemn(data_path, meta_path, result.detail)
            self._prune()
        return None

    def common(self, shard_ids: Iterable[str],
               bound: Optional[int] = None) -> set[int]:
        """Iterations below *bound* (any, if None) at which every shard
        has a checkpoint, validated or not."""
        common: Optional[set[int]] = None
        for shard_id in sorted(set(shard_ids)):
            iterations = {k.iteration for k in self.keys(shard_id)
                          if bound is None or k.iteration < bound}
            common = iterations if common is None else common & iterations
            if not common:
                return set()
        return common or set()

    def latest_valid(self, shard_ids: Iterable[str],
                     bound: Optional[int] = None) -> Optional[int]:
        """Newest iteration below *bound* (any, if None) at which every
        shard has a checkpoint that validates."""
        shards = sorted(set(shard_ids))
        for iteration in sorted(self.common(shards, bound), reverse=True):
            if all(self.valid_at(s, iteration) is not None for s in shards):
                return iteration
        return None

    def _prune(self) -> None:
        """Drop entries whose meta or data object has left the store."""
        exists, prefix = self._registry.store.exists, self._registry._prefix
        for entries in self._entries.values():
            entries[:] = [
                (meta_path, key) for meta_path, key in entries
                if exists(meta_path) and exists(prefix(key.data_path))]


class CheckpointRegistry:
    """All checkpoint reads/writes for one job against the shared store."""

    def __init__(self, store: SharedObjectStore, job_id: str = "job0",
                 retention: Optional[RetentionPolicy] = None):
        self.store = store
        self.job_id = job_id
        self.retention = retention
        self.validator = CheckpointValidator(store)
        self.planner = ResumePlanner(self)

    def _prefix(self, path: str) -> str:
        return f"{self.job_id}/{path}"

    # -- writing ---------------------------------------------------------------------

    def write(self, key: CheckpointKey, state: dict, nbytes: int) -> Generator:
        """Atomic write: data (temp + rename), then the manifest.

        Both transfers are timed and kill-safe; a kill or torn write
        leaves at most a partial ``.part`` object and never a published
        manifest, so readers cannot observe a half-written checkpoint.
        Raises :class:`~repro.storage.stores.TornWriteError` if the store
        tears the transfer.  The state is frozen once, and the manifest
        is hashed from that snapshot.
        """
        yield from write_with_manifest(
            self.store, self._prefix(key.data_path),
            self._prefix(key.meta_path), state, nbytes,
            meta={"iteration": key.iteration, "shard_id": key.shard_id,
                  "rank": key.rank, "kind": key.kind, "epoch": key.epoch})

    # -- discovery -------------------------------------------------------------------

    def scan(self) -> _Scan:
        """A fresh listing for one synchronous call; never keep it."""
        return _Scan(self)

    def jit_get_checkpoint_path(self, shard_id: str) -> Optional[CheckpointKey]:
        """The library call of Section 3.3: best checkpoint for a shard.

        Any data-parallel replica's checkpoint is acceptable; newest
        iteration wins, JIT and periodic considered together.
        """
        candidates = self.scan().keys(shard_id)
        if not candidates:
            return None
        return max(candidates, key=lambda k: (k.iteration, k.epoch, -k.rank))

    def iterations_for(self, shard_id: str) -> set[int]:
        """All iterations with a discoverable checkpoint for *shard_id*."""
        return {k.iteration for k in self.scan().keys(shard_id)}

    def latest_consistent_iteration(self, shard_ids: list[str]) -> Optional[int]:
        """Largest iteration for which *every* shard has a checkpoint."""
        common = self.scan().common(shard_ids)
        return max(common) if common else None

    # -- reading -----------------------------------------------------------------------

    def checkpoint_at(self, shard_id: str,
                      iteration: int) -> Optional[CheckpointKey]:
        """A complete checkpoint of *shard_id* at exactly *iteration*."""
        candidates = self.scan().candidates(shard_id, iteration)
        return candidates[0] if candidates else None

    def valid_checkpoint_at(self, shard_id: str,
                            iteration: int) -> Optional[CheckpointKey]:
        """Like :meth:`checkpoint_at`, but manifest-validated.

        Candidates that fail validation are condemned (quarantined) on
        the spot; the best surviving one is returned, or None when every
        replica at this iteration is corrupt.
        """
        return self.scan().valid_at(shard_id, iteration)

    def read(self, key: CheckpointKey) -> Generator:
        """Timed read of a checkpoint's data payload (unvalidated)."""
        state = yield from self.store.read(self._prefix(key.data_path))
        return state

    def read_validated(self, key: CheckpointKey) -> Generator:
        """Timed read plus manifest verification of the payload.

        Corruption condemns the checkpoint and raises
        :class:`~repro.storage.validate.CorruptCheckpointError` so the
        caller can fall back to another replica.  The digests are taken
        over the very copy returned.
        """
        data_path = self._prefix(key.data_path)
        meta_path = self._prefix(key.meta_path)
        state = yield from self.store.read_framed(data_path)
        result = self.validator.verify_read(state, meta_path, data_path)
        if not result.ok:
            self.validator.condemn(data_path, meta_path, result.detail)
            raise CorruptCheckpointError(data_path, result.detail)
        return state.value

    def read_valid_replica(self, key: CheckpointKey) -> Generator:
        """Validated read of *key*, falling back to replicas on corruption.

        Rot may race the restore plan: a read that fails validation
        quarantines that replica, and the next valid checkpoint of the
        same shard at the same iteration is read instead.  Raises
        :class:`RuntimeError` once no valid replica is left.
        """
        shard_id, iteration = key.shard_id, key.iteration
        while True:
            try:
                return (yield from self.read_validated(key))
            except CorruptCheckpointError:
                key = self.valid_checkpoint_at(shard_id, iteration)
                if key is None:
                    raise RuntimeError(
                        f"no valid checkpoint left for {shard_id} "
                        f"at iteration {iteration}")

    def shard_has_checkpoint(self, shard_id: str) -> bool:
        return self.jit_get_checkpoint_path(shard_id) is not None

    # -- validated resume planning --------------------------------------------------------

    def latest_valid_consistent_iteration(
            self, shard_ids: Iterable[str]) -> Optional[int]:
        """Largest iteration every shard can restore *with integrity*."""
        return self.scan().latest_valid(shard_ids)

    # -- garbage collection --------------------------------------------------------------

    def garbage_collect(self, shard_ids: list[str],
                        keep_iterations: int = 2,
                        retention: Optional[RetentionPolicy] = None) -> int:
        """Thin old checkpoints per the retention policy; returns the
        number of checkpoints removed.

        Consults the validator: the newest *valid* mutually-consistent
        iteration and each shard's newest valid iteration are always
        retained, so GC can never collect the last valid restore point
        even when everything newer is corrupt.  The policy applies to the
        iterations every shard shares as well as to each shard's own:
        torn writes on different shards would otherwise leave the shards
        one consistent restore point between them, which a single bit rot
        destroys.  One scan serves the whole call, so each shard's newest
        valid iteration reuses the verdicts behind the protected one.
        """
        policy = (retention or self.retention
                  or RetentionPolicy(keep_last=keep_iterations))
        shards = set(shard_ids)
        scan = self.scan()
        protected = scan.latest_valid(shards)
        shared = policy.kept(scan.common(shards))
        removed = 0
        for shard_id in shards:
            keys = scan.keys(shard_id)
            keep = policy.kept(k.iteration for k in keys) | shared
            if protected is not None:
                keep.add(protected)
            newest_valid = scan.latest_valid([shard_id])
            if newest_valid is not None:
                keep.add(newest_valid)
            for key in keys:
                if key.iteration not in keep:
                    self.store.delete(self._prefix(key.data_path))
                    self.store.delete(self._prefix(key.meta_path))
                    removed += 1
        return removed
