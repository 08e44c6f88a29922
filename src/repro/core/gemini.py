"""Gemini-style in-memory checkpointing baseline [Wang et al., SOSP'23].

The paper's related work contrasts JIT checkpointing with Gemini, which
"checkpoints GPU state to local and remote CPUs, and interleaves
checkpointing communication traffic into gaps between training traffic, to
reduce overheads and enable checkpointing on every iteration" — and notes
that it "does not leverage the data parallelism in large model training
jobs, which makes such copying unnecessary, since replica GPUs already
have the model and optimizer state".

This module implements that baseline so the claim is testable: every
iteration, each writer rank snapshots its shard into a *buddy node's* CPU
RAM.  Most of the copy hides in training-traffic gaps; only the un-hidden
remainder stalls the job.  On failure, ranks restore from buddy RAM —
fast, and at most one iteration behind, like JIT — but the steady-state
network traffic is paid every single iteration, for state a replica
already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.cluster.manager import JobManager, RunReport
from repro.cluster.worker import InitCosts
from repro.sim import Environment
from repro.storage.frozen import Framed, freeze
from repro.storage.stores import _rot_leaf, consume_trap, match_fragment
from repro.workloads.catalog import WorkloadSpec


@dataclass
class _RamEntry:
    iteration: int
    #: In a slot, the frozen snapshot (a Framed); in what ``get`` returns,
    #: the caller's writable copy of the state.
    state: Any
    nbytes: int
    #: Digest of the state at put time; buddy-RAM's one-entry manifest.
    digest: str = ""


class PeerRamStore:
    """CPU-RAM checkpoint slots, one namespace per node.

    Entries die with their node: reads check that the hosting node is
    still alive, which is what makes buddy *placement* matter.

    Speaks the same storage-failure protocol as the object stores: a
    torn-write trap makes the next matching RDMA copy into buddy RAM
    vanish (puts are atomic slot swaps, so nothing partial is visible),
    and bit rot flips a leaf of an at-rest entry — caught at restore
    time because every entry carries a digest taken at put time.  Slots
    hold frozen snapshots (:mod:`repro.storage.frozen`), like the object
    stores: a put freezes once, a get thaws a fresh copy and hashes that
    copy through its frames.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._slots: dict[str, dict[str, _RamEntry]] = {}
        self._nodes: dict[str, object] = {}
        self._torn_traps: list[str] = []
        self._rot_traps: list[str] = []
        #: Keys dropped after failing their digest check, in order.
        self.quarantine_log: list[str] = []
        self.stats = {"puts": 0, "writes_torn": 0, "bit_rot_injected": 0,
                      "quarantined": 0}

    def register_node(self, node) -> None:
        self._nodes[node.name] = node
        self._slots.setdefault(node.name, {})

    # -- failure protocol (mirrors _BaseStore) -----------------------------------

    def arm_torn_write(self, fragment: str = "") -> bool:
        self._torn_traps.append(fragment)
        return True

    def inject_bit_rot(self, fragment: str = "", salt: int = 0) -> bool:
        entries = [(entry.iteration, key, entry)
                   for slots in self._slots.values()
                   for key, entry in slots.items()
                   if match_fragment(key, fragment)]
        if entries:
            entries.sort(key=lambda t: (t[0], t[1]))
            _, _, victim = entries[-1]
            self._rot(victim, salt)
            return True
        self._rot_traps.append(fragment)
        return False

    def _rot(self, entry: _RamEntry, salt: int) -> None:
        entry.state, leaf = _rot_leaf(entry.state, salt)
        if leaf is not None:
            self.stats["bit_rot_injected"] += 1

    # -- slots ------------------------------------------------------------------

    def put(self, node_name: str, key: str, iteration: int, state: dict,
            nbytes: int) -> bool:
        if consume_trap(self._torn_traps, key):
            self.stats["writes_torn"] += 1
            return False  # the copy tore; the old slot (if any) survives
        frozen = freeze(state)
        entry = _RamEntry(iteration, frozen, nbytes, digest=frozen.digest())
        if consume_trap(self._rot_traps, key):
            self._rot(entry, salt=iteration)
        self._slots[node_name][key] = entry
        self.stats["puts"] += 1
        return True

    def _read(self, node_name: str,
              key: str) -> Optional[tuple[_RamEntry, Framed]]:
        """A slot's entry over a fresh copy of its state, and that copy's
        frames; None when the slot or its node is gone."""
        node = self._nodes.get(node_name)
        if node is None or not node.alive:
            return None  # the RAM died with the node
        entry = self._slots.get(node_name, {}).get(key)
        if entry is None:
            return None
        copy = entry.state.thaw()
        return (_RamEntry(entry.iteration, copy.value, entry.nbytes,
                          digest=entry.digest), copy)

    def get(self, node_name: str, key: str) -> Optional[_RamEntry]:
        found = self._read(node_name, key)
        return None if found is None else found[0]

    def get_validated(self, node_name: str, key: str) -> Optional[_RamEntry]:
        """Like :meth:`get`, but a digest mismatch drops the slot."""
        found = self._read(node_name, key)
        if found is None:
            return None
        entry, copy = found
        if entry.digest and copy.digest() != entry.digest:
            del self._slots[node_name][key]
            self.quarantine_log.append(f"{node_name}/{key}")
            self.stats["quarantined"] += 1
            return None
        return entry


@dataclass(frozen=True)
class GeminiPolicy:
    """Per-iteration buddy-RAM checkpointing configuration."""

    #: Fraction of the copy hidden inside training-traffic gaps (Gemini's
    #: interleaving; the remainder stalls the iteration).
    overlap_fraction: float = 0.8
    #: Checkpoint every k iterations (Gemini's headline is k=1).
    interval_iterations: int = 1


class GeminiCheckpointer:
    """Per-rank step hook: snapshot to the buddy node's RAM."""

    def __init__(self, env: Environment, policy: GeminiPolicy,
                 ram: PeerRamStore, spec: WorkloadSpec, rank: int,
                 buddy_node_name: str, bandwidth: float):
        self.env = env
        self.policy = policy
        self.ram = ram
        self.spec = spec
        self.rank = rank
        self.buddy_node_name = buddy_node_name
        self.bandwidth = bandwidth
        self.checkpoints_taken = 0
        self.stall_seconds = 0.0

    def _key(self, engine) -> str:
        return f"{engine.shard_id}/rank{self.rank}"

    def hook(self, worker) -> Generator:
        engine = worker.engine
        iteration = engine.iteration
        if iteration == 0 or iteration % self.policy.interval_iterations:
            return
        yield from engine.api.device_synchronize()
        start = self.env.now
        nbytes = engine.state_bytes
        copy_time = nbytes / self.bandwidth
        stall = copy_time * (1.0 - self.policy.overlap_fraction)
        if stall > 0:
            yield self.env.timeout(stall)
        self.ram.put(self.buddy_node_name, self._key(engine), iteration,
                     engine.state_dict(), nbytes)
        self.checkpoints_taken += 1
        self.stall_seconds += self.env.now - start


class GeminiRunner:
    """Run a workload under per-iteration buddy-RAM checkpointing."""

    def __init__(self, env: Environment, spec: WorkloadSpec,
                 target_iterations: int,
                 policy: Optional[GeminiPolicy] = None,
                 init_costs: Optional[InitCosts] = None,
                 progress_timeout: float = 30.0):
        self.env = env
        self.spec = spec
        self.policy = policy or GeminiPolicy()
        self.manager = JobManager(env, spec, target_iterations,
                                  init_costs=init_costs,
                                  progress_timeout=progress_timeout)
        self.ram = PeerRamStore(env)
        for node in self.manager.cluster.nodes + self.manager.cluster._spares:
            self.ram.register_node(node)
        self.checkpointers: list[GeminiCheckpointer] = []

    def _buddy_of(self, job, rank: int) -> str:
        """The next node round-robin (or the local node on 1-node jobs)."""
        nodes = [n.name for n in job.cluster.nodes]
        my_node = job.contexts[rank].node.name
        index = nodes.index(my_node)
        return nodes[(index + 1) % len(nodes)]

    def _bandwidth(self, job, rank: int, buddy: str) -> float:
        my_node = job.contexts[rank].node.name
        if my_node == buddy:
            return job.contexts[rank].gpu.spec.pcie_bandwidth
        return job.cluster.fabric.interconnect.bandwidth

    def _make_step_hook(self, generation: int, rank: int, job):
        engine = job.engines[rank]
        if not getattr(engine, "is_checkpoint_writer", True):
            return None
        buddy = self._buddy_of(job, rank)
        checkpointer = GeminiCheckpointer(
            self.env, self.policy, self.ram, self.spec, rank, buddy,
            bandwidth=self._bandwidth(job, rank, buddy))
        self.checkpointers.append(checkpointer)
        return checkpointer.hook

    def _make_restore_fn(self, generation: int, rank: int, job):
        engine = job.engines[rank]

        def restore(worker) -> Generator:
            # Any replica's buddy slot serves this shard; newest wins.
            best: Optional[_RamEntry] = None
            best_node: Optional[str] = None
            for node_name in self.ram._slots:
                for key in list(self.ram._slots[node_name]):
                    if not key.startswith(f"{engine.shard_id}/"):
                        continue
                    entry = self.ram.get_validated(node_name, key)
                    if entry and (best is None
                                  or entry.iteration > best.iteration):
                        best, best_node = entry, node_name
            if best is None:
                return  # buddy RAM lost: cold start
            transfer = best.nbytes / self._bandwidth(job, rank, best_node)
            yield self.env.timeout(transfer)
            engine.load_state_dict(best.state)

        return restore

    def run(self) -> Generator:
        report = yield from self.manager.run(
            make_step_hook=self._make_step_hook,
            make_restore_fn=self._make_restore_fn)
        return report

    def execute(self) -> RunReport:
        return self.env.run(until=self.env.process(self.run(),
                                                   name="gemini-runner"))

    @property
    def total_checkpoint_stall(self) -> float:
        return sum(c.stall_seconds for c in self.checkpointers)
