"""The four benchmark workloads.

Every workload is built from the benchmark seed alone and is driven as a
closed loop by one client: op *i + 1* is prepared only after op *i*
returned and was checked.  A workload exposes

* ``__init__(seed)`` — set-up: imports, reference state and warm-up.
  Everything here is paid before the first op and counts as ``setup_s``;
* ``prepare(index) -> Op`` — builds op *index*'s inputs outside any timing;
* ``Op.call()`` — the calls into ``repro``'s public API that are timed
  (and, in the traced run, profiled);
* ``check(op, result) -> list[str]`` — verifies the outputs outside any
  timing, returns the problems found (empty when the op is correct),
  and appends a deterministic record of what the op computed to
  ``records`` (the traced run must reproduce it exactly);
* ``tally`` — deterministic simulated quantities summed over checked ops.

Imported only by the worker process, which puts the checkout's ``src``
on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from repro.campaign import CampaignRunner, CampaignSpec
from repro.core.checkpoints import CheckpointKey, CheckpointRegistry
from repro.failures import FailureType, PoissonSchedule
from repro.hardware import Cluster, ClusterSpec
from repro.hardware.specs import V100_NODE
from repro.obs import BUCKETS
from repro.oracle import STRATEGIES, RecoveryOracle, default_oracle_spec
from repro.parallel.topology import ParallelLayout
from repro.sim import Environment
from repro.storage import RetentionPolicy, SharedObjectStore, TornWriteError
from repro.workloads import WORKLOADS as CATALOG
from repro.workloads import TrainingJob, WorkloadSpec


@dataclass
class Op:
    """One closed-loop request: ``call()`` is the timed part."""

    index: int
    kind: str
    call: Callable[[], Any]
    data: Any = None
    #: Host seconds of sub-steps, by op kind, filled in by ``call``
    #: (``ckpt-churn`` splits an epoch into saves, restore and GC).
    subtimes: dict[str, list[float]] = field(default_factory=dict)


def losses_digest(losses) -> str:
    """Bit-exact digest of per-rank loss streams."""
    h = hashlib.sha256()
    for rank_losses in losses:
        h.update(np.asarray(rank_losses, dtype=np.float64).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


def same_bits(a: Any, b: Any) -> bool:
    """Recursive bitwise equality of checkpoint states."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_bits(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_bits(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and repr(a) == repr(b)


class Workload:
    name = ""
    #: About a quarter of the ops an untraced run of the default length
    #: completes on the reference host: the traced run's length, and the
    #: op after which an untraced run reads its peak RSS (so that a
    #: faster program, doing more ops per run, is not charged for the
    #: allocator's slow growth over a longer run).
    quarter_ops = 0
    #: Per-layer metric of each op kind's p50 latency, ``{}`` = the kind.
    kind_metric: Optional[str] = None
    #: Per-layer metric -> (sub-step of ``Op.subtimes``, percentile).
    sub_metrics: dict[str, tuple[str, float]] = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.records: list[dict] = []
        self.tally: dict[str, float] = {}

    def add(self, key: str, amount) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    def prepare(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> list[str]:
        raise NotImplementedError

    def layer_metrics(self, counts: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics derived from ``tally`` and the profiled
        call *counts* (both deterministic)."""
        return {"sim.events": self.tally.get("events", 0)}


class OracleSweep(Workload):
    """Fuzzed schedules × all six strategies through ``RecoveryOracle.check``."""

    name = "oracle-sweep"
    quarter_ops = 24
    kind_metric = "core.{}_p50_ms"
    ITERATIONS = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        self.oracle = RecoveryOracle(iterations=self.ITERATIONS)
        for strategy in STRATEGIES:
            self.oracle.golden(strategy)
        self._fuzzer = self.oracle.fuzzer(seed)
        self._schedule = None
        self.tally = {"non_exact": 0, "expected": Fraction(0),
                      **{bucket: Fraction(0) for bucket in BUCKETS}}

    def prepare(self, index: int) -> Op:
        if index % len(STRATEGIES) == 0:
            self._schedule = self._fuzzer.draw()
        strategy = STRATEGIES[index % len(STRATEGIES)]
        return Op(index, strategy,
                  partial(self.oracle.check, self._schedule, strategy),
                  data=self.oracle.events_processed)

    def check(self, op: Op, verdict) -> list[str]:
        problems = []
        ledger = verdict.ledger
        if ledger is None or not ledger.balanced:
            problems.append(f"{op.kind} {verdict.schedule.describe()}: "
                            f"goodput ledger not balanced")
        else:
            for bucket in BUCKETS:
                self.tally[bucket] += ledger.buckets[bucket]
            self.tally["expected"] += ledger.expected
        # Non-exact verdicts are the oracle doing its job on known
        # timing-edge bugs of the simulated strategies; they are counted,
        # not failed.
        self.tally["non_exact"] += not verdict.passed
        events = self.oracle.events_processed - op.data
        self.add("events", events)
        self.records.append({
            "strategy": op.kind, "schedule": verdict.schedule.to_json(),
            "outcome": verdict.outcome, "events": events,
            "buckets": [str(ledger.buckets[b]) for b in BUCKETS]
            if ledger is not None else None})
        return problems

    def layer_metrics(self, counts: dict[str, int]) -> dict[str, float]:
        t = self.tally
        return {
            **super().layer_metrics(counts),
            "oracle.non_exact": t["non_exact"],
            "obs.sim_goodput": (float(t["productive"] / t["expected"])
                                if t["expected"] else 0.0),
            "core.detection_sim_s": float(t["detection"]),
            "core.restart_sim_s": float(t["restart"]),
            "core.rework_sim_s": float(t["rework"]),
            "core.idle_sim_s": float(t["idle"]),
        }


class CampaignGrid(Workload):
    """Prefix-forked failure-campaign grids through ``CampaignRunner``.

    One op is one grid: 2 failure seeds × {``user_jit``, ``periodic``} on
    GPT2-S, i.e. two prefix groups of two scenarios.  A grid is the
    smallest unit whose latency is observable from outside the engine;
    small grids give a run enough of them (~50) for a stable median.

    A scenario's cost is set by the failures that land while its job is
    still running: a failure-free scenario reuses its group's shared
    prefix run, and each failure forks and simulates a tail.  Grids of
    consecutive seeds therefore differ several-fold in cost, which a
    run of ~50 grids does not average out.  Each grid is stratified
    instead: seeds are still drawn in order from the benchmark seed, but
    sorted by the failures their ``PoissonSchedule`` places inside the
    failure-free job duration, and every grid pairs one failure-free seed
    with one from ``FAILING`` (in rotation).
    """

    name = "campaign-grid"
    quarter_ops = 21
    #: Strata of the second seed: one failure in the first or second half
    #: of the job window, or two and more.
    FAILING = ("one-early", "one-late", "several")
    GRID = dict(workloads=["GPT2-S"], policies=["user_jit", "periodic"],
                target_iterations=8, failure_rate=1 / 30, horizon=60.0,
                minibatch_time=0.1, init_costs=(0.5, 0.25, 0.25),
                progress_timeout=10.0)
    #: Offset of the warm-up grid's seeds from the op seeds.
    WARMUP_OFFSET = 999_000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.runner = CampaignRunner(workers=1, prefix_fork=True,
                                     fork_max_live=1)
        # Warm-up grid on seeds no op uses: pays the engine's lazy imports
        # and the code-fingerprint hash before the first timed op, and
        # yields the failure-free job duration that bounds the window.
        base = seed * 1_000_003 + self.WARMUP_OFFSET
        result, _ = self.runner.run_aggregated(CampaignSpec.grid(
            "bench-warmup", seeds=range(base, base + 2), **self.GRID))
        ideal = result.rows()[0]["metrics"]["ideal_time"]
        self._window = ideal + sum(self.GRID["init_costs"])
        spec = result.campaign.scenarios[0]
        catalog = CATALOG[spec.workload]
        self._cluster = Cluster(Environment(), ClusterSpec(
            node_spec=catalog.node_spec, num_nodes=catalog.num_nodes))
        self._mix = tuple((FailureType[name], weight)
                          for name, weight in spec.type_mix)
        self._pending = {stratum: [] for stratum in ("none",) + self.FAILING}
        self._next_seed = seed * 1_000_003

    def _stratum(self, seed: int) -> str:
        events = PoissonSchedule(self._cluster, self.GRID["failure_rate"],
                                 horizon=self.GRID["horizon"], seed=seed,
                                 type_mix=self._mix).events()
        early = [e.time for e in events if e.time < self._window]
        if not early:
            return "none"
        if len(early) > 1:
            return "several"
        return "one-early" if early[0] < self._window / 2 else "one-late"

    def _take(self, stratum: str) -> int:
        pending = self._pending[stratum]
        while not pending:
            candidate = self._next_seed
            self._next_seed += 1
            self._pending[self._stratum(candidate)].append(candidate)
        return pending.pop(0)

    def prepare(self, index: int) -> Op:
        failing = self.FAILING[index % len(self.FAILING)]
        grid = CampaignSpec.grid(
            f"bench-{index}", seeds=[self._take("none"), self._take(failing)],
            **self.GRID)
        return Op(index, "grid", partial(self.runner.run_aggregated, grid))

    def check(self, op: Op, out) -> list[str]:
        result, table = out
        problems = []
        if table != result.aggregate():
            problems.append(f"grid {op.index}: streamed aggregate differs "
                            f"from result.aggregate()")
        for row in result.rows():
            m = row["metrics"]
            if not m["completed"]:
                problems.append(f"{row['scenario_id']}: did not complete")
            elif m["losses_digest"] != m["reference_digest"]:
                problems.append(f"{row['scenario_id']}: loss stream differs "
                                f"from the failure-free reference")
            self.add("scenarios", 1)
            self.add("wasted_sim_s", m["wasted_time"])
            self.add("goodput", m["goodput"])
            self.add("events", row["perf"]["events"])
        self.records.append({"grid": op.index, "table": table})
        return problems

    def layer_metrics(self, counts: dict[str, int]) -> dict[str, float]:
        t = self.tally
        scenarios = t.get("scenarios", 0)
        if not scenarios:
            return super().layer_metrics(counts)
        return {
            **super().layer_metrics(counts),
            "obs.sim_goodput": t["goodput"] / scenarios,
            "core.wasted_sim_s": t["wasted_sim_s"],
            "campaign.prefix_reuse_frac":
                1 - counts["campaign.forks"] / scenarios,
        }


def _training_spec(kind: str, seed: int) -> WorkloadSpec:
    layout, nodes = {"ddp": (ParallelLayout(dp=4), 1),
                     "3d": (ParallelLayout(dp=2, pp=2, tp=2), 1),
                     "fsdp": (ParallelLayout(dp=16), 2)}[kind]
    return WorkloadSpec(name=f"BENCH-{kind}", model="GPT2-S",
                        node_spec=V100_NODE, num_nodes=nodes, layout=layout,
                        engine=kind, framework="bench", minibatch_time=0.05,
                        seed=seed)


def _train(spec: WorkloadSpec, iterations: int):
    job = TrainingJob(spec)
    losses = job.run_training(iterations)
    return losses, job.env.events_processed


class TrainSteady(Workload):
    """Failure-free ``TrainingJob.run_training`` round-robin over engines."""

    name = "train-steady"
    quarter_ops = 54
    kind_metric = "parallel.{}_p50_ms"
    KINDS = (("ddp", 10), ("3d", 6), ("fsdp", 4))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.specs = {kind: _training_spec(kind, seed)
                      for kind, _ in self.KINDS}
        # Reference run per engine: every op must reproduce it bitwise.
        self.reference = {}
        for kind, iterations in self.KINDS:
            losses, events = _train(self.specs[kind], iterations)
            self.reference[kind] = (losses_digest(losses), events)

    def prepare(self, index: int) -> Op:
        kind, iterations = self.KINDS[index % len(self.KINDS)]
        return Op(index, kind, partial(_train, self.specs[kind], iterations))

    def check(self, op: Op, out) -> list[str]:
        losses, events = out
        digest = losses_digest(losses)
        self.add("events", events)
        self.records.append({"kind": op.kind, "losses": digest,
                             "events": events})
        if (digest, events) != self.reference[op.kind]:
            return [f"{op.kind} run {op.index}: losses or events differ from "
                    f"the reference run of the same spec"]
        return []

    def layer_metrics(self, counts: dict[str, int]) -> dict[str, float]:
        # Failure-free by construction: every simulated second is productive.
        return {**super().layer_metrics(counts), "obs.sim_goodput": 1.0}


@dataclass
class _Epoch:
    plan: Any
    states: dict
    torn: list
    removed: int


class CkptChurn(Workload):
    """Checkpoint epochs on a ``SharedObjectStore`` with seeded faults.

    An epoch is 8 rank saves through ``CheckpointRegistry.write`` (kind
    alternates jit/periodic), an optional torn write (p = 1/7) and bit
    rot (p = 1/5), then one restore (``planner.plan`` +
    ``valid_checkpoint_at`` + ``read_validated`` for all 8 ranks) and
    ``garbage_collect`` with ``keep_last=3``.  Each rank owns one shard.
    The store is replaced every ``EPOCHS_PER_STORE`` epochs, outside the
    timing, so that its append-only quarantine does not grow with run
    length and per-op cost stays the same however many ops a run does.

    Faults strike only an epoch that follows a fault-free one, and a
    torn write and bit rot never hit the same rank in one epoch.  The
    previous epoch's complete checkpoint then always survives as a
    restore point.  Unconstrained, about one epoch in 2,400 loses every
    consistent restore point: retention keeps each shard's last 3
    iterations, not the last 3 iterations all shards share, so torn
    writes on different shards in nearby epochs leave a single
    consistent point that one bit rot then destroys.
    """

    name = "ckpt-churn"
    quarter_ops = 150
    sub_metrics = {"storage.save_p50_ms": ("save", 50),
                   "storage.save_p90_ms": ("save", 90),
                   "storage.restore_p50_ms": ("restore", 50),
                   "storage.restore_p90_ms": ("restore", 90),
                   "storage.gc_p50_ms": ("gc", 50)}
    RANKS = 8
    EPOCHS_PER_STORE = 100
    NBYTES = 100_000_000
    TORN_P = 1 / 7
    ROT_P = 1 / 5

    def __init__(self, seed: int):
        super().__init__(seed)
        spec = dataclasses.replace(default_oracle_spec(), seed=seed)
        job = TrainingJob(spec)
        job.run_training(2)
        replicas = [engine.state_dict() for engine in job.engines]
        self.shards = [f"shard{r}" for r in range(self.RANKS)]
        self.base = [replicas[r % len(replicas)] for r in range(self.RANKS)]
        self._rng = random.Random(seed)
        self.env: Optional[Environment] = None
        self.store: Optional[SharedObjectStore] = None
        self.registry: Optional[CheckpointRegistry] = None
        self._faulted = False

    def payload(self, rank: int, iteration: int) -> dict:
        return dict(self.base[rank], iteration=iteration,
                    shard_id=self.shards[rank])

    def prepare(self, index: int) -> Op:
        epoch = index % self.EPOCHS_PER_STORE
        if epoch == 0:
            self.env = Environment()
            self.store = SharedObjectStore(self.env, bandwidth=1.5e9)
            self.registry = CheckpointRegistry(
                self.store, job_id="churn",
                retention=RetentionPolicy(keep_last=3))
        rng = self._rng
        ranks = range(self.RANKS)
        torn = rng.choice(ranks) if rng.random() < self.TORN_P else None
        rot = (rng.choice([r for r in ranks if r != torn])
               if rng.random() < self.ROT_P else None)
        if epoch == 0 or self._faulted:
            torn = rot = None
        self._faulted = torn is not None or rot is not None
        op = Op(index, "epoch", None,
                data=(epoch, torn, rot, self.env.events_processed))
        op.call = partial(self._epoch, op)
        return op

    def _run(self, generator):
        return self.env.run(until=self.env.process(generator))

    def _epoch(self, op: Op) -> _Epoch:
        epoch, torn_rank, rot_rank, _events = op.data
        registry, clock = self.registry, time.perf_counter
        saves, torn = [], []
        if torn_rank is not None:
            self.store.arm_torn_write(f"rank{torn_rank}")
        for rank, shard in enumerate(self.shards):
            key = CheckpointKey(kind=("jit", "periodic")[epoch % 2],
                                epoch=epoch, shard_id=shard, rank=rank,
                                iteration=epoch)
            start = clock()
            try:
                self._run(registry.write(key, self.payload(rank, epoch),
                                         self.NBYTES))
            except TornWriteError:
                torn.append(rank)
            saves.append(clock() - start)
        if rot_rank is not None:
            self.store.inject_bit_rot(f"rank{rot_rank}", salt=epoch)
        start = clock()
        plan = registry.planner.plan(self.shards)
        states = {}
        if plan.iteration is not None:
            for rank, shard in enumerate(self.shards):
                key = registry.valid_checkpoint_at(shard, plan.iteration)
                states[rank] = (None if key is None
                                else self._run(registry.read_validated(key)))
        restore = clock() - start
        start = clock()
        removed = registry.garbage_collect(self.shards)
        op.subtimes = {"save": saves, "restore": [restore],
                       "gc": [clock() - start]}
        return _Epoch(plan, states, torn, removed)

    def check(self, op: Op, out: _Epoch) -> list[str]:
        _epoch, torn_rank, _rot, events_before = op.data
        problems = []
        expected_torn = [] if torn_rank is None else [torn_rank]
        if out.torn != expected_torn:
            problems.append(f"epoch {op.index}: torn saves {out.torn}, "
                            f"injected {expected_torn}")
        iteration = out.plan.iteration
        if iteration is None:
            problems.append(f"epoch {op.index}: no valid restore point")
        else:
            for rank, shard in enumerate(self.shards):
                state = out.states.get(rank)
                if state is None or not same_bits(
                        state, self.payload(rank, iteration)):
                    problems.append(
                        f"epoch {op.index}: rank {rank} restored wrong bits "
                        f"for iteration {iteration}")
                # GC must never collect the restore point just planned.
                elif self.registry.checkpoint_at(shard, iteration) is None:
                    problems.append(
                        f"epoch {op.index}: GC removed the restore point "
                        f"of {shard} at iteration {iteration}")
        self.add("restores", 1)
        self.add("events", self.env.events_processed - events_before)
        self.records.append({"epoch": op.index, "plan": iteration,
                             "rejected": list(out.plan.rejected),
                             "torn": out.torn, "removed": out.removed})
        return problems

    def layer_metrics(self, counts: dict[str, int]) -> dict[str, float]:
        restores = self.tally.get("restores", 0)
        return {**super().layer_metrics(counts),
                "storage.verifies_per_restore":
                    counts["storage.verifies"] / restores if restores else 0.0}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OracleSweep, CampaignGrid, TrainSteady, CkptChurn)
}
