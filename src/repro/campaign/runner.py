"""Scenario execution and the parallel campaign engine.

:func:`execute_scenario` runs one :class:`~repro.campaign.spec.ScenarioSpec`
to a plain-JSON result dict — it is a module-level function taking only a
picklable spec, so :class:`CampaignRunner` can fan scenarios out over a
``ProcessPoolExecutor``.

Result dicts split into two sections:

``metrics``
    Deterministic simulation outputs (restarts, wasted time, goodput,
    loss digest, ...).  These depend only on the scenario configuration,
    so serial and parallel campaign runs aggregate byte-identically.
``perf``
    Wall-clock measurements (events dispatched, events/sec).  These vary
    run to run and are reported as telemetry, never aggregated into
    table results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.core.telemetry import CampaignPerf
from repro.workloads import TrainingJob

#: Hard floor on scenario workers (``workers=None`` means "all cores").
_MIN_WORKERS = 1


def _resolve_workload(spec: ScenarioSpec):
    from repro.hardware.specs import NODE_SPECS
    from repro.workloads.catalog import WORKLOADS

    workload = WORKLOADS[spec.workload]
    overrides = {}
    if spec.node is not None:
        overrides["node_spec"] = NODE_SPECS[spec.node]
    if spec.minibatch_time is not None:
        overrides["minibatch_time"] = spec.minibatch_time
    if overrides:
        workload = dataclasses.replace(workload, **overrides)
    return workload


def _losses_digest(losses) -> str:
    """Bit-exact digest of a loss stream (the semantics-preservation check)."""
    return hashlib.sha256(
        np.asarray(losses, dtype=np.float64).tobytes()).hexdigest()[:16]


def _type_mix(spec: ScenarioSpec):
    from repro.failures import FailureType

    return tuple((FailureType[name], weight) for name, weight in spec.type_mix)


def _draw_schedule(spec: ScenarioSpec, cluster=None) -> list:
    """*spec*'s failure events, drawn on *cluster*.

    The default is the launch topology: a bare cluster of the workload's
    nodes.  A draw reads only the active GPUs and their nodes, which a
    :class:`~repro.cluster.manager.JobManager` builds the same way (its
    spare pool never enters a draw), so this equals the draw on the
    managed runner's own cluster.
    """
    from repro.failures import PoissonSchedule

    if cluster is None:
        from repro.hardware import Cluster, ClusterSpec
        from repro.sim import Environment

        workload = _resolve_workload(spec)
        cluster = Cluster(Environment(), ClusterSpec(
            node_spec=workload.node_spec, num_nodes=workload.num_nodes))
    return PoissonSchedule(cluster, spec.failure_rate, horizon=spec.horizon,
                           seed=spec.seed, type_mix=_type_mix(spec)).events()


def _first_failure(events: list) -> float:
    return events[0].time if events else float("inf")


def _periodic_interval_iterations(workload, spec: ScenarioSpec) -> int:
    """Analytically optimal periodic interval (Section 5, equation 3)."""
    from repro.analysis import CalibratedParameters, optimal_checkpoint_frequency

    params = CalibratedParameters.from_spec(
        workload,
        failure_rate_per_gpu_per_day=spec.failure_rate * 86400).params
    c_star = optimal_checkpoint_frequency(workload.world_size,
                                          params.failure_rate,
                                          params.checkpoint_overhead)
    return max(1, int(round(1 / c_star / workload.minibatch_time)))


def _build_managed_runner(spec: ScenarioSpec, workload, env):
    """The store and managed runner a campaign scenario trains under.

    Returns ``(runner, interval_iterations)``: a :class:`PeriodicRunner`
    at the analytically optimal interval for the ``periodic`` policy, a
    :class:`UserLevelJitRunner` (interval ``None``) otherwise.  Shared by
    from-scratch execution and prefix-fork groups
    (:mod:`repro.campaign.prefix`), so both build the same run.
    """
    from repro.cluster.worker import InitCosts
    from repro.core import UserLevelJitRunner
    from repro.core.periodic import CheckpointMode, PeriodicPolicy, PeriodicRunner
    from repro.storage import SharedObjectStore

    store = SharedObjectStore(env, bandwidth=spec.store_bandwidth)
    init_costs = (InitCosts(*spec.init_costs)
                  if spec.init_costs is not None else None)
    common = dict(target_iterations=spec.target_iterations,
                  init_costs=init_costs,
                  progress_timeout=spec.progress_timeout)
    if spec.policy == "periodic":
        interval_iterations = _periodic_interval_iterations(workload, spec)
        policy = PeriodicPolicy(CheckpointMode.PC_MEM, interval_iterations)
        return (PeriodicRunner(env, workload, store, policy=policy, **common),
                interval_iterations)
    return UserLevelJitRunner(env, workload, store, **common), None


def reference_key(spec: ScenarioSpec) -> tuple:
    """Everything that shapes a campaign scenario's failure-free reference.

    The reference is a plain :class:`TrainingJob` of the resolved workload
    run for ``target_iterations``: policy, store, restart costs and the
    failure draw never touch it.  Scenarios with equal keys share one
    reference run per runner; :func:`prefix_key` extends this key.
    """
    return (spec.workload, spec.node, spec.minibatch_time,
            spec.target_iterations)


def prefix_key(spec: ScenarioSpec) -> tuple:
    """Everything that shapes a campaign scenario's failure-free prefix.

    Two scenarios with equal keys run bit-identical simulations until
    their first injected failure: same workload and overrides, same
    runner/policy, same store and init costs.  ``failure_rate`` joins the
    key only under the periodic policy, where it feeds the analytic
    checkpoint interval and therefore the prefix trajectory itself.  The
    key extends :func:`reference_key`, so a prefix group
    (:mod:`repro.campaign.prefix`) shares one reference run.
    """
    return reference_key(spec) + (
        spec.store_bandwidth,
        tuple(spec.init_costs) if spec.init_costs is not None else None,
        spec.progress_timeout,
        spec.policy,
        spec.failure_rate if spec.policy == "periodic" else None,
    )


@dataclass(frozen=True)
class Reference:
    """A campaign scenario's failure-free reference run, as results use it."""

    #: Simulated duration: the wall-time baseline of wasted-time accounting.
    ideal_time: float
    #: Events the reference dispatched (counted into each scenario's perf).
    events: int
    #: Digest of the loss stream every managed run must reproduce.
    digest: str


@dataclass(frozen=True)
class RunSummary:
    """The fields of a managed run's :class:`RunReport` that rows read."""

    completed: bool
    total_time: float
    restarts: int
    failures_observed: int
    losses_digest: str

    @classmethod
    def of(cls, report) -> "RunSummary":
        return cls(completed=report.completed, total_time=report.total_time,
                   restarts=report.restarts,
                   failures_observed=report.failures_observed,
                   losses_digest=_losses_digest(report.final_losses))


@dataclass(frozen=True)
class FailureFree:
    """A prefix key's failure-free managed run, as campaign rows use it.

    Every scenario of the key whose first failure lands strictly after
    :attr:`completion` computes exactly this run: from scratch,
    ``env.run(until=proc)`` stops before that failure can fire.
    """

    summary: RunSummary
    #: Events dispatched when the run's process completed (drained).
    events: int
    interval_iterations: Optional[int]
    #: Simulated instant the run's process completed.
    completion: float

    def serves(self, events: list) -> bool:
        """Whether a scenario drawing *events* computes this run."""
        return _first_failure(events) > self.completion

    def row(self, spec: ScenarioSpec, reference: "Reference",
            wall: float = 0.0) -> dict:
        """*spec*'s result dict when it computes this run."""
        return _campaign_result(spec, self.summary, reference,
                                interval_iterations=self.interval_iterations,
                                events=self.events, wall=wall)


def _reference_run(spec: ScenarioSpec) -> Reference:
    job = TrainingJob(_resolve_workload(spec))
    losses = job.run_training(spec.target_iterations)[0]
    return Reference(ideal_time=job.env.now, events=job.env.events_processed,
                     digest=_losses_digest(losses))


def _campaign_result(spec: ScenarioSpec, run: RunSummary,
                     reference: Reference, *,
                     interval_iterations: Optional[int],
                     events: int, wall: float) -> dict:
    """Assemble one campaign scenario's result dict.

    Shared by from-scratch execution (:func:`execute_scenario`),
    prefix-fork children (:mod:`repro.campaign.prefix`) and rows the
    runner serves from its failure-free memo, so the ``metrics``
    section — the only part aggregation reads — is byte-identical
    between the schedulers.
    ``perf`` is wall-clock telemetry and legitimately differs; its event
    count is the managed run's *events* plus the reference's.
    """
    ideal_time = reference.ideal_time
    events += reference.events
    total = run.total_time
    wasted = total - ideal_time
    return {
        "scenario": spec.config(),
        "scenario_id": spec.scenario_id,
        "metrics": {
            "completed": run.completed,
            "total_time": total,
            "ideal_time": ideal_time,
            "wasted_time": wasted,
            "wasted_fraction": wasted / total if total else 0.0,
            "goodput": ideal_time / total if total else 0.0,
            "restarts": run.restarts,
            "failures": run.failures_observed,
            "losses_digest": run.losses_digest,
            "reference_digest": reference.digest,
            "interval_iterations": interval_iterations,
        },
        "perf": {
            "events": events,
            "wall_seconds": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        },
    }


def execute_scenario(spec: ScenarioSpec) -> dict:
    """Run one scenario from scratch, its own reference included, to a
    plain-JSON result dict (picklable entry point)."""
    from repro.failures import FailureInjector
    from repro.sim import Environment

    start = time.perf_counter()
    reference = _reference_run(spec)
    env = Environment()
    runner, interval_iterations = _build_managed_runner(
        spec, _resolve_workload(spec), env)

    cluster = runner.manager.cluster
    FailureInjector(env, cluster).arm(_draw_schedule(spec, cluster))
    report = runner.execute()
    env.close()
    wall = time.perf_counter() - start
    return _campaign_result(spec, RunSummary.of(report), reference,
                            interval_iterations=interval_iterations,
                            events=env.events_processed, wall=wall)


def _execute_unit(items: list[tuple[int, ScenarioSpec]], max_live: int,
                  reference: Reference
                  ) -> tuple[list[Optional[dict]], Optional[FailureFree]]:
    """Run one prefix group with its shared *reference*
    (:func:`~repro.campaign.prefix.run_prefix_group`, whose results it
    returns).  Module-level so the pool can pickle it; the serial path
    calls it directly.
    """
    from repro.campaign.prefix import run_prefix_group

    return run_prefix_group([spec for _position, spec in items], max_live,
                            reference)


@dataclass
class ScenarioOutcome:
    """One scenario's result plus where it came from."""

    spec: ScenarioSpec
    result: dict
    from_cache: bool

    @property
    def metrics(self) -> dict:
        return self.result["metrics"]


@dataclass
class CampaignResult:
    """Ordered outcomes of one campaign run plus engine telemetry."""

    campaign: CampaignSpec
    outcomes: list[ScenarioOutcome]
    perf: CampaignPerf = field(default_factory=CampaignPerf)

    @property
    def cache_hits(self) -> int:
        return self.perf.cache_hits

    @property
    def executed(self) -> int:
        return self.perf.cache_misses

    def rows(self) -> list[dict]:
        """Scenario results in campaign order (determinism anchor)."""
        return [outcome.result for outcome in self.outcomes]

    def aggregate(self) -> list[dict]:
        from repro.campaign.aggregate import aggregate_results

        return aggregate_results(self.rows())


class CampaignRunner:
    """Fans a campaign's scenarios out over processes, with result caching.

    ``workers=1`` executes inline (no pool); ``workers=None`` uses every
    core.  Results are keyed by scenario content hash, so a second run of
    an unchanged campaign executes zero scenarios.  Scenario *results* are
    deterministic functions of their spec; only dispatch order varies with
    the worker count, and outcomes are always reassembled in campaign
    order.

    Campaign scenarios run in prefix groups (:mod:`repro.campaign.prefix`),
    a group of one included: each group simulates its failure-free prefix
    once and forks each failing tail but the last from a copy-on-write
    snapshot, with at most *fork_max_live* children alive.  Rows are
    byte-identical to from-scratch :func:`execute_scenario` (``perf``
    aside).  *prefix_fork* is accepted only as ``True``, the one path
    there is.

    *fork_max_live* bounds memory, not speed.  A forked tail shares the
    parent's pages copy-on-write; only what it writes and allocates is
    its own, about 9 MB for a GPT2-S tail next to the parent's ~44 MB.
    Four live children thus add less than one more parent, while wall
    time stops improving once the children cover the cores
    (``docs/performance.md``, "Why ``fork_max_live`` is 4").

    A runner pays for each failure-free run once over its lifetime, not
    once per :meth:`run`: the reference per :func:`reference_key` and the
    failure-free managed run per :func:`prefix_key` (see :meth:`_execute`).
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 workers: Optional[int] = None,
                 prefix_fork: bool = True, fork_max_live: int = 4):
        import os

        if not prefix_fork:
            raise ValueError("CampaignRunner always forks prefix groups; "
                             "execute_scenario(spec) runs one scenario "
                             "from scratch")
        self.cache = cache
        self.workers = max(_MIN_WORKERS, workers if workers is not None
                           else (os.cpu_count() or 1))
        self.fork_max_live = fork_max_live
        #: The failure-free memo: plain values keyed by everything that
        #: shapes each run, so no entry can go stale while the code that
        #: computed it is loaded.
        self._references: dict[tuple, Reference] = {}
        self._failure_free: dict[tuple, FailureFree] = {}

    def run(self, campaign: CampaignSpec) -> CampaignResult:
        """Run the campaign; outcomes come back in campaign order."""
        start = time.perf_counter()
        perf = CampaignPerf()
        outcomes: list[Optional[ScenarioOutcome]] = [None] * len(campaign)
        pending: list[tuple[int, ScenarioSpec]] = []

        for index, spec in enumerate(campaign.scenarios):
            hit = (self.cache.get(spec.content_hash())
                   if self.cache is not None else None)
            if hit is not None:
                outcomes[index] = ScenarioOutcome(spec, hit, True)
                perf.cache_hits += 1
            else:
                pending.append((index, spec))

        perf.cache_misses = len(pending)
        for position, result, simulated in self._execute(pending):
            index, spec = pending[position]
            outcomes[index] = ScenarioOutcome(spec, result, False)
            if simulated:
                perf.record_run(spec.scenario_id, result["perf"]["events"],
                                result["perf"]["wall_seconds"])
            else:
                perf.reused += 1
            if self.cache is not None:
                self.cache.put(spec.content_hash(), result)

        perf.wall_seconds = time.perf_counter() - start
        return CampaignResult(campaign=campaign, outcomes=outcomes, perf=perf)

    def run_aggregated(self, campaign: CampaignSpec
                       ) -> tuple[CampaignResult, list[dict]]:
        """Run the campaign; returns ``(result, result.aggregate())``."""
        result = self.run(campaign)
        return result, result.aggregate()

    # -- dispatch ------------------------------------------------------------

    def _reference(self, spec: ScenarioSpec) -> Reference:
        key = reference_key(spec)
        if key not in self._references:
            self._references[key] = _reference_run(spec)
        return self._references[key]

    def _execute(self, pending: list[tuple[int, ScenarioSpec]]
                 ) -> Iterator[tuple[int, dict, bool]]:
        """Yield ``(position, result, simulated)`` as scenarios finish
        (positions index into *pending*); inline for one worker or one
        dispatch unit, else through a process pool.

        Each prefix key's scenarios form one unit, a prefix group.
        Failure-free work comes from the runner's memo.  The reference
        of a scenario (:func:`reference_key`) runs here, in the calling
        process, the first time the runner needs it, and travels with
        every group that needs it (prefix keys extend it).  A group that
        finishes its failure-free run (some scenario's failures never
        fire) fills the memo entry of its :func:`prefix_key`.  A scenario
        whose first failure that run never reaches is then answered here
        from the entry (``simulated`` false, no wall time), as is every
        such scenario of the finishing group after the first, whose row
        carries the run.  A fully cached campaign neither reads nor fills
        the memo.
        """
        from repro.campaign.prefix import group_by_prefix

        groupable = []
        for position, (_index, spec) in enumerate(pending):
            entry = self._failure_free.get(prefix_key(spec))
            if entry is not None and entry.serves(_draw_schedule(spec)):
                yield position, entry.row(spec, self._reference(spec)), False
            else:
                groupable.append((position, spec))
        work = [(group, self.fork_max_live, self._reference(group[0][1]))
                for group in group_by_prefix(groupable)]

        def finished(args, rows, failure_free):
            items, _max_live, reference = args
            if failure_free is not None:
                self._failure_free.setdefault(prefix_key(items[0][1]),
                                              failure_free)
            for (position, spec), result in zip(items, rows):
                if result is None:
                    yield position, failure_free.row(spec, reference), False
                else:
                    yield position, result, True

        if self.workers == 1 or len(work) <= 1:
            for args in work:
                yield from finished(args, *_execute_unit(*args))
            return
        with ProcessPoolExecutor(
                max_workers=min(self.workers, len(work))) as pool:
            futures = {pool.submit(_execute_unit, *args): args
                       for args in work}
            for future in as_completed(futures):
                yield from finished(futures[future], *future.result())
