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
from repro.campaign.spec import (KIND_ANALYTIC, KIND_ORACLE, ORACLE_WORKLOAD,
                                 CampaignSpec, ScenarioSpec)
from repro.core.telemetry import CampaignPerf
from repro.obs.metrics import instrument as _instrument
from repro.obs.metrics import registry as _metrics

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


def _execute_campaign_scenario(spec: ScenarioSpec) -> dict:
    from repro.failures import FailureInjector, PoissonSchedule
    from repro.sim import Environment
    from repro.workloads import TrainingJob

    workload = _resolve_workload(spec)
    start = time.perf_counter()

    # Ideal failure-free reference: wall-time baseline for wasted-time
    # accounting plus the loss stream the managed run must reproduce.
    reference_job = TrainingJob(workload)
    reference_losses = reference_job.run_training(spec.target_iterations)[0]
    ideal_time = reference_job.env.now
    reference_events = reference_job.env.events_processed

    env = Environment()
    runner, interval_iterations = _build_managed_runner(spec, workload, env)

    schedule = PoissonSchedule(
        runner.manager.cluster, spec.failure_rate, horizon=spec.horizon,
        seed=spec.seed, type_mix=_type_mix(spec))
    FailureInjector(env, runner.manager.cluster).arm(schedule)
    report = runner.execute()
    wall = time.perf_counter() - start
    return _campaign_result(
        spec, report, ideal_time=ideal_time,
        reference_digest=_losses_digest(reference_losses),
        interval_iterations=interval_iterations,
        events=reference_events + env.events_processed, wall=wall)


def _campaign_result(spec: ScenarioSpec, report, *, ideal_time: float,
                     reference_digest: str,
                     interval_iterations: Optional[int],
                     events: int, wall: float) -> dict:
    """Assemble one campaign scenario's result dict.

    Shared by from-scratch execution above and prefix-fork children
    (:mod:`repro.campaign.prefix`), so the ``metrics`` section — the only
    part aggregation reads — is byte-identical between the two schedulers.
    ``perf`` is wall-clock telemetry and legitimately differs.
    """
    total = report.total_time
    wasted = total - ideal_time
    return {
        "scenario": spec.config(),
        "scenario_id": spec.scenario_id,
        "metrics": {
            "completed": report.completed,
            "total_time": total,
            "ideal_time": ideal_time,
            "wasted_time": wasted,
            "wasted_fraction": wasted / total if total else 0.0,
            "goodput": ideal_time / total if total else 0.0,
            "restarts": report.restarts,
            "failures": report.failures_observed,
            "losses_digest": _losses_digest(report.final_losses),
            "reference_digest": reference_digest,
            "interval_iterations": interval_iterations,
        },
        "perf": {
            "events": events,
            "wall_seconds": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        },
    }


def _execute_analytic_scenario(spec: ScenarioSpec) -> dict:
    """One Table 8 row: closed-form Section 5 wasted-time at N GPUs."""
    from repro.analysis import (
        CalibratedParameters,
        CostParameters,
        jit_transparent_wasted_per_gpu,
        jit_user_level_wasted_per_gpu,
        optimal_checkpoint_frequency,
        periodic_wasted_per_gpu,
        wasted_fraction,
    )

    workload = _resolve_workload(spec)
    start = time.perf_counter()
    params = CalibratedParameters.from_spec(workload).params
    transparent_params = CostParameters(
        checkpoint_overhead=params.checkpoint_overhead,
        failure_rate=params.failure_rate,
        fixed_recovery=0.0,     # CPU process survives: no re-init (Sec 5.5)
        minibatch_time=params.minibatch_time)
    n = spec.n_gpus
    c_star = optimal_checkpoint_frequency(n, params.failure_rate,
                                          params.checkpoint_overhead)
    wall = time.perf_counter() - start
    return {
        "scenario": spec.config(),
        "scenario_id": spec.scenario_id,
        "metrics": {
            "n": n,
            "c_star_per_hr": c_star * 3600,
            "periodic": wasted_fraction(periodic_wasted_per_gpu(n, params)),
            "user_jit": wasted_fraction(
                jit_user_level_wasted_per_gpu(n, params)),
            "transparent": wasted_fraction(
                jit_transparent_wasted_per_gpu(n, transparent_params)),
        },
        "perf": {"events": 0, "wall_seconds": wall, "events_per_sec": 0.0},
    }


def _execute_oracle_scenario(spec: ScenarioSpec) -> dict:
    """Recovery-equivalence checks for one strategy (fuzzed or replayed)."""
    from repro.oracle import FailureSchedule, RecoveryOracle, default_oracle_spec

    if spec.workload == ORACLE_WORKLOAD:
        workload = default_oracle_spec(
            minibatch_time=spec.minibatch_time or 0.05)
    else:
        workload = _resolve_workload(spec)
    start = time.perf_counter()
    oracle = RecoveryOracle(spec=workload,
                            iterations=spec.target_iterations)
    if spec.schedule is not None:
        schedules = [FailureSchedule.from_json(spec.schedule)]
    else:
        fuzzer = oracle.fuzzer(spec.seed, shapes=spec.shapes,
                               include_storage=spec.include_storage)
        schedules = list(fuzzer.schedules(spec.fuzz_count))
    verdicts = [oracle.check(schedule, spec.strategy)
                for schedule in schedules]
    events = oracle.events_processed
    wall = time.perf_counter() - start
    failures = [v for v in verdicts if not v.passed]
    # Goodput-bucket seconds summed across all checked runs.  Ledgers are
    # deterministic functions of the (scenario, strategy) pair, so these
    # aggregate byte-identically between serial and parallel campaigns.
    goodput = {bucket: float(amount)
               for bucket, amount in oracle.goodput_buckets.items()}
    goodput["balanced"] = all(v.ledger is None or v.ledger.balanced
                              for v in verdicts)
    return {
        "scenario": spec.config(),
        "scenario_id": spec.scenario_id,
        "metrics": {
            "strategy": spec.strategy,
            "checks": len(verdicts),
            "failures": len(failures),
            "passed": not failures,
            "outcomes": [v.outcome for v in verdicts],
            "violations": [str(violation) for v in failures
                           for violation in v.violations],
            "failing_schedules": [v.schedule.to_json() for v in failures],
            "storage": dict(oracle.storage_stats),
            "goodput": goodput,
        },
        "perf": {
            "events": events,
            "wall_seconds": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        },
    }


def execute_scenario(spec: ScenarioSpec) -> dict:
    """Run one scenario to a plain-JSON result dict (picklable entry point)."""
    if spec.kind == KIND_ANALYTIC:
        return _execute_analytic_scenario(spec)
    if spec.kind == KIND_ORACLE:
        return _execute_oracle_scenario(spec)
    return _execute_campaign_scenario(spec)


def _execute_unit(items: list[tuple[int, ScenarioSpec]], is_group: bool,
                  max_live: int) -> list[tuple[int, dict]]:
    """Run one dispatch unit (a scenario or a prefix group).

    Returns ``(position, result)`` per scenario; module-level so the pool
    can pickle it, and the serial path calls it directly.
    """
    if is_group:
        from repro.campaign.prefix import execute_prefix_group

        results = execute_prefix_group([spec for _pos, spec in items],
                                       max_live=max_live)
    else:
        results = [execute_scenario(spec) for _pos, spec in items]
    return [(position, result)
            for (position, _spec), result in zip(items, results)]


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
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 workers: Optional[int] = None,
                 prefix_fork: bool = False, fork_max_live: int = 4):
        import os

        self.cache = cache
        self.workers = max(_MIN_WORKERS, workers if workers is not None
                           else (os.cpu_count() or 1))
        #: Group campaign scenarios by failure-free prefix and fork each
        #: scenario's divergent tail from a shared copy-on-write snapshot
        #: (:mod:`repro.campaign.prefix`).  Metrics are byte-identical to
        #: from-scratch execution; wall clock is substantially lower for
        #: seed/rate sweeps.  Non-campaign kinds always run from scratch.
        self.prefix_fork = prefix_fork
        self.fork_max_live = fork_max_live

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
        for position, result in self._execute(pending):
            index, spec = pending[position]
            outcomes[index] = ScenarioOutcome(spec, result, False)
            perf.record_run(spec.scenario_id, result["perf"]["events"],
                            result["perf"]["wall_seconds"])
            if self.cache is not None:
                self.cache.put(spec.content_hash(), result)

        perf.wall_seconds = time.perf_counter() - start
        reg = _metrics.active()
        if reg is not None:
            busy = sum(run.wall_seconds for run in perf.runs)
            _instrument.record_campaign_perf(reg, perf, self.workers, busy)
        return CampaignResult(campaign=campaign, outcomes=outcomes, perf=perf)

    def run_aggregated(self, campaign: CampaignSpec
                       ) -> tuple[CampaignResult, list[dict]]:
        """Run the campaign; returns ``(result, result.aggregate())``."""
        result = self.run(campaign)
        return result, result.aggregate()

    # -- dispatch ------------------------------------------------------------

    def _dispatch_units(self, specs: list[ScenarioSpec]
                        ) -> list[tuple[list[tuple[int, ScenarioSpec]], bool]]:
        """Partition scenarios into dispatch units: ``(items, is_group)``.

        With :attr:`prefix_fork`, campaign-kind scenarios sharing a
        failure-free prefix become one multi-scenario unit; everything
        else (and singleton groups) stays a from-scratch unit.
        """
        units: list[tuple[list[tuple[int, ScenarioSpec]], bool]] = []
        if self.prefix_fork:
            from repro.campaign.prefix import group_by_prefix
            from repro.campaign.spec import KIND_CAMPAIGN

            groupable = [(position, spec) for position, spec in enumerate(specs)
                         if spec.kind == KIND_CAMPAIGN]
            for group in group_by_prefix(groupable):
                units.append((group, len(group) > 1))
            for position, spec in enumerate(specs):
                if spec.kind != KIND_CAMPAIGN:
                    units.append(([(position, spec)], False))
        else:
            units = [([(position, spec)], False)
                     for position, spec in enumerate(specs)]
        return units

    def _execute(self, pending: list[tuple[int, ScenarioSpec]]
                 ) -> Iterator[tuple[int, dict]]:
        """Yield ``(position, result)`` as scenarios finish (positions
        index into *pending*); inline for one worker or one unit, else
        through a process pool."""
        units = self._dispatch_units([spec for _index, spec in pending])
        if self.workers == 1 or len(units) <= 1:
            for items, is_group in units:
                yield from _execute_unit(items, is_group, self.fork_max_live)
            return
        with ProcessPoolExecutor(
                max_workers=min(self.workers, len(units))) as pool:
            futures = [pool.submit(_execute_unit, items, is_group,
                                   self.fork_max_live)
                       for items, is_group in units]
            for future in as_completed(futures):
                yield from future.result()
