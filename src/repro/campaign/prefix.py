"""Prefix-fork campaign scheduling.

Campaign grids sweep failure seeds/rates over a fixed workload
configuration, so scenarios in the same sweep share a long, *identical*
simulation prefix: everything before a scenario's first injected failure
is a deterministic failure-free run of the same managed job.  From-scratch
execution re-simulates that prefix once per scenario.

This module simulates it once per *group*.  Scenarios are grouped by the
configuration that shapes the failure-free trajectory (:func:`prefix_key`),
sorted by first-failure time, and executed as:

1. the parent builds the managed runner and advances the event loop with
   :meth:`~repro.sim.Environment.run_until_before` up to (but excluding)
   the next scenario's first-failure instant;
2. it forks a copy-on-write child (:class:`repro.sim.snapshot.ForkBranch`)
   which arms that scenario's full failure schedule and runs the divergent
   tail to completion;
3. scenarios whose first failure would land only after the shared run
   has completed (or never, inside the horizon) reuse the parent's own
   completed run directly — no fork at all.

Because :meth:`run_until_before` never advances the clock past dispatched
events and the injector schedules with ulp-exact absolute timeouts, every
child's simulation runs the same float sequence as a from-scratch
execution: the ``metrics`` sections aggregate byte-identically.  Only
``perf`` (wall clock, per-process event counts) differs.

The failure-free *reference* run — the wasted-time and loss-digest
baseline — is not simulated here either:
:class:`~repro.campaign.runner.CampaignRunner` runs it once per campaign
for each :func:`~repro.campaign.runner.reference_key` and hands it to
every group that shares the key.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.campaign.runner import (Reference, _build_managed_runner,
                                   _campaign_result,
                                   _execute_campaign_scenario,
                                   _reference_run, _resolve_workload,
                                   _type_mix, reference_key)
from repro.campaign.spec import ScenarioSpec
from repro.sim.snapshot import HAVE_FORK, ForkBranch

#: Default cap on concurrently-running forked children per group.
DEFAULT_MAX_LIVE = 4


def prefix_key(spec: ScenarioSpec) -> tuple:
    """Everything that shapes a campaign scenario's failure-free prefix.

    Two scenarios with equal keys run bit-identical simulations until
    their first injected failure: same workload and overrides, same
    runner/policy, same store and init costs.  ``failure_rate`` joins the
    key only under the periodic policy, where it feeds the analytic
    checkpoint interval and therefore the prefix trajectory itself.  The
    key extends :func:`~repro.campaign.runner.reference_key`, so a group
    shares one reference run.
    """
    return reference_key(spec) + (
        spec.store_bandwidth,
        tuple(spec.init_costs) if spec.init_costs is not None else None,
        spec.progress_timeout,
        spec.policy,
        spec.failure_rate if spec.policy == "periodic" else None,
    )


def group_by_prefix(specs: list[tuple[int, ScenarioSpec]]
                    ) -> list[list[tuple[int, ScenarioSpec]]]:
    """Partition (position, spec) pairs into prefix groups, order-stable."""
    groups: dict[tuple, list[tuple[int, ScenarioSpec]]] = {}
    for position, spec in specs:
        groups.setdefault(prefix_key(spec), []).append((position, spec))
    return list(groups.values())


def _draw_schedule(spec: ScenarioSpec, cluster) -> list:
    from repro.failures import PoissonSchedule

    return PoissonSchedule(cluster, spec.failure_rate, horizon=spec.horizon,
                           seed=spec.seed, type_mix=_type_mix(spec)).events()


def execute_prefix_group(specs: list[ScenarioSpec],
                         max_live: int = DEFAULT_MAX_LIVE,
                         reference: Optional[Reference] = None) -> list[dict]:
    """Run one prefix group; returns result dicts in *specs* order.

    *reference* is the group's failure-free reference run; it is computed
    here when not given.  Falls back to from-scratch execution when
    ``os.fork`` is unavailable or the group is a singleton (nothing to
    share).
    """
    if reference is None:
        reference = _reference_run(specs[0])
    if not HAVE_FORK or len(specs) < 2:
        return [_execute_campaign_scenario(spec, reference) for spec in specs]

    from repro.failures import FailureInjector
    from repro.sim import Environment

    lead = specs[0]
    group_start = time.perf_counter()

    # Shared managed run whose prefix every scenario reuses.
    env = Environment()
    runner, interval_iterations = _build_managed_runner(
        lead, _resolve_workload(lead), env)
    proc = runner.start()

    # Failure schedules are drawn against the launch topology, which the
    # failure-free parent never mutates — identical to from-scratch draws.
    schedules = [_draw_schedule(spec, runner.manager.cluster)
                 for spec in specs]
    first_failure = [events[0].time if events else float("inf")
                     for events in schedules]
    order = sorted(range(len(specs)), key=lambda i: (first_failure[i], i))

    def child(index: int):
        spec, events = specs[index], schedules[index]
        child_start = time.perf_counter()
        FailureInjector(env, runner.manager.cluster).arm(events)
        report = env.run(until=proc)
        return _campaign_result(
            spec, report, reference,
            interval_iterations=interval_iterations,
            events=env.events_processed,
            wall=time.perf_counter() - child_start)

    results: list[Optional[dict]] = [None] * len(specs)
    live: list[tuple[int, ForkBranch]] = []
    tail_indices: list[int] = []
    for index in order:
        if first_failure[index] == float("inf"):
            # No failure ever fires: the scenario IS the shared trajectory.
            tail_indices.append(index)
            continue
        env.run_until_before(first_failure[index])
        if proc.triggered:
            # The job finished before this scenario's first failure, so
            # none of its failures ever fires either (from scratch,
            # ``env.run(until=proc)`` stops first): no tail to fork.
            tail_indices.append(index)
            continue
        if len(live) >= max_live:
            done_index, branch = live.pop(0)
            results[done_index] = branch.result()
        live.append((index, ForkBranch(lambda index=index: child(index))))
    for done_index, branch in live:
        results[done_index] = branch.result()

    if tail_indices:
        # Finish the shared run in the parent and reuse its report for
        # every scenario no failure reached (one simulation, N rows).
        report = env.run(until=proc)
        wall = time.perf_counter() - group_start
        for index in tail_indices:
            results[index] = _campaign_result(
                specs[index], report, reference,
                interval_iterations=interval_iterations,
                events=env.events_processed, wall=wall)

    return results  # type: ignore[return-value]
