"""Prefix-fork campaign scheduling.

Campaign grids sweep failure seeds/rates over a fixed workload
configuration, so scenarios in the same sweep share a long, *identical*
simulation prefix: everything before a scenario's first injected failure
is a deterministic failure-free run of the same managed job.  From-scratch
execution re-simulates that prefix once per scenario.

This module simulates it once per *group*.  Scenarios are grouped by the
configuration that shapes the failure-free trajectory
(:func:`~repro.campaign.runner.prefix_key`), sorted by first-failure
time, and executed as:

1. the parent builds the managed runner and advances the event loop with
   :meth:`~repro.sim.Environment.run_until_before` up to (but excluding)
   the next scenario's first-failure instant;
2. it forks a copy-on-write child (:class:`repro.sim.snapshot.ForkBranch`)
   which arms that scenario's full failure schedule and runs the divergent
   tail to completion;
3. the parent never simulates a failure.  Once the shared, failure-free
   run completes before a scenario's first failure (or the scenario
   draws none inside the horizon), it finishes the run and returns it as
   a :class:`~repro.campaign.runner.FailureFree` entry: that scenario's
   row, and every later one's, *is* the run
   (:meth:`~repro.campaign.runner.FailureFree.row`).  The
   :class:`~repro.campaign.runner.CampaignRunner` keeps the entry and
   answers such scenarios of later campaigns itself, with the same
   method, so only failing scenarios reach a group again.

Because :meth:`run_until_before` never advances the clock past dispatched
events and the injector schedules with ulp-exact absolute timeouts, every
child's simulation runs the same float sequence as a from-scratch
execution: the ``metrics`` sections aggregate byte-identically.  Only
``perf`` (wall clock, per-process event counts) differs.

The failure-free *reference* run — the wasted-time and loss-digest
baseline — is not simulated here either:
:class:`~repro.campaign.runner.CampaignRunner` runs it once per runner
for each :func:`~repro.campaign.runner.reference_key` and hands it to
every group that shares the key.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.campaign.runner import (FailureFree, Reference, RunSummary,
                                   _build_managed_runner, _campaign_result,
                                   _draw_schedule, _execute_campaign_scenario,
                                   _first_failure, _reference_run,
                                   _resolve_workload, prefix_key)
from repro.campaign.spec import ScenarioSpec
from repro.sim.snapshot import HAVE_FORK, ForkBranch

#: Default cap on concurrently-running forked children per group.
DEFAULT_MAX_LIVE = 4


def group_by_prefix(specs: list[tuple[int, ScenarioSpec]]
                    ) -> list[list[tuple[int, ScenarioSpec]]]:
    """Partition (position, spec) pairs into prefix groups, order-stable."""
    groups: dict[tuple, list[tuple[int, ScenarioSpec]]] = {}
    for position, spec in specs:
        groups.setdefault(prefix_key(spec), []).append((position, spec))
    return list(groups.values())


def run_prefix_group(specs: list[ScenarioSpec],
                     max_live: int = DEFAULT_MAX_LIVE,
                     reference: Optional[Reference] = None
                     ) -> tuple[list[dict], Optional[FailureFree]]:
    """Run one prefix group: ``(results in *specs* order, failure-free)``.

    *reference* is the group's failure-free reference run; it is computed
    here when not given.  The group's failure-free managed run comes back
    only when the parent finished it, because some scenario's failures
    never fire before the run completes.  Falls back to from-scratch
    execution (and no failure-free run) when ``os.fork`` is unavailable.
    """
    if reference is None:
        reference = _reference_run(specs[0])
    if not HAVE_FORK:
        return ([_execute_campaign_scenario(spec, reference)
                 for spec in specs], None)

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
    first_failure = [_first_failure(events) for events in schedules]
    order = sorted(range(len(specs)), key=lambda i: (first_failure[i], i))

    def child(index: int):
        spec, events = specs[index], schedules[index]
        child_start = time.perf_counter()
        FailureInjector(env, runner.manager.cluster).arm(events)
        report = env.run(until=proc)
        return _campaign_result(
            spec, RunSummary.of(report), reference,
            interval_iterations=interval_iterations,
            events=env.events_processed,
            wall=time.perf_counter() - child_start)

    results: list[Optional[dict]] = [None] * len(specs)
    live: list[tuple[int, ForkBranch]] = []
    for index in order:
        # Never dispatches past the run's completion, so a finished run
        # keeps the event count and completion instant of an
        # uninterrupted failure-free run.
        env.run_until_before(first_failure[index], until=proc)
        if proc.triggered:
            break  # No failure of this or any later scenario fires.
        if len(live) >= max_live:
            done_index, branch = live.pop(0)
            results[done_index] = branch.result()
        live.append((index, ForkBranch(lambda index=index: child(index))))
    for done_index, branch in live:
        results[done_index] = branch.result()

    if not proc.triggered:
        return results, None  # type: ignore[return-value]
    report = env.run(until=proc)
    failure_free = FailureFree(
        summary=RunSummary.of(report), events=env.events_processed,
        interval_iterations=interval_iterations, completion=env.now)
    wall = time.perf_counter() - group_start
    return [row if row is not None else failure_free.row(spec, reference,
                                                         wall)
            for spec, row in zip(specs, results)], failure_free
