"""Prefix-fork campaign scheduling.

Campaign grids sweep failure seeds/rates over a fixed workload
configuration, so scenarios in the same sweep share a long, *identical*
simulation prefix: everything before a scenario's first injected failure
is a deterministic failure-free run of the same managed job.  From-scratch
execution re-simulates that prefix once per scenario.

This module simulates it once per *group*.  Every campaign scenario the
runner's failure-free memo cannot answer joins the group of its
:func:`~repro.campaign.runner.prefix_key`, a group of one included.  A
group is sorted by first-failure time and executed as:

1. the parent builds the managed runner and advances the event loop with
   :meth:`~repro.sim.Environment.run_until_before` up to (but excluding)
   the next scenario's first-failure instant;
2. it forks a copy-on-write child (:class:`repro.sim.snapshot.ForkBranch`)
   which arms that scenario's full failure schedule and runs the divergent
   tail to completion;
3. the scenario with the latest first failure needs no fork: no later
   scenario reuses the prefix, so the parent arms its schedule and runs
   its tail itself (a lone scenario therefore never forks).  Once the
   shared, failure-free run instead completes before a scenario's first
   failure (or the scenario draws none inside the horizon), the parent
   finishes the run and returns it as a
   :class:`~repro.campaign.runner.FailureFree` entry: that scenario's
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
                                   _draw_schedule, _first_failure,
                                   _resolve_workload, prefix_key)
from repro.campaign.spec import ScenarioSpec
from repro.sim.snapshot import HAVE_FORK, ForkBranch


def group_by_prefix(specs: list[tuple[int, ScenarioSpec]]
                    ) -> list[list[tuple[int, ScenarioSpec]]]:
    """Partition (position, spec) pairs into prefix groups, order-stable."""
    groups: dict[tuple, list[tuple[int, ScenarioSpec]]] = {}
    for position, spec in specs:
        groups.setdefault(prefix_key(spec), []).append((position, spec))
    return list(groups.values())


def run_prefix_group(specs: list[ScenarioSpec], max_live: int,
                     reference: Reference
                     ) -> tuple[list[Optional[dict]], Optional[FailureFree]]:
    """Run one prefix group: ``(results in *specs* order, failure-free)``.

    *reference* is the group's failure-free reference run; at most
    *max_live* forked children run at once.  The group's failure-free
    managed run comes back only when the parent finished it, because some
    scenario's failures never fire before the run completes.  The first
    scenario it answers gets the run's row; every later one gets
    ``None``, for the caller to fill with :meth:`FailureFree.row` as it
    does for memo rows.  Without ``os.fork``, each scenario runs as its
    own group of one, which never forks.
    """
    if not HAVE_FORK and len(specs) > 1:
        results, failure_free = [], None
        for spec in specs:
            (row,), entry = run_prefix_group([spec], max_live, reference)
            results.append(row)
            failure_free = failure_free or entry
        return results, failure_free

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

    def tail(index: int, start: float):
        spec, events = specs[index], schedules[index]
        FailureInjector(env, runner.manager.cluster).arm(events)
        report = env.run(until=proc)
        return _campaign_result(
            spec, RunSummary.of(report), reference,
            interval_iterations=interval_iterations,
            events=env.events_processed, wall=time.perf_counter() - start)

    results: list[Optional[dict]] = [None] * len(specs)
    live: list[tuple[int, ForkBranch]] = []
    failure_free = None
    for position, index in enumerate(order):
        # Never dispatches past the run's completion, so a finished run
        # keeps the event count and completion instant of an
        # uninterrupted failure-free run.
        env.run_until_before(first_failure[index], until=proc)
        if proc.triggered:
            # No failure of this or any later scenario fires.
            report = env.run(until=proc)
            failure_free = FailureFree(
                summary=RunSummary.of(report), events=env.events_processed,
                interval_iterations=interval_iterations, completion=env.now)
            first = min(order[position:])
            results[first] = failure_free.row(
                specs[first], reference, time.perf_counter() - group_start)
            break
        if position == len(order) - 1:
            # No later scenario needs the prefix: the tail runs here.
            results[index] = tail(index, group_start)
        else:
            if len(live) >= max_live:
                done_index, branch = live.pop(0)
                results[done_index] = branch.result()
            live.append((index, ForkBranch(
                lambda index=index: tail(index, time.perf_counter()))))
    for done_index, branch in live:
        results[done_index] = branch.result()
    env.close()
    return results, failure_free
