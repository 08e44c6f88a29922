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
3. scenarios whose schedule never fires inside the horizon reuse the
   parent's own completed run directly — no fork at all.

Because :meth:`run_until_before` never advances the clock past dispatched
events and the injector schedules with ulp-exact absolute timeouts, every
child's simulation runs the same float sequence as a from-scratch
execution: the ``metrics`` sections aggregate byte-identically.  Only
``perf`` (wall clock, per-process event counts) differs.

The shared failure-free *reference* run — the wasted-time baseline each
scenario recomputes from scratch — is likewise executed once per group.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.campaign.spec import KIND_CAMPAIGN, ScenarioSpec
from repro.sim.snapshot import HAVE_FORK, ForkBranch

#: Default cap on concurrently-running forked children per group.
DEFAULT_MAX_LIVE = 4


def prefix_key(spec: ScenarioSpec) -> tuple:
    """Everything that shapes a campaign scenario's failure-free prefix.

    Two scenarios with equal keys run bit-identical simulations until
    their first injected failure: same workload and overrides, same
    runner/policy, same store and init costs.  ``failure_rate`` joins the
    key only under the periodic policy, where it feeds the analytic
    checkpoint interval and therefore the prefix trajectory itself.
    """
    if spec.kind != KIND_CAMPAIGN:
        raise ValueError(f"prefix grouping applies to campaign scenarios, "
                         f"not {spec.kind!r}")
    return (
        spec.workload,
        spec.node,
        spec.minibatch_time,
        spec.target_iterations,
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
    from repro.campaign.runner import _type_mix
    from repro.failures import PoissonSchedule

    return PoissonSchedule(cluster, spec.failure_rate, horizon=spec.horizon,
                           seed=spec.seed, type_mix=_type_mix(spec)).events()


def execute_prefix_group(specs: list[ScenarioSpec],
                         max_live: int = DEFAULT_MAX_LIVE) -> list[dict]:
    """Run one prefix group; returns result dicts in *specs* order.

    Falls back to from-scratch execution when ``os.fork`` is unavailable
    or the group is a singleton (nothing to share).
    """
    from repro.campaign.runner import execute_scenario

    if not HAVE_FORK or len(specs) < 2:
        return [execute_scenario(spec) for spec in specs]

    from repro.campaign.runner import (_build_managed_runner,
                                       _campaign_result, _losses_digest,
                                       _resolve_workload)
    from repro.failures import FailureInjector
    from repro.sim import Environment
    from repro.workloads import TrainingJob

    lead = specs[0]
    workload = _resolve_workload(lead)
    group_start = time.perf_counter()

    # Shared failure-free reference run (wasted-time / loss-digest baseline).
    reference_job = TrainingJob(workload)
    reference_losses = reference_job.run_training(lead.target_iterations)[0]
    ideal_time = reference_job.env.now
    reference_events = reference_job.env.events_processed
    reference_digest = _losses_digest(reference_losses)

    # Shared managed run whose prefix every scenario reuses.
    env = Environment()
    runner, interval_iterations = _build_managed_runner(lead, workload, env)
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
            spec, report, ideal_time=ideal_time,
            reference_digest=reference_digest,
            interval_iterations=interval_iterations,
            events=reference_events + env.events_processed,
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
        if len(live) >= max_live:
            done_index, branch = live.pop(0)
            results[done_index] = branch.result()
        live.append((index, ForkBranch(lambda index=index: child(index))))
    for done_index, branch in live:
        results[done_index] = branch.result()

    if tail_indices:
        # Finish the shared run in the parent and reuse its report for
        # every failure-free scenario (one simulation, N identical rows).
        report = env.run(until=proc)
        parent_events = reference_events + env.events_processed
        wall = time.perf_counter() - group_start
        for index in tail_indices:
            results[index] = _campaign_result(
                specs[index], report, ideal_time=ideal_time,
                reference_digest=reference_digest,
                interval_iterations=interval_iterations,
                events=parent_events, wall=wall)

    return results  # type: ignore[return-value]
