"""Bitwise ledger <-> metrics reconciliation across all six strategies.

The metrics bridge and the goodput ledger both consume
:func:`repro.obs.ledger.classify_run`, and the registry accumulates in
exact :class:`~fractions.Fraction` arithmetic, so every derived view
must reproduce the ledger's bucket totals *bitwise* — not approximately:

* the ``repro_goodput_seconds`` counter, summed per bucket;
* the last sample of each goodput series in the sampled store
  (counters are cumulative, so last == total);
* the detection/restart phase histograms' exact sums.

The families derived from trace records are held to the simulator's own
counters: storage families to the store's ``stats``, the failure counter
to the injector, and the sampled series to the registry's interval.
"""

from fractions import Fraction

import pytest

from repro.obs.ledger import build_strategy_ledger
from repro.obs.metrics import MetricsRegistry, bridge
from repro.obs.metrics.dashboard import counter_total, filter_snapshot, snapshot
from repro.oracle import (FailurePoint, FailureSchedule, RecoveryOracle,
                          STRATEGIES)
from repro.oracle import strategies as strategies_mod

ITERS = 12

#: Seeded multi-failure schedule: a hard failure mid-run plus a sticky
#: one two iterations later on another rank, exercising detection,
#: restart, rework, and resume phases for every strategy family.
MULTI = FailureSchedule(points=(
    FailurePoint(4, "GPU_HARD", 1, offset=0.3),
    FailurePoint(6, "GPU_STICKY", 2, offset=0.8),))


@pytest.fixture(scope="module")
def oracle():
    return RecoveryOracle(iterations=ITERS)


@pytest.fixture(scope="module", params=sorted(STRATEGIES))
def strategy_run(request, oracle):
    strategy = request.param
    registry = MetricsRegistry(scrape_interval=1.0)
    run = oracle.run(MULTI, strategy)
    bridge.record_run(registry, run, oracle.spec.world_size)
    return strategy, run, registry


def test_registry_buckets_match_ledger_bitwise(strategy_run, oracle):
    strategy, run, registry = strategy_run
    ledger = build_strategy_ledger(run, oracle.spec.world_size)
    derived = bridge.goodput_buckets_from_registry(registry, strategy)
    assert derived == ledger.buckets
    for bucket, total in derived.items():
        assert isinstance(total, Fraction), bucket


def test_store_last_samples_match_ledger_bitwise(strategy_run, oracle):
    strategy, run, registry = strategy_run
    ledger = build_strategy_ledger(run, oracle.spec.world_size)
    assert registry.timeseries is not None
    derived = bridge.goodput_buckets_from_store(registry.timeseries, strategy)
    assert derived == ledger.buckets


def test_phase_histograms_match_ledger_buckets(strategy_run, oracle):
    strategy, run, registry = strategy_run
    ledger = build_strategy_ledger(run, oracle.spec.world_size)
    for phase in ("detection", "restart"):
        derived = bridge.phase_seconds_from_registry(registry, strategy, phase)
        assert derived == ledger.buckets[phase], phase


def test_bucket_totals_cover_wall_clock(strategy_run, oracle):
    strategy, run, registry = strategy_run
    derived = bridge.goodput_buckets_from_registry(registry, strategy)
    total = sum(derived.values(), Fraction(0))
    assert total == Fraction(run.wall_time) * oracle.spec.world_size


# -- families derived from trace records -------------------------------------


@pytest.fixture(scope="module", params=sorted(STRATEGIES))
def projected(request, oracle):
    """One strategy run on ``MULTI`` with its injectors kept, projected
    twice into fresh registries (the second from an identical rerun)."""
    strategy = request.param
    injectors = []

    class Keeping(strategies_mod.FailureInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            injectors.append(self)

    registries = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(strategies_mod, "FailureInjector", Keeping)
        for _ in range(2):
            registry = MetricsRegistry(scrape_interval=1.0)
            run = oracle.run(MULTI, strategy)
            bridge.record_run(registry, run, oracle.spec.world_size)
            registries.append(registry)
    return strategy, run, injectors[-1], registries


def _count(registry, name):
    family = registry.get(name)
    if family is None:
        return 0
    return sum(child.count if hasattr(child, "count") else child.exact
               for _, child in family.children())


def test_derived_storage_counts_match_store_stats(projected):
    _, run, _, (registry, _) = projected
    stats = run.store.stats     # gemini keeps its checkpoints in peer RAM
    assert _count(registry, "repro_storage_write_seconds") == \
        stats["writes_completed"]
    assert _count(registry, "repro_storage_commits") == stats["renames"]
    assert _count(registry, "repro_storage_quarantined") == \
        stats["quarantined"]


def test_failure_counter_matches_injector(projected):
    strategy, _, injector, (registry, _) = projected
    assert len(injector.injected) == len(MULTI.points)
    assert _count(registry, "repro_failures_injected") == \
        len(injector.injected)
    # The per-strategy slice the dashboard renders keeps the failures.
    sliced = filter_snapshot(strategy, snapshot("all", registry),
                             "strategy", strategy)
    assert counter_total(sliced, "repro_failures_injected") == \
        len(injector.injected)


def test_rendezvous_counts_every_launched_collective(projected):
    _, run, _, (registry, _) = projected
    launches = run.tracer.filter(action="collective_launch")
    assert launches
    assert _count(registry, "repro_nccl_collectives_launched") == \
        len(launches)
    assert _count(registry, "repro_nccl_rendezvous_wait_seconds") == \
        sum(len(event.detail["waits"]) for event in launches)


def test_sampled_series_sit_on_interval_multiples(projected):
    _, run, _, (registry, _) = projected
    interval = registry.scrape_interval
    series = registry.timeseries.all_series()
    assert series
    for entry in series:
        times = [time for time, _ in entry.samples]
        assert times == sorted(times), entry.key
        assert times[-1] == run.wall_time, entry.key
        for time in times[:-1]:
            assert time < run.wall_time
            assert time == int(time / interval) * interval, (entry.key, time)
        if entry.kind == "counter":
            values = [value for _, value in entry.samples]
            assert values == sorted(values), entry.key
    ticks = registry.timeseries.series("repro_failures_injected")
    assert ticks and len(ticks[0].samples) > 2


def test_two_runs_produce_identical_series(projected):
    _, _, _, (first, second) = projected

    def series(registry):
        return [(entry.key, entry.kind, tuple(entry.samples))
                for entry in registry.timeseries.all_series()]

    assert series(first) == series(second)
