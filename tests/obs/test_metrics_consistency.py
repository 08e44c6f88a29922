"""Bitwise ledger <-> metrics reconciliation across all six strategies.

The metrics bridge and the goodput ledger both consume
:func:`repro.obs.ledger.classify_run`, and the registry accumulates in
exact :class:`~fractions.Fraction` arithmetic, so every derived view
must reproduce the ledger's bucket totals *bitwise* — not approximately:

* the ``repro_goodput_seconds`` counter, summed per bucket;
* the last sample of each goodput series in the scraped store
  (counters are cumulative, so last == total);
* the detection/restart phase histograms' exact sums.
"""

from fractions import Fraction

import pytest

from repro import flags
from repro.obs.ledger import build_strategy_ledger
from repro.obs.metrics import bridge, collecting
from repro.oracle import (FailurePoint, FailureSchedule, RecoveryOracle,
                          STRATEGIES)

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
    with flags.override(obs=True), collecting(scrape_interval=1.0) as registry:
        run = oracle.run(MULTI, strategy)
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
