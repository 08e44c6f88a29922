"""Goodput-ledger accounting identity across all six strategies.

The identity is structural — ``productive + detection + rework + restart
+ idle == wall-clock x ranks`` as exact :class:`fractions.Fraction`
sums — so these tests assert bitwise equality, not approximate balance,
under every oracle schedule shape the ledger must survive: failure-free
golden runs, a single hard error, back-to-back hard errors, a second
failure landing during recovery, and a hard error followed two
iterations later by a sticky one on another rank.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import BUCKETS, GoodputLedger, build_strategy_ledger, merge_buckets
from repro.obs.ledger import _partition_rank, _Segment
from repro.oracle.oracle import default_oracle_spec
from repro.oracle.schedule import FailurePoint, FailureSchedule
from repro.oracle.strategies import STRATEGIES, run_strategy

SPEC = default_oracle_spec()
ITERS = 8

SCHEDULES = {
    "no_failure": FailureSchedule(points=()),
    "single": FailureSchedule(points=(
        FailurePoint(3, "GPU_HARD", 1, offset=0.4),)),
    "back_to_back_hard": FailureSchedule(points=(
        FailurePoint(3, "GPU_HARD", 1, offset=0.2),
        FailurePoint(4, "GPU_HARD", 2, offset=0.5),)),
    "during_recovery": FailureSchedule(points=(
        FailurePoint(3, "GPU_STICKY", 0, offset=0.2),
        FailurePoint(3, "GPU_HARD", 2, offset=2.4),)),
    "multi": FailureSchedule(points=(
        FailurePoint(4, "GPU_HARD", 1, offset=0.3),
        FailurePoint(6, "GPU_STICKY", 2, offset=0.8),)),
}
SHAPES = tuple(SCHEDULES)


@lru_cache(maxsize=None)
def ledger_for(strategy: str, shape: str) -> GoodputLedger:
    run = run_strategy(strategy, SPEC, SCHEDULES[shape], ITERS)
    return build_strategy_ledger(run, SPEC.world_size)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_accounting_identity_is_bitwise(strategy, shape):
    ledger = ledger_for(strategy, shape)
    assert ledger.balanced
    # The identity spelled out: exact-fraction bucket sum == wall x ranks.
    assert ledger.total == Fraction(ledger.wall_time) * SPEC.world_size
    assert all(ledger.buckets[name] >= 0 for name in BUCKETS)
    assert set(ledger.buckets) == set(BUCKETS)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_golden_runs_report_zero_badput(strategy):
    ledger = ledger_for(strategy, "no_failure")
    assert ledger.buckets["rework"] == 0
    assert ledger.buckets["restart"] == 0
    assert ledger.buckets["detection"] == 0
    assert ledger.buckets["productive"] > 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_failure_runs_record_badput(strategy):
    ledger = ledger_for(strategy, "single")
    badput = (ledger.buckets["detection"] + ledger.buckets["rework"]
              + ledger.buckets["restart"])
    assert badput > 0
    assert ledger.badput_fraction > 0.0
    # A failure can only cost goodput relative to the golden run.
    golden = ledger_for(strategy, "no_failure")
    assert ledger.goodput_fraction < golden.goodput_fraction


def test_to_metrics_is_flat_floats_with_balance_flag():
    ledger = ledger_for("transparent", "single")
    metrics = ledger.to_metrics()
    assert metrics["goodput_balanced"] == 1.0
    for name in BUCKETS:
        value = metrics[f"goodput_{name}_seconds"]
        assert isinstance(value, float) and value >= 0.0
    assert 0.0 <= metrics["goodput_fraction"] <= 1.0
    assert 0.0 <= metrics["goodput_badput_fraction"] <= 1.0


def test_merge_buckets_sums_exactly():
    ledgers = [ledger_for("transparent", "no_failure"),
               ledger_for("transparent", "single")]
    merged = merge_buckets(ledgers)
    for name in BUCKETS:
        assert merged[name] == sum(
            (ledger.buckets[name] for ledger in ledgers), Fraction(0))


def test_describe_flags_identity():
    text = ledger_for("swift", "single").describe()
    assert "identity exact" in text
    assert "swift" in text


def _partition_rank_on_fractions(segments, wall: Fraction):
    """The partition computed on Fractions throughout: the reference."""
    if wall <= 0:
        return []
    clipped = []
    points = {Fraction(0), wall}
    for seg in segments:
        start = max(Fraction(0), min(Fraction(seg.start), wall))
        end = max(Fraction(0), min(Fraction(seg.end), wall))
        if end <= start:
            continue
        clipped.append((start, end, seg.priority, seg.order, seg))
        points.add(start)
        points.add(end)
    boundaries = sorted(points)
    intervals = []
    for left, right in zip(boundaries, boundaries[1:]):
        winner = None
        for start, end, priority, seg_order, seg in clipped:
            if start <= left and end >= right:
                key = (priority, -seg_order)
                if winner is None or key < winner[0]:
                    winner = (key, seg)
        intervals.append((left, right,
                          "idle" if winner is None else winner[1].bucket))
    return intervals


#: Shared endpoints make equal, touching and zero-length segments common;
#: negative and beyond-wall values exercise the clip.
_ANCHORS = (-1.5, -0.0, 0.0, 0.1, 0.30000000000000004, 1.0, 2.5, 7.0, 7.5,
            1e9)
_endpoint = st.one_of(st.sampled_from(_ANCHORS),
                      st.floats(min_value=-3.0, max_value=12.0,
                                allow_nan=False))
_segment = st.tuples(_endpoint, _endpoint, st.integers(0, 4),
                     st.sampled_from(("productive", "rework", "restart",
                                      "detection")))


@given(wall=st.one_of(st.sampled_from((0.0, 1.0, 7.0, 7.5)),
                      st.floats(min_value=-1.0, max_value=10.0,
                                allow_nan=False)),
       raw=st.lists(_segment, max_size=12))
@settings(max_examples=300, deadline=None)
def test_partition_on_floats_matches_fractions(wall, raw):
    segments = [_Segment(start, end, priority, order, bucket)
                for order, (start, end, priority, bucket)
                in enumerate(raw, start=1)]
    got = _partition_rank(segments, wall)
    assert got == _partition_rank_on_fractions(segments, Fraction(wall))
    assert all(type(start) is Fraction and type(end) is Fraction
               for start, end, _ in got)
