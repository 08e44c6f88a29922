"""``run_perf_baseline.py --check``: the gate on the committed baseline.

Wall-clock rates are held to per-bench thresholds; logical event counts
are deterministic, so they must match the committed entry exactly.
"""

from benchmarks.run_perf_baseline import check_regressions

COMMITTED = {"benches": {"bench_ddp_training_throughput": {
    "events": 8196, "best_wall_seconds": 0.03, "events_per_sec": 273200}}}


def _measured(events, rate):
    return {"bench_ddp_training_throughput": {
        "events": events, "best_wall_seconds": events / rate,
        "events_per_sec": rate}}


def test_same_events_within_threshold_passes():
    assert check_regressions(_measured(8196, 250000), COMMITTED) == 0


def test_changed_event_count_fails_even_when_faster(capsys):
    assert check_regressions(_measured(8200, 400000), COMMITTED) == 1
    assert "EVENTS CHANGED (8200 vs committed 8196)" in capsys.readouterr().out


def test_rate_regression_fails():
    assert check_regressions(_measured(8196, 100000), COMMITTED) == 1
