"""End-to-end oracle tests: real strategies, real schedules.

Tier-1 keeps one representative check per strategy family plus the
broken-strategy detection proof; the all-strategy fuzz sweeps are marked
``fuzz`` and run via ``pytest -m fuzz`` (see docs/testing.md).
"""

import pytest

from repro.oracle import (FailurePoint, FailureSchedule, RecoveryOracle,
                          STRATEGIES, default_oracle_spec, shrink)
from repro.oracle.strategies import run_strategy

ITERS = 12

SINGLE = FailureSchedule(points=(
    FailurePoint(3, "GPU_DRIVER_CORRUPT", 1, offset=0.4),))

MULTI = FailureSchedule(points=(
    FailurePoint(3, "GPU_HARD", 1, offset=0.3),
    FailurePoint(6, "GPU_STICKY", 2, offset=0.8),))


@pytest.fixture(scope="module")
def oracle():
    return RecoveryOracle(iterations=ITERS)


def test_single_failure_exact_across_all_strategies(oracle):
    for strategy in STRATEGIES:
        verdict = oracle.check(SINGLE, strategy)
        assert verdict.passed, verdict.describe()


def test_multi_failure_exact_for_jit_strategies(oracle):
    for strategy in ("transparent", "swift", "user_level"):
        verdict = oracle.check(MULTI, strategy)
        assert verdict.passed, verdict.describe()


@pytest.mark.parametrize("strategy", ["user_level", "periodic", "gemini"])
def test_managed_armer_waits_on_events_not_a_clock(strategy, monkeypatch):
    """The failure armer sleeps only for a point's sub-minibatch offset.

    It wakes when a lagging engine reaches the point's iteration or a new
    generation starts (MULTI's hard failure restarts the job), never on a
    polling timeout.
    """
    from repro.sim import Environment

    armer_delays = []
    timeout = Environment.timeout

    def recording_timeout(env, delay, value=None):
        process = env.active_process
        if process is not None and process.name == "oracle-armer":
            armer_delays.append(delay)
        return timeout(env, delay, value)

    monkeypatch.setattr(Environment, "timeout", recording_timeout)
    run = run_strategy(strategy, default_oracle_spec(), MULTI, ITERS)
    assert run.completed and len(run.generations) > 1
    minibatch = default_oracle_spec().minibatch_time
    assert armer_delays == [point.offset * minibatch
                            for point in MULTI.points]


def test_swift_golden_uses_invertible_optimizer(oracle):
    assert oracle.golden("swift") != oracle.golden("transparent")
    assert oracle.golden("transparent") == oracle.golden("periodic")


def test_failure_during_recovery_shape(oracle):
    schedule = oracle.fuzzer(31).draw(shape="during_recovery")
    verdict = oracle.check(schedule, "transparent")
    assert verdict.passed, verdict.describe()


def test_unknown_strategy_and_mutation_rejected():
    spec = default_oracle_spec()
    with pytest.raises(ValueError, match="unknown strategy"):
        run_strategy("magic", spec, SINGLE, ITERS)
    with pytest.raises(ValueError, match="unknown mutations"):
        run_strategy("transparent", spec, SINGLE, ITERS,
                     mutations=("break_everything",))
    with pytest.raises(ValueError, match="does not apply"):
        run_strategy("periodic", spec, SINGLE, ITERS,
                     mutations=("skip_rng_rewind",))


def test_broken_strategy_caught_and_shrunk_to_minimal_schedule():
    """The acceptance check: a strategy that skips the RNG rewind before
    replay must be flagged as inexact, and the failing multi-point
    schedule must shrink to a minimal one-point reproducer with a replay
    command."""
    spec = default_oracle_spec(dropout=0.1)
    broken = RecoveryOracle(spec=spec, iterations=ITERS,
                            mutations=("skip_rng_rewind",))
    schedule = FailureSchedule(points=(
        FailurePoint(6, "GPU_STICKY", 2, offset=0.7),
        FailurePoint(3, "GPU_DRIVER_CORRUPT", 1, offset=0.4),))
    verdict = broken.check(schedule, "transparent")
    assert not verdict.passed
    assert any(v.invariant == "exactness" for v in verdict.violations)

    result = shrink(broken, schedule, "transparent")
    assert len(result.minimal) == 1
    assert "python -m repro.oracle replay" in result.repro
    assert not broken.check(result.minimal, "transparent").passed

    # The same workload and schedule pass without the mutation.
    healthy = RecoveryOracle(spec=spec, iterations=ITERS)
    assert healthy.check(schedule, "transparent").passed


def test_cli_replay_round_trip(capsys):
    from repro.oracle.__main__ import main

    code = main(["replay", "--strategy", "transparent",
                 "--iterations", str(ITERS),
                 "--schedule", SINGLE.to_json()])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact" in out


def test_sweep_progress_line_reports_logical_events():
    from repro.oracle.__main__ import progress_line

    oracle = RecoveryOracle(iterations=ITERS)
    verdict = oracle.check(SINGLE, "transparent")
    assert verdict.events == oracle.events_processed > 0
    assert progress_line(verdict).endswith(f" events={verdict.events}")


def test_sweep_over_storage_shapes_stays_exact():
    """A torn-write/bit-rot sweep under one strategy is exact and really
    corrupts the store; an unknown shape is refused."""
    oracle = RecoveryOracle(iterations=ITERS, strategies=("user_level",))
    report = oracle.sweep(seed=7, count=2, shapes=("torn_write", "bit_rot"))
    assert len(report.verdicts) == 2
    assert report.passed, "\n".join(v.describe() for v in report.failures)
    storage = oracle.storage_stats
    assert storage["writes_started"] > 0
    assert storage["bit_rot_injected"] + storage["writes_torn"] >= 1

    with pytest.raises(ValueError, match="unknown shapes"):
        oracle.sweep(seed=7, count=1, shapes=("disk_on_fire",))


@pytest.mark.fuzz
def test_fuzz_sweep_all_strategies_zero_violations():
    oracle = RecoveryOracle(iterations=16)
    report = oracle.sweep(seed=7, count=5)
    failing = "\n".join(v.describe() for v in report.failures)
    assert report.passed, failing


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [11, 23])
def test_fuzz_sweep_transparent_family_deep(seed):
    oracle = RecoveryOracle(iterations=16)
    report = oracle.sweep(seed=seed, count=8,
                          strategies=("transparent", "swift"))
    failing = "\n".join(v.describe() for v in report.failures)
    assert report.passed, failing
