"""Replica dedup across the synchronize calls of checkpointing strategies.

Periodic, adaptive and Gemini checkpoints drain a rank's device with
``device_synchronize`` and then snapshot it with ``state_dict()``.  A
rank that rides a replica's timeline rides its synchronize too: the
synchronize completes when the last op of every batch the rank rides
has executed, and a failure meanwhile hands the rank its own copies of
those ops with the markers queued behind them.  A synchronize ends only
the rides of the ranks riding ops still queued on the syncing rank's
own streams, and ``state_dict()`` ends only its own rank's ride.  None of
that may show: every observable must match a ``REPRO_DEDUP=0`` run bit
for bit, and a failure-free run copies no op onto a rider's streams.
"""

import numpy as np
import pytest

from repro import flags
from repro.framework import dedup
from repro.oracle import FailurePoint, FailureSchedule, RecoveryOracle

ITERATIONS = 16

STRATEGIES = ("periodic", "adaptive", "gemini")

#: One failing schedule per strategy.  Under periodic, rank 0 checkpoints
#: at iteration 8 while it rides the optimizer batch of iteration 7; the
#: failures land while its synchronize waits on that batch.
FAILING = {
    "periodic": [
        FailureSchedule(points=(FailurePoint(8, "GPU_STICKY", 1,
                                             offset=0.0),)),
        FailureSchedule(points=(FailurePoint(8, "GPU_DRIVER_CORRUPT", 0,
                                             offset=0.1),)),
    ],
    "adaptive": [FailureSchedule(points=(FailurePoint(6, "GPU_STICKY", 2,
                                                      offset=0.3),))],
    "gemini": [FailureSchedule(points=(FailurePoint(6, "GPU_STICKY", 2,
                                                    offset=0.3),))],
}


def _checked(strategy, schedule, on, monkeypatch):
    """Check *schedule*; returns the observables, the ops copied onto
    riders' streams and the synchronizes ridden, in the checked run."""
    counts = {"copied": 0, "ridden": 0}
    checking = []
    copy_op, ride_sync = (dedup.ReplicaArena._copy_op,
                          dedup.ReplicaArena._ride_sync)

    def counting_copy(engine, op, events):
        if checking:
            counts["copied"] += 1
        return copy_op(engine, op, events)

    def counting_ride(arena, follower, streams):
        markers = ride_sync(arena, follower, streams)
        if checking and markers is not None:
            counts["ridden"] += 1
        return markers

    monkeypatch.setattr(dedup.ReplicaArena, "_copy_op",
                        staticmethod(counting_copy))
    monkeypatch.setattr(dedup.ReplicaArena, "_ride_sync", counting_ride)
    try:
        with flags.override(dedup=on):
            oracle = RecoveryOracle(iterations=ITERATIONS)
            runs = []
            run_strategy = oracle.run

            def recording_run(schedule, strategy):
                checking.append(True)
                try:
                    runs.append(run_strategy(schedule, strategy))
                finally:
                    checking.clear()
                return runs[-1]

            oracle.run = recording_run
            verdict = oracle.check(schedule, strategy)
    finally:
        monkeypatch.undo()
    run = runs[-1]
    observed = {
        "outcome": verdict.outcome,
        "losses": np.asarray(run.losses, dtype=np.float64).tobytes(),
        "clock": run.wall_time.hex(),
        "events": run.events,
        "buckets": {name: str(value)
                    for name, value in verdict.ledger.buckets.items()},
        "generations": [(g.start_time.hex(), g.outcome, g.detail,
                         g.iterations_at_end) for g in run.generations],
        "resume_points": dict(run.resume_points),
    }
    return observed, counts


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_failure_free_synchronizes_copy_nothing(strategy, monkeypatch):
    """Failure-free, dedup on matches dedup off bit for bit and copies no
    op onto a rider's streams: not at a synchronize, nor at the
    ``state_dict()`` after one."""
    schedule = FailureSchedule(())
    on, counts = _checked(strategy, schedule, True, monkeypatch)
    off, _ = _checked(strategy, schedule, False, monkeypatch)
    assert on["outcome"] == "exact", on["outcome"]
    assert on == off
    assert counts["copied"] == 0
    if strategy == "periodic":
        # Rank 0 checkpoints while it rides the optimizer batch before.
        assert counts["ridden"] > 0


@pytest.mark.parametrize("case", [(strategy, index)
                                  for strategy, schedules in FAILING.items()
                                  for index in range(len(schedules))])
def test_failing_synchronizes_bitwise_dedup_on_off(case, monkeypatch):
    """A failure, including one landing while a rider's synchronize
    waits on the batch it rides, gives the same verdict, losses, clock,
    events, ledger and generations with dedup on and off."""
    strategy, index = case
    schedule = FAILING[strategy][index]
    on, _ = _checked(strategy, schedule, True, monkeypatch)
    off, _ = _checked(strategy, schedule, False, monkeypatch)
    assert on["outcome"] == "exact", on["outcome"]
    assert on == off
