"""Replica dedup across the synchronize calls of checkpointing strategies.

Periodic, adaptive and Gemini checkpoints drain a rank's device with
``device_synchronize`` and then snapshot it with ``state_dict()``.  A
synchronize observes the syncing rank's streams, so every rank riding a
replica's timeline in its group materialises first: it gets its own
copies of the ops still queued, and the markers queue behind the syncing
rank's own ops.  ``state_dict()`` ends only its own rank's ride.  None of
that may show: every observable must match a ``REPRO_DEDUP=0`` run bit
for bit, failure-free and with failures landing around a checkpoint.
"""

import numpy as np
import pytest

from repro import flags
from repro.cuda.runtime import CudaContext
from repro.oracle import FailurePoint, FailureSchedule, RecoveryOracle

ITERATIONS = 16

STRATEGIES = ("periodic", "adaptive", "gemini")

#: One failing schedule per strategy.  Under periodic, rank 0 reaches its
#: checkpoint at iteration 8 while it rides the optimizer batch of
#: iteration 7: the synchronize materialises it, and the failures land
#: while the synchronize waits on its copies of that batch.
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


def _checked(strategy, schedule, on):
    """Check *schedule*; returns the observables of the checked run."""
    with flags.override(dedup=on):
        oracle = RecoveryOracle(iterations=ITERATIONS)
        runs = []
        run_strategy = oracle.run

        def recording_run(schedule, strategy):
            runs.append(run_strategy(schedule, strategy))
            return runs[-1]

        oracle.run = recording_run
        verdict = oracle.check(schedule, strategy)
    run = runs[-1]
    return {
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


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_failure_free_synchronizes_bitwise_dedup_on_off(strategy):
    """Failure-free, dedup on matches dedup off bit for bit."""
    schedule = FailureSchedule(())
    on = _checked(strategy, schedule, True)
    off = _checked(strategy, schedule, False)
    assert on["outcome"] == "exact", on["outcome"]
    assert on == off


def test_a_synchronize_ends_every_ride(monkeypatch):
    """Every synchronize on a member's context leaves its arena with no
    riders, including rank 0's periodic checkpoint, which it reaches
    while it rides the optimizer batch before it."""
    synced = []
    sync_markers = CudaContext.sync_markers

    def checked_sync_markers(ctx, streams):
        markers = sync_markers(ctx, streams)
        hook = ctx.follow_hook
        if hook is not None:
            synced.append(list(hook.__self__._riding))
        return markers

    monkeypatch.setattr(CudaContext, "sync_markers", checked_sync_markers)
    on = _checked("periodic", FailureSchedule(()), True)
    assert on["outcome"] == "exact", on["outcome"]
    assert synced
    assert all(riding == [] for riding in synced)


@pytest.mark.parametrize("case", [(strategy, index)
                                  for strategy, schedules in FAILING.items()
                                  for index in range(len(schedules))])
def test_failing_synchronizes_bitwise_dedup_on_off(case):
    """A failure, including one landing while a synchronize waits on the
    ops its rank copied when its ride ended, gives the same verdict,
    losses, clock, events, ledger and generations with dedup on and
    off."""
    strategy, index = case
    schedule = FAILING[strategy][index]
    on = _checked(strategy, schedule, True)
    off = _checked(strategy, schedule, False)
    assert on["outcome"] == "exact", on["outcome"]
    assert on == off
