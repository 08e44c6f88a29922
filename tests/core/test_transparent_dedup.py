"""Replica dedup under the transparent family's device proxy.

Transparent and Swift DDP jobs share replica arenas, group math and
followers like the restart-based strategies do.  Recovery dissolves every
arena and runs on private state, and the arena re-shares once recovery
has left every replica at the same version.  A rank that rides a
replica's timeline logs one lazy entry per ridden iteration, expanded
into its own records only when the log is read.  Replay-log validation
does not ride: every replica re-executes the validated iteration on its
own math and gradients, a rider on its expanded log.  None of that may
show: every observable must match a ``REPRO_DEDUP=0`` run bit for bit,
on one schedule for each of recovery's reset branches, on failure-free
runs validating early, late and periodically, and on failures landing
in the validated iteration.
A validation that re-executes a broken log fails with dedup on as it
does with dedup off.
"""

import dataclasses

import numpy as np
import pytest

from repro import flags
from repro.core.proxy import DeviceProxyApi
from repro.core.replay_log import ZeroFill
from repro.core.virtual_handles import (VirtualBuffer, VirtualEvent,
                                        VirtualStream)
from repro.core.config import JitConfig
from repro.cuda.memory import HostBuffer
from repro.framework import dedup
from repro.framework.attention import AttentionBlockParams
from repro.hardware.specs import A100_NODE
from repro.oracle import FailurePoint, FailureSchedule, RecoveryOracle
from repro.oracle.oracle import default_oracle_spec
from repro.parallel.topology import ParallelLayout
from tests.oracle.test_timing_edges import (BACK_TO_BACK_70002,
                                            DURING_RECOVERY_2020003)

ITERATIONS = 16

#: Two A100 nodes: the only layout where a link flap stalls collectives.
TWO_NODES = dataclasses.replace(
    default_oracle_spec(), node_spec=A100_NODE, num_nodes=2,
    layout=ParallelLayout(dp=8))

#: One schedule per reset branch of transparent recovery, with the
#: branch it takes: (spec, schedule, reset of each rank or "hard", base
#: version below the target minibatch).
BRANCHES = {
    "transient_retain": (TWO_NODES, FailureSchedule(points=(
        FailurePoint(4, "NETWORK_TRANSIENT", 1, offset=0.3,
                     duration=150.0),)), {"retain"}, False),
    "driver_corrupt_staging": (None, FailureSchedule(points=(
        FailurePoint(4, "GPU_DRIVER_CORRUPT", 1, offset=0.5),)),
        {"retain", "stage"}, False),
    "sticky_replica_copy": (None, FailureSchedule(points=(
        FailurePoint(8, "GPU_STICKY", 2, offset=0.5),)),
        {"retain", "replica"}, False),
    "optimizer_rollback": (None, FailureSchedule(points=(
        FailurePoint(5, "GPU_STICKY", 2, offset=1.3),)),
        {"retain", "replica"}, True),
    "hard_migration": (None, FailureSchedule(points=(
        FailurePoint(2, "GPU_HARD", 1, offset=0.4),)), {"hard"}, False),
    "back_to_back": (None, BACK_TO_BACK_70002, {"hard"}, False),
    "during_recovery": (None, DURING_RECOVERY_2020003,
                        {"retain", "replica", "stage"}, False),
}


def _checked(strategy, spec, schedule, on, monkeypatch, mutations=(),
             config=None):
    """Check *schedule*, under *config* if given; returns the
    observables, the run, the arenas, the rides, the resets recovery ran
    and the counts of the checked run: attention-block backwards on
    private math (one per attention block of a private rank-iteration)
    and arena dissolves outside recovery."""
    from repro.core import transparent
    from repro.hardware.gpu import GpuHealth
    from repro.oracle import strategies

    arenas, rides, resets = [], [], []
    counts = {"private_backwards": 0, "dissolves_outside_recovery": 0}
    attach, ride = dedup.attach_job, DeviceProxyApi.ride
    coordinator = transparent.RecoveryCoordinator
    local, replica = (coordinator._reset_rank_local,
                      coordinator._reset_rank_from_replica)
    hard = coordinator._hard_error_steps
    backward, dissolve = (AttentionBlockParams.backward,
                          dedup.ReplicaArena.dissolve)
    checking = []

    def counting_backward(block, dy, cache, k=1):
        if checking and k == 1:
            counts["private_backwards"] += 1
        return backward(block, dy, cache, k)

    def counting_dissolve(arena):
        if not arena.engines[0].api.coordinator.in_recovery:
            counts["dissolves_outside_recovery"] += 1
        dissolve(arena)

    def recording_attach(job):
        attached = attach(job)
        if isinstance(job.apis[0], DeviceProxyApi):   # not a golden run
            arenas.extend(attached)
        return attached

    def recording_ride(proxy, step, batch):
        rides.append((proxy.rank, step.iteration))
        return ride(proxy, step, batch)

    def reset_local(self, proxy, base):
        healthy = proxy.ctx.gpu.health is GpuHealth.HEALTHY
        resets.append("retain" if healthy else "stage")
        return local(self, proxy, base)

    def reset_from_replica(self, proxy, base):
        resets.append("replica")
        return replica(self, proxy, base)

    def hard_steps(self, record, hard_ranks, base):
        resets.append("hard")
        return hard(self, record, hard_ranks, base)

    monkeypatch.setattr(dedup, "attach_job", recording_attach)
    monkeypatch.setattr(DeviceProxyApi, "ride", recording_ride)
    monkeypatch.setattr(coordinator, "_reset_rank_local", reset_local)
    monkeypatch.setattr(coordinator, "_reset_rank_from_replica",
                        reset_from_replica)
    monkeypatch.setattr(coordinator, "_hard_error_steps", hard_steps)
    monkeypatch.setattr(AttentionBlockParams, "backward", counting_backward)
    monkeypatch.setattr(dedup.ReplicaArena, "dissolve", counting_dissolve)
    if config is not None:
        monkeypatch.setattr(strategies, "JitConfig", lambda: config)
    try:
        with flags.override(dedup=on):
            oracle = RecoveryOracle(spec=spec, iterations=ITERATIONS,
                                    mutations=mutations)
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
    records = [(record.kind, record.rank,
                {phase: duration.hex() for phase, duration
                 in record.breakdown().items()},
                repr(sorted(record.notes.items())))
               for record in run.telemetry.records]
    ranks = [(proxy.completed_steps, list(proxy.validation_results),
              [(vbuf.label, vbuf.array.tobytes())
               for vbuf in proxy.persistent_buffers()])
             for proxy in run.proxies]
    observed = {
        "outcome": verdict.outcome,
        "losses": np.asarray(run.losses, dtype=np.float64).tobytes(),
        "clock": run.wall_time.hex(),
        "events": run.events,
        "buckets": {name: str(value)
                    for name, value in verdict.ledger.buckets.items()},
        "records": records,
        "ranks": ranks,
    }
    return observed, run, arenas, rides, resets, counts


@pytest.mark.parametrize("branch", list(BRANCHES))
@pytest.mark.parametrize("strategy", ["transparent", "swift"])
def test_transparent_family_dedup_on_off_bitwise(strategy, branch,
                                                 monkeypatch):
    """Losses, final clock, logical events, ledger buckets, every
    recovery record's breakdown and notes, each rank's completed steps,
    validation results and final parameters and optimizer state match
    dedup off bit for bit.  With dedup on the job's arena rides
    followers and is shared again after recovery."""
    spec, schedule, branch_resets, rolled_back = BRANCHES[branch]
    on, run, arenas, rides, resets, _ = _checked(strategy, spec, schedule,
                                              True, monkeypatch)
    off, _, off_arenas, off_rides, off_resets, _ = _checked(
        strategy, spec, schedule, False, monkeypatch)
    assert on["outcome"] == "exact", on["outcome"]
    assert on == off
    # The schedule reaches the branch it stands for.
    assert set(resets) == set(off_resets) == branch_resets, resets
    notes = [record.notes for record in run.telemetry.records]
    assert notes, "recovery must have run"
    assert any(note["base_version"] < note["minibatch"]
               for note in notes) is rolled_back
    # Dedup engaged: one arena, riders rode, and recovery re-shared it.
    assert not off_arenas and not off_rides
    arena, = arenas
    assert arena.group_math
    assert len(rides) > len(arena.engines) * 4, rides
    # Every member diverged and was re-shared at least once.
    assert all(arena.active)
    assert arena.dedup_epoch >= 2 * len(arena.engines)


# -- validation ------------------------------------------------------------------------

#: Failure-free validation schedules: the first, a middle and the last
#: iteration, and every third one from the default start.
VALIDATIONS = {
    "first": JitConfig(validation_start_iteration=0),
    "middle": JitConfig(validation_start_iteration=5),
    "last": JitConfig(validation_start_iteration=ITERATIONS - 1),
    "every_third": JitConfig(validation_interval=3),
}


def _validated(config):
    start, interval = (config.validation_start_iteration,
                       config.validation_interval)
    return [it for it in range(ITERATIONS) if it == start or (
        interval and it > start and (it - start) % interval == 0)]


@pytest.mark.parametrize("validation", list(VALIDATIONS))
@pytest.mark.parametrize("strategy", ["transparent", "swift"])
def test_validation_bitwise_dedup_on_off(strategy, validation, monkeypatch):
    """A failure-free run validating early, late or periodically matches
    dedup off bit for bit and every rank's validations pass.  With dedup
    on every member re-executes each validated iteration on its own
    math, no arena dissolves, and the riders ride every iteration but
    the one behind a validation."""
    config = VALIDATIONS[validation]
    schedule = FailureSchedule(())
    on, run, arenas, rides, _, counts = _checked(
        strategy, None, schedule, True, monkeypatch, config=config)
    off, *_ = _checked(strategy, None, schedule, False, monkeypatch,
                       config=config)
    assert on["outcome"] == "exact", on["outcome"]
    assert on == off
    validated = _validated(config)
    passed = [True] * len(validated)
    assert passed and all(results == passed
                          for _, results, _ in on["ranks"])
    arena, = arenas
    attention = sum(isinstance(block, AttentionBlockParams)
                    for block in arena.engines[0].blocks)
    assert counts == {
        "private_backwards": len(arena.engines) * attention * len(validated),
        "dissolves_outside_recovery": 0}
    # The iteration enqueued behind a validation runs privately: the
    # validation's collectives are still queued on every member's streams.
    behind = {it + 1 for it in validated}
    assert sorted(rides) == [(rank, it)
                             for rank in range(1, len(arena.engines))
                             for it in range(ITERATIONS) if it not in behind]


#: Failures landing in the validated iteration (the default, 5): in its
#: forward/backward pass, so recovery replays it before it validates, and
#: in its validation's re-execution, which recovery abandons and rolls
#: back.
IN_VALIDATED_ITERATION = {
    "forward_backward": FailureSchedule(points=(
        FailurePoint(5, "GPU_STICKY", 2, offset=0.5),)),
    "re_execution": FailureSchedule(points=(
        FailurePoint(5, "GPU_DRIVER_CORRUPT", 1, offset=1.3),)),
}


@pytest.mark.parametrize("where", list(IN_VALIDATED_ITERATION))
@pytest.mark.parametrize("strategy", ["transparent", "swift"])
def test_failure_in_validated_iteration_bitwise_dedup_on_off(
        strategy, where, monkeypatch):
    """Recovery from a failure in the validated iteration matches dedup
    off bit for bit, and only recovery dissolves an arena."""
    schedule = IN_VALIDATED_ITERATION[where]
    on, run, _, _, _, counts = _checked(strategy, None, schedule, True,
                                        monkeypatch)
    off, *_ = _checked(strategy, None, schedule, False, monkeypatch)
    assert on["outcome"] == "exact", on["outcome"]
    assert on == off
    assert run.telemetry.records, "recovery must have run"
    assert counts["dissolves_outside_recovery"] == 0


@pytest.mark.parametrize("strategy", ["transparent", "swift"])
def test_validation_with_a_replica_that_cannot_ride(strategy, monkeypatch):
    """A replica that cannot ride the validated iteration enqueues it
    privately on the group's math.  Every rank still validates on its own
    math and gradients, the riders on their expanded logs filled with
    what riding computed, and the run still matches dedup off bit for
    bit without dissolving the arena."""
    validated = JitConfig().validation_start_iteration
    can_join = dedup.ReplicaArena._can_join
    refused = []

    def refusing(arena, follower, batch):
        if (batch.iteration == validated and batch.bwd_done is not None
                and follower.rank == 3):
            refused.append(follower.rank)
            return False
        return can_join(arena, follower, batch)

    monkeypatch.setattr(dedup.ReplicaArena, "_can_join", refusing)
    on, run, _, rides, _, counts = _checked(strategy, None,
                                            FailureSchedule(()), True,
                                            monkeypatch)
    off, *_ = _checked(strategy, None, FailureSchedule(()), False,
                       monkeypatch)
    assert refused
    assert (1, validated) in rides and (3, validated) not in rides
    assert on["outcome"] == "exact", on["outcome"]
    assert on == off
    assert all(results == [True] for _, results, _ in on["ranks"])
    assert counts["dissolves_outside_recovery"] == 0


@pytest.mark.parametrize("on", [True, False], ids=["dedup_on", "dedup_off"])
@pytest.mark.parametrize("strategy", ["transparent", "swift"])
def test_validation_of_a_log_missing_its_input_upload_fails(strategy, on,
                                                            monkeypatch):
    """Riding is no rubber stamp: with the minibatch's host-to-device
    input copy dropped from every rank's log, the re-executed iteration
    computes from a zero input and every rank's validation fails.  The
    optimizer then steps on the gradient recomputed from that input, so
    training leaves the golden run."""
    validated = JitConfig().validation_start_iteration
    begin = DeviceProxyApi.optimizer_step_begin

    def dropping_upload(proxy, iteration):
        if iteration == validated:
            records = proxy.log.records
            records[:] = [record for record in records
                          if record.method != "memcpy_h2d"]
        begin(proxy, iteration)

    monkeypatch.setattr(DeviceProxyApi, "optimizer_step_begin",
                        dropping_upload)
    observed, *_ = _checked(strategy, None, FailureSchedule(()), on,
                            monkeypatch)
    assert [results for _, results, _ in observed["ranks"]] \
        == [[False]] * 4
    assert observed["outcome"] == "violation"


def test_transparent_is_exact_with_one_sample_per_rank():
    """Group math with one-row shards recovers to the failure-free loss:
    each member's products are its own BLAS calls, as a private rank's."""
    spec = dataclasses.replace(default_oracle_spec(), global_batch=4)
    schedule = FailureSchedule(points=(
        FailurePoint(3, "GPU_STICKY", 1, offset=0.5),))
    verdict = RecoveryOracle(spec, iterations=6).check(schedule,
                                                       "transparent")
    assert verdict.outcome == "exact", verdict.describe()


# -- rider logs ------------------------------------------------------------------------


def _signature(record):
    """Everything a record says that a rider's copy must reproduce."""
    def describe(arg):
        if isinstance(arg, VirtualBuffer):
            return ("buffer", arg.label, arg.kind.value, arg.logical_nbytes)
        if isinstance(arg, VirtualStream):
            return ("stream", arg.name_hint)
        if isinstance(arg, VirtualEvent):
            return ("event", arg.name_hint)
        if isinstance(arg, HostBuffer):
            return ("host", arg.label, arg.array.tobytes())
        if isinstance(arg, (tuple, list)):
            return tuple(describe(item) for item in arg)
        if arg is None or isinstance(arg, (str, int, float)):
            return arg
        if callable(arg):
            return "thunk"
        return getattr(arg, "name", type(arg).__name__)

    contents = record.initial_contents
    if contents is None:
        snapshot = None
    elif type(contents) is ZeroFill:
        snapshot = ("zero", contents.shape, str(contents.dtype))
    else:
        snapshot = ("array", contents.tobytes())
    return (record.method, record.phase.value, record.minibatch,
            tuple(describe(arg) for arg in record.args), snapshot)


def _logged(schedule, on, monkeypatch):
    """Each rank's log at every minibatch boundary and at each replay,
    after the calls it counts as logged so far, read before the log."""
    logs: dict[int, list] = {}
    rides = []
    begin, end = DeviceProxyApi.minibatch_begin, DeviceProxyApi.minibatch_end
    replay, ride = DeviceProxyApi.replay, DeviceProxyApi.ride

    def snapshot(proxy, when, read):
        logged = proxy.log.total_logged
        logs.setdefault(proxy.rank, []).append(
            (when, logged, [_signature(record) for record in read()]))

    def minibatch_begin(proxy, iteration):
        snapshot(proxy, ("begin", iteration), lambda: proxy.log.records)
        begin(proxy, iteration)

    def minibatch_end(proxy, iteration):
        end(proxy, iteration)
        snapshot(proxy, ("end", iteration), lambda: proxy.log.records)

    def recording_replay(proxy, skip_optimizer=False,
                         include_previous=False):
        def read():
            return ((list(proxy.log.previous_records) if include_previous
                     else []) + list(proxy.log.records))

        snapshot(proxy, ("replay", include_previous), read)
        return replay(proxy, skip_optimizer=skip_optimizer,
                      include_previous=include_previous)

    def recording_ride(proxy, step, batch):
        rides.append((proxy.rank, step.iteration))
        return ride(proxy, step, batch)

    monkeypatch.setattr(DeviceProxyApi, "minibatch_begin", minibatch_begin)
    monkeypatch.setattr(DeviceProxyApi, "minibatch_end", minibatch_end)
    monkeypatch.setattr(DeviceProxyApi, "replay", recording_replay)
    monkeypatch.setattr(DeviceProxyApi, "ride", recording_ride)
    try:
        with flags.override(dedup=on):
            verdict = RecoveryOracle(iterations=ITERATIONS).check(
                schedule, "transparent")
    finally:
        monkeypatch.undo()
    assert verdict.passed, verdict.describe()
    return logs, rides


@pytest.mark.parametrize("branch", ["sticky_replica_copy",
                                    "optimizer_rollback"])
def test_rider_logs_expand_to_the_private_log(branch, monkeypatch):
    """At every minibatch boundary and at each replay, every rank's log,
    riders' expanded entries included, equals the same rank's log with
    dedup off, record for record: method, phase, minibatch, kernel name
    and duration, buffer label, kind and logical bytes, stream role, host
    inputs and zero-fill versus array snapshots.  So does the count of
    calls logged so far, taken before the log is read: a rider counts
    every call it rode when it rides it, and reading moves nothing."""
    _, schedule, _, _ = BRANCHES[branch]
    on, rides = _logged(schedule, True, monkeypatch)
    off, no_rides = _logged(schedule, False, monkeypatch)
    assert rides and not no_rides
    riders = {rank for rank, _ in rides}
    assert riders and 0 not in riders
    assert set(on) == set(off)
    for rank in on:
        assert [when for when, _, _ in on[rank]] == \
            [when for when, _, _ in off[rank]]
        assert any(when[0] == "replay" for when, _, _ in on[rank])
        for (when, logged, mine), (_, private_logged, private) in zip(
                on[rank], off[rank]):
            assert logged == private_logged, (rank, when)
            assert mine == private, (rank, when)


def test_group_math_gradients_log_zero_fill(monkeypatch):
    """Group-math gradient buffers alias the arena's reduced gradient,
    which is non-zero when the next iteration allocates; their malloc
    records still hold a zero-fill marker, not a copy."""
    logs, _ = _logged(BRANCHES["sticky_replica_copy"][1], True, monkeypatch)
    grads = [signature for when, _, records in logs[0] if when[0] == "end"
             for signature in records
             if signature[0] == "malloc" and signature[3][0][1].startswith(
                 "grad#")]
    assert grads
    assert all(signature[4][0] == "zero" for signature in grads)


# -- mutation: dedup never repairs a broken recovery -------------------------------------


@pytest.mark.parametrize("strategy", ["transparent", "swift"])
def test_perturbed_replica_copy_is_caught_with_dedup_on_and_off(
        strategy, monkeypatch):
    """A replica copy that lands one ulp off gives the same non-exact
    verdict and the same loss stream with dedup on and off, and the
    re-share refuses the perturbed rank instead of overwriting its state
    with the group's."""
    schedule = BRANCHES["sticky_replica_copy"][1]
    mutations = ("perturb_replica_copy",)
    on, run, arenas, _, _, _ = _checked(strategy, None, schedule, True,
                                     monkeypatch, mutations)
    off, _, _, _, _, _ = _checked(strategy, None, schedule, False,
                               monkeypatch, mutations)
    assert on["outcome"] == off["outcome"] == "violation"
    assert on["losses"] == off["losses"]
    assert on == off
    arena, = arenas
    victim = schedule.points[0].target_rank
    assert arena.engines[victim].api.rank == victim
    assert not arena.active[victim]
    assert sum(arena.active) == len(arena.engines) - 1
    assert not arena.shares_math(0, 10 ** 6)
