"""Torn-down and finished jobs are freed by refcount, not by the cyclic GC.

Each scenario runs with the collector off (``repro_cyclic_garbage``), so a
reference cycle anywhere in the job graph leaves ``repro`` objects behind
for the one full collection at the end to find.
"""

import traceback

import pytest

from repro import flags
from repro.oracle import (STRATEGIES, FailurePoint, FailureSchedule,
                          RecoveryOracle, default_oracle_spec)
from repro.oracle.strategies import run_strategy
from repro.parallel.topology import ParallelLayout
from repro.sim import AnyOf, Environment
from tests.conftest import make_job, repro_cyclic_garbage

#: ``repro`` type -> why a scenario may leave it cyclic.  Empty: none may.
ALLOWED: dict[str, str] = {}

ITERATIONS = 8
#: One hard GPU failure mid-run: the transparent family recovers in
#: place, the restart family kills the generation and starts another.
SCHEDULE = FailureSchedule(points=(FailurePoint(3, "GPU_HARD", 1,
                                                offset=0.4),))

#: (fast_path, dedup) both on, and both off.
SWITCHES = [pytest.param(True, id="fast-dedup"),
            pytest.param(False, id="slow-private")]


def assert_refcount_clean(scenario) -> None:
    garbage = repro_cyclic_garbage(scenario)
    leaked = {name: count for name, count in garbage.items()
              if name not in ALLOWED}
    assert not leaked, leaked


# -- the four scenarios ------------------------------------------------------


@pytest.mark.parametrize("on", SWITCHES)
def test_ddp_build_train_teardown(on):
    def scenario():
        with flags.override(fast_path=on, dedup=on):
            job = make_job(layout=ParallelLayout(dp=4))
            job.run_training(3)
            job.teardown()
            # The kills land, as they do before a restart.
            job.env.run()

    assert_refcount_clean(scenario)


@pytest.mark.parametrize("on", SWITCHES)
def test_transparent_recovery(on):
    def scenario():
        with flags.override(fast_path=on, dedup=on):
            run = run_strategy("transparent", default_oracle_spec(),
                               SCHEDULE, ITERATIONS)
            assert run.completed and run.telemetry.records
            run.release()

    assert_refcount_clean(scenario)


@pytest.mark.parametrize("on", SWITCHES)
def test_user_jit_failure_kills_a_generation(on):
    def scenario():
        with flags.override(fast_path=on, dedup=on):
            run = run_strategy("user_level", default_oracle_spec(),
                               SCHEDULE, ITERATIONS)
            assert run.completed and len(run.generations) == 2
            run.release()

    assert_refcount_clean(scenario)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("on", SWITCHES)
def test_traced_oracle_check(on, strategy):
    def scenario():
        with flags.override(fast_path=on, dedup=on):
            verdict = RecoveryOracle(iterations=ITERATIONS).check(
                SCHEDULE, strategy)
            assert verdict.passed, verdict.describe()

    assert_refcount_clean(scenario)


@pytest.mark.fuzz
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("on", SWITCHES)
def test_fuzzed_oracle_checks_fuzz(on, strategy):
    oracle = RecoveryOracle(iterations=16)
    for schedule in oracle.fuzzer(seed=7).schedules(12):
        def scenario():
            with flags.override(fast_path=on, dedup=on):
                oracle.check(schedule, strategy)

        garbage = repro_cyclic_garbage(scenario)
        assert not garbage, (schedule.describe(), dict(garbage))


# -- the edges, one by one ------------------------------------------------------


def test_detach_clears_follow_hooks():
    """After teardown no context or stream of the job refers to its
    arena: the GPUs' epoch hooks and the follow hooks are gone."""
    with flags.override(fast_path=True, dedup=True):
        job = make_job(layout=ParallelLayout(dp=4))
        job.run_training(2)
        arena, = job.dedup_arenas
        assert arena.group_math
        hooked = [owner for ctx in job.contexts
                  for owner in (ctx, *ctx.streams)]
        assert all(owner.follow_hook is not None for owner in hooked)
        job.teardown()
    assert all(owner.follow_hook is None for owner in hooked)
    assert not any(ctx.gpu.on_epoch for ctx in job.contexts)


def _failing_run(env: Environment):
    def child():
        yield env.timeout(1.0)
        raise ValueError("torn")

    def parent():
        yield env.process(child())

    return env.process(parent())


def test_failed_process_keeps_its_traceback_but_no_cycle():
    text = []

    def scenario():
        env = Environment()
        try:
            env.run(until=_failing_run(env))
        except ValueError as exc:
            text.append("".join(traceback.format_exception(exc)))

    assert_refcount_clean(scenario)
    # The frames the failure unwound are still reported, innermost last.
    report = text[0]
    assert report.index("in parent") < report.index("in child")
    assert 'raise ValueError("torn")' in report


def test_handled_failure_leaves_no_waiter_frames():
    """A waiter that catches a child's failure does not leave its own
    frame on the exception, which the failed child keeps as its value."""
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1.0)
        raise ValueError("torn")

    def waiter():
        proc = env.process(child())
        try:
            yield proc
        except ValueError as exc:
            caught.append(exc)
        yield env.timeout(1.0)

    env.run(until=env.process(waiter()))
    frames = traceback.extract_tb(caught[0].__traceback__)
    assert [frame.name for frame in frames] == ["child"]


def test_killed_process_leaves_no_cycle():
    def scenario():
        env = Environment()

        def sleeper():
            yield env.event()

        proc = env.process(sleeper())
        env.run(until=0.5)
        proc.kill()
        env.run()
        assert not proc.is_alive

    assert_refcount_clean(scenario)


def test_close_ends_idle_processes():
    def scenario():
        env = Environment()
        never = env.event()

        def idle():
            yield never

        def poll():
            while True:
                yield env.timeout(1.0)

        procs = [env.process(idle()), env.process(poll())]
        env.run(until=2.5)
        env.close()
        assert not any(proc.is_alive for proc in procs)
        assert env.peek() == float("inf")

    assert_refcount_clean(scenario)


def test_triggered_condition_stops_listening():
    env = Environment()
    pending = env.event()
    tick = env.timeout(1.0)
    condition = AnyOf(env, [pending, tick])
    env.run(until=condition)
    assert pending.callbacks == []
