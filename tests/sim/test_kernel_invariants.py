"""Ordering and fast-path invariants of the simulation kernel.

The fast path (``__slots__``, lazy names, timeout free-list, inlined
dispatch) must not change observable semantics: same-time same-priority
events fire FIFO, interrupts never double-resume a process, and recycled
timeouts never leak values between waits.
"""

import pytest

from repro.sim import (
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
    Timeout,
)


# -- FIFO ordering ---------------------------------------------------------------------


def test_same_time_same_priority_events_fire_fifo():
    env = Environment()
    order = []
    events = [env.event(name=str(i)) for i in range(8)]

    def waiter(event, label):
        yield event
        order.append(label)

    for i, event in enumerate(events):
        env.process(waiter(event, i))

    def firer():
        yield env.timeout(1.0)
        # All succeed at the same sim time with the same priority: dispatch
        # must follow scheduling (succeed) order exactly.
        for event in events:
            event.succeed()

    env.process(firer())
    env.run()
    assert order == list(range(8))


def test_same_delay_timeouts_fire_in_creation_order_across_recycling():
    env = Environment()
    order = []

    def round_trip(label):
        yield env.timeout(1.0)
        order.append(label)

    # First generation populates the free list, second generation reuses
    # recycled Timeout objects: creation order must still win ties.
    for label in range(5):
        env.process(round_trip(label))
    env.run()
    for label in range(5, 10):
        env.process(round_trip(label))
    env.run()
    assert order == list(range(10))


# -- interrupt delivery ----------------------------------------------------------------


def test_interrupt_after_target_triggered_does_not_double_resume():
    """Target triggers, then an urgent interrupt overtakes its dispatch.

    The interrupt detaches the process from the (already queued) target,
    so when the target's callbacks finally run the process must not be
    resumed a second time.
    """
    env = Environment()
    log = []
    trigger = env.event()

    def victim():
        try:
            yield trigger
            log.append("value")
        except Interrupt:
            log.append("interrupt")
        yield env.timeout(1.0)
        log.append("after")

    proc = env.process(victim())

    def driver():
        yield env.timeout(2.0)
        trigger.succeed("v")    # queued at t=2, normal priority
        proc.interrupt("now")   # urgent carrier, dispatches first

    env.process(driver())
    env.run()
    assert log == ["interrupt", "after"]
    assert proc.triggered and proc.ok


def test_interrupt_to_finished_process_is_noop():
    env = Environment()
    log = []

    def victim():
        yield env.timeout(5.0)
        log.append("done")

    proc = env.process(victim())

    def interrupter():
        yield env.timeout(5.0)  # fires after the victim's (earlier) timeout
        proc.interrupt("too late")

    env.process(interrupter())
    env.run()
    assert log == ["done"]
    assert proc.ok and proc.value is None


def test_interrupt_then_self_finish_swallows_queued_target():
    """Process catches the interrupt and finishes; the original target's
    later dispatch must not resurrect it."""
    env = Environment()
    log = []
    holder = {}

    def interrupter():
        yield env.timeout(5.0)
        holder["victim"].interrupt()

    def victim():
        try:
            yield env.timeout(5.0)
            log.append("timeout")
        except Interrupt:
            log.append("interrupt")
        # returns: process finishes at t=5 while its timeout is queued

    # The interrupter is created first, so its t=5 timeout dispatches
    # before the victim's; the urgent interrupt carrier then overtakes
    # the victim's still-queued timeout.
    env.process(interrupter())
    proc = holder["victim"] = env.process(victim())
    env.run()
    assert log == ["interrupt"]
    assert proc.triggered and proc.ok


# -- timeout free-list -----------------------------------------------------------------


def test_recycled_timeouts_deliver_fresh_values():
    env = Environment()
    seen = []

    def proc():
        for i in range(200):
            value = yield env.timeout(1.0, value=i)
            seen.append(value)

    env.process(proc())
    env.run()
    assert seen == list(range(200))
    # Steady state reuses a tiny pool instead of 200 allocations.
    assert 1 <= len(env._timeout_pool) <= 8


def test_held_timeout_is_never_recycled():
    env = Environment()
    held = []

    def proc():
        keeper = env.timeout(1.0, value="keep")
        yield keeper
        held.append(keeper)
        for _ in range(50):
            fresh = yield env.timeout(1.0, value="fresh")
            assert fresh == "fresh"

    env.process(proc())
    env.run()
    assert held[0].value == "keep"          # untouched by the free list
    assert held[0] not in env._timeout_pool


def test_pooled_timeout_still_validates_negative_delay():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    env.run()
    assert env._timeout_pool  # the pool path is the one under test
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


# -- lazy names / slots ----------------------------------------------------------------


def test_timeout_name_is_lazy_but_accurate():
    env = Environment()
    timeout = Timeout(env, 2.5)
    assert timeout.name == "timeout(2.5)"
    assert "timeout(2.5)" in repr(timeout)


def test_event_and_process_names():
    env = Environment()
    assert env.event().name == ""
    assert env.event(name="checkpoint").name == "checkpoint"

    def my_proc():
        yield env.timeout(0)

    assert env.process(my_proc()).name == "my_proc"
    assert env.process(my_proc(), name="override").name == "override"
    env.run()


def test_kernel_objects_have_no_instance_dict():
    env = Environment()
    t1, t2 = env.timeout(1.0), env.timeout(2.0)

    def proc():
        yield AnyOf(env, [t1, t2])

    objects = [env.event(), t1, env.process(proc()), AnyOf(env, [t2])]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    env.run()


def test_events_processed_counter_tracks_dispatch():
    env = Environment()

    def proc():
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(proc())
    env.run()
    # 10 timeouts + 1 process-init event + the process completion event.
    assert env.events_processed == 12


# -- orphaned conditions ---------------------------------------------------------------


def test_orphaned_condition_failure_does_not_crash_run():
    """A condition whose waiter was killed must absorb sub-event failures.

    Found by the recovery oracle: a worker killed mid device-synchronize
    leaves its AllOf subscribed to stream ops; when recovery aborts those
    ops, the condition used to fail un-defused and crash env.run().
    """
    from repro.sim import AllOf

    env = Environment()
    a, b = env.event(name="op-a"), env.event(name="op-b")

    def waiter():
        yield AllOf(env, [a, b])

    proc = env.process(waiter(), name="waiter")

    def killer_then_abort():
        yield env.timeout(1.0)
        proc.kill()
        yield env.timeout(1.0)
        a.fail(RuntimeError("aborted for recovery"))
        a.defuse()
        yield env.timeout(1.0)

    env.run(until=env.process(killer_then_abort()))
    assert not proc.is_alive


def test_condition_failure_still_raises_into_live_waiter():
    env = Environment()
    a = env.event(name="op-a")
    seen = []

    def waiter():
        try:
            yield AnyOf(env, [a])
        except RuntimeError as exc:
            seen.append(str(exc))

    env.process(waiter(), name="waiter")

    def failer():
        yield env.timeout(1.0)
        a.fail(RuntimeError("boom"))
        a.defuse()
        yield env.timeout(1.0)

    env.run(until=env.process(failer()))
    assert seen == ["boom"]


# -- macro-event fast-path equivalence -------------------------------------------------
# The coalescing fast path (repro.flags.fast_path) must be invisible to every
# observable: loss streams bit for bit, simulated clock, recovery verdicts,
# and the events_processed counter (kept comparable via credit_events).

import numpy as np

from repro import flags


def _train(engine, layout_kwargs, iterations, **spec_kwargs):
    from repro.hardware.specs import V100_NODE
    from repro.parallel.topology import ParallelLayout
    from repro.workloads import TrainingJob, WorkloadSpec

    spec = WorkloadSpec(name="EQ", model="GPT2-S", node_spec=V100_NODE,
                        num_nodes=1, layout=ParallelLayout(**layout_kwargs),
                        engine=engine, framework="equivalence",
                        minibatch_time=0.05, **spec_kwargs)
    job = TrainingJob(spec)
    losses = job.run_training(iterations)
    return losses, job.env


@pytest.mark.parametrize("engine,layout,iterations", [
    ("ddp", {"dp": 2}, 3),
    ("3d", {"dp": 2, "pp": 2, "tp": 2}, 2),
    ("fsdp", {"dp": 8}, 2),
])
def test_fast_path_losses_clock_and_event_counts_identical(
        engine, layout, iterations):
    with flags.override(fast_path=True):
        fast_losses, fast_env = _train(engine, layout, iterations)
    with flags.override(fast_path=False):
        slow_losses, slow_env = _train(engine, layout, iterations)
    fast_bytes = [np.asarray(rank, dtype=np.float64).tobytes()
                  for rank in fast_losses]
    slow_bytes = [np.asarray(rank, dtype=np.float64).tobytes()
                  for rank in slow_losses]
    assert fast_bytes == slow_bytes
    assert fast_env.now == slow_env.now
    assert fast_env.events_processed == slow_env.events_processed


def _mid_chain_failure_run(fast):
    from repro.cuda import CudaContext
    from repro.hardware import Cluster, ClusterSpec, GpuHealth

    with flags.override(fast_path=fast):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(num_nodes=1))
        node = cluster.nodes[0]
        ctx = CudaContext(env, node.gpus[0], node)
        stream = ctx.create_stream()
        executed = []
        for i in range(6):
            ctx.launch_kernel(stream, f"k{i}", duration=0.1,
                              thunk=lambda i=i: executed.append(i))

        def failer():
            yield env.timeout(0.35)
            node.gpus[0].fail(GpuHealth.DEAD)

        env.process(failer())
        env.run(until=50)
        return executed, env.now, env.events_processed


def test_failure_mid_macro_chain_settles_exactly_like_eager():
    """A GPU death inside a coalesced chain's window must execute exactly
    the thunks of kernels that finished before the failure - no more, no
    less - just as per-kernel dispatch would."""
    fast_executed, fast_now, fast_events = _mid_chain_failure_run(True)
    slow_executed, slow_now, slow_events = _mid_chain_failure_run(False)
    # Kernels end at 0.1/0.2/0.3/...; the GPU dies at 0.35, mid-k3.
    assert slow_executed == [0, 1, 2]
    assert fast_executed == slow_executed
    assert fast_now == slow_now
    assert fast_events == slow_events


def test_oracle_grid_exact_for_all_strategies_fast_on_and_off():
    """ISSUE acceptance: the recovery oracle's bitwise-exactness invariant
    holds for every strategy with the fast path on AND off, and the golden
    (failure-free) loss streams agree across the two modes bit for bit."""
    from repro.oracle import (FailurePoint, FailureSchedule, RecoveryOracle,
                              STRATEGIES)

    schedule = FailureSchedule(points=(
        FailurePoint(2, "GPU_HARD", 1, offset=0.4),))
    goldens = {}
    for fast in (True, False):
        with flags.override(fast_path=fast):
            oracle = RecoveryOracle(iterations=8)
            for strategy in STRATEGIES:
                verdict = oracle.check(schedule, strategy)
                assert verdict.passed, (fast, verdict.describe())
            goldens[fast] = {strategy: oracle.golden(strategy)
                             for strategy in STRATEGIES}
    assert goldens[True] == goldens[False]


# -- replica-dedup bitwise equivalence -------------------------------------------------
# Copy-on-write replica deduplication (repro.framework.dedup) executes the
# data-parallel group's math once on a shared arena.  Like the macro-event
# fast path above, it must be invisible to every observable: loss streams,
# the simulated clock, the logical event count, and the final model state
# must match a dedup-off run bit for bit.


def _dedup_train(on, engine, layout, iterations, num_nodes=1,
                 fail_member=None, fail_at=None, horizon=None):
    from repro.hardware import GpuHealth
    from repro.hardware.specs import V100_NODE
    from repro.parallel.topology import ParallelLayout
    from repro.workloads import TrainingJob, WorkloadSpec

    with flags.override(dedup=on):
        spec = WorkloadSpec(name="DEDUPEQ", model="GPT2-S",
                            node_spec=V100_NODE, num_nodes=num_nodes,
                            layout=ParallelLayout(**layout), engine=engine,
                            framework="equivalence", minibatch_time=0.05)
        job = TrainingJob(spec)
        env = job.env

        def worker(rank, eng):
            yield from eng.setup()
            yield from eng.train(iterations)

        procs = [env.process(worker(i, eng), name=f"rank{i}")
                 for i, eng in enumerate(job.engines)]
        if fail_at is not None:
            victim = job.engines[fail_member]

            def failer():
                yield env.timeout(fail_at)
                victim.api.ctx.gpu.fail(GpuHealth.DEAD)

            env.process(failer(), name="failer")
            env.run(until=horizon)
            arena = victim._dedup_arena
            if arena is not None:
                # The epoch bump must have fired the COW divergence.
                assert not arena.member_active(victim._dedup_member)
        else:
            env.run(until=env.all_of(procs))
        losses = [list(eng.loss_history) for eng in job.engines]
        state = [eng.state_dict() for eng in job.engines]
        return losses, env.now, env.events_processed, state


def _assert_bitwise_equal(a, b):
    assert a[0] == b[0], "loss streams differ"
    assert a[1] == b[1], "simulated clocks differ"
    assert a[2] == b[2], "logical event counts differ"
    for sa, sb in zip(a[3], b[3]):
        for key in sa["params"]:
            assert np.array_equal(sa["params"][key], sb["params"][key]), key


@pytest.mark.parametrize("engine,layout,num_nodes,iterations", [
    ("ddp", {"dp": 4}, 1, 3),
    ("3d", {"dp": 2, "pp": 2, "tp": 2}, 1, 2),
    ("fsdp", {"dp": 16}, 2, 2),
])
def test_dedup_losses_clock_events_and_state_identical(
        engine, layout, num_nodes, iterations):
    on = _dedup_train(True, engine, layout, iterations, num_nodes)
    off = _dedup_train(False, engine, layout, iterations, num_nodes)
    _assert_bitwise_equal(on, off)


@pytest.mark.parametrize("engine,layout,num_nodes,member", [
    ("ddp", {"dp": 4}, 1, 2),
    ("3d", {"dp": 2, "pp": 2, "tp": 2}, 1, 1),
    ("fsdp", {"dp": 16}, 2, 9),
])
def test_dedup_mid_iteration_failure_stays_bitwise(
        engine, layout, num_nodes, member):
    """A GPU death mid-minibatch on a deduplicated rank: the victim's
    stream hangs, the survivors stall at the collective, and every
    observable — losses, clock, event count, per-rank state including the
    victim's COW-diverged private copy — matches dedup-off bit for bit."""
    # 0.07 lands inside minibatch 1 (steps are ~0.05 simulated seconds).
    on = _dedup_train(True, engine, layout, 6, num_nodes,
                      fail_member=member, fail_at=0.07, horizon=1.0)
    off = _dedup_train(False, engine, layout, 6, num_nodes,
                       fail_member=member, fail_at=0.07, horizon=1.0)
    _assert_bitwise_equal(on, off)


def test_dedup_diverge_then_readmit_round_trip():
    """Divergence hands the member a private bitwise copy; a member whose
    state still matches the canonical arena is readmitted, one whose copy
    was perturbed is refused."""
    from repro.hardware.specs import V100_NODE
    from repro.parallel.topology import ParallelLayout
    from repro.workloads import TrainingJob, WorkloadSpec

    with flags.override(dedup=True):
        spec = WorkloadSpec(name="DEDUPRT", model="GPT2-S",
                            node_spec=V100_NODE, num_nodes=1,
                            layout=ParallelLayout(dp=4), engine="ddp",
                            framework="equivalence", minibatch_time=0.05)
        job = TrainingJob(spec)
        job.run_training(3)
        arena = job.dedup_arenas[0]
        epoch0 = arena.dedup_epoch

        # Quiescent diverge: private copy is bitwise the canonical state.
        clean = job.engines[1]
        arena.diverge(1)
        assert not arena.member_active(1)
        assert arena.dedup_epoch == epoch0 + 1
        for name, array in arena.params.items():
            buf = clean.param_buffers[name]
            assert buf.array is not array
            assert np.array_equal(buf.array, array)
        # Unchanged state re-converges: readmitted, buffers re-share the
        # canonical arrays, and a second readmit is an idempotent True.
        assert arena.readmit(1)
        assert arena.member_active(1)
        assert arena.dedup_epoch == epoch0 + 2
        for name, array in arena.params.items():
            assert clean.param_buffers[name].array is array
        assert arena.readmit(1)

        # Perturbed state must be refused.
        dirty = job.engines[2]
        arena.diverge(2)
        first = next(iter(dirty.param_buffers.values()))
        first.array.flat[0] += 1.0
        assert not arena.readmit(2)
        assert not arena.member_active(2)


def test_gpu_failure_triggers_cow_divergence():
    """A GPU epoch transition (failure) is the copy-on-write trigger: the
    member detaches with a private, bitwise-equal copy of the canonical
    parameters, and the arena's dedup_epoch records the change."""
    from repro.hardware import GpuHealth
    from repro.hardware.specs import V100_NODE
    from repro.parallel.topology import ParallelLayout
    from repro.workloads import TrainingJob, WorkloadSpec

    with flags.override(dedup=True):
        spec = WorkloadSpec(name="DEDUPFAIL", model="GPT2-S",
                            node_spec=V100_NODE, num_nodes=1,
                            layout=ParallelLayout(dp=4), engine="ddp",
                            framework="equivalence", minibatch_time=0.05)
        job = TrainingJob(spec)
        job.run_training(2)
        arena = job.dedup_arenas[0]
        epoch_before = arena.dedup_epoch
        victim = job.engines[3]
        canonical = {name: array.copy()
                     for name, array in arena.params.items()}
        victim.api.ctx.gpu.fail(GpuHealth.DEAD)
        assert not arena.member_active(3)
        assert arena.dedup_epoch == epoch_before + 1
        for name, buf in victim.param_buffers.items():
            assert buf.array is not arena.params[name], name
            assert np.array_equal(buf.array, canonical[name]), name


def test_oracle_grid_identical_with_dedup_on_and_off():
    """Managed (interception-API) runs materialise per-rank replay logs, so
    attach_job must refuse to dedup them: the oracle grid passes and its
    goldens are identical whichever way the dedup switch points."""
    from repro.oracle import (FailurePoint, FailureSchedule, RecoveryOracle,
                              STRATEGIES)

    schedule = FailureSchedule(points=(
        FailurePoint(2, "GPU_HARD", 1, offset=0.4),))
    goldens = {}
    for on in (True, False):
        with flags.override(dedup=on):
            oracle = RecoveryOracle(iterations=8)
            for strategy in STRATEGIES:
                verdict = oracle.check(schedule, strategy)
                assert verdict.passed, (on, verdict.describe())
            goldens[on] = {strategy: oracle.golden(strategy)
                           for strategy in STRATEGIES}
    assert goldens[True] == goldens[False]
