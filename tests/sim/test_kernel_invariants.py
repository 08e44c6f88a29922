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


@pytest.mark.parametrize("when", [2.5, 4.0, 6.0, float("inf")])
def test_run_until_before_stops_where_run_until_stops(when):
    """``run_until_before(when, until=proc)`` dispatches nothing at or past
    *when* and nothing after *proc* triggers, so draining with
    ``run(until=proc)`` afterwards lands on an uninterrupted run's clock
    and event count, although a background process keeps ticking."""

    def build():
        env = Environment()

        def job():
            for _ in range(4):
                yield env.timeout(1.0)
            return "done"

        def background():
            while True:
                yield env.timeout(0.5)

        env.process(background())
        return env, env.process(job())

    env, proc = build()
    assert env.run(until=proc) == "done"
    expected = (env.now, env.events_processed)

    env, proc = build()
    env.run_until_before(when, until=proc)
    assert proc.triggered is (when > 4.0)
    assert env.now < when
    assert env.run(until=proc) == "done"
    assert (env.now, env.events_processed) == expected


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
                 fail_member=None, fail_at=None, horizon=None,
                 fail_kind="dead"):
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
                if isinstance(fail_at, tuple):
                    # ("enqueued", k): right after member 0 enqueued
                    # iteration k, at the same instant.
                    yield job.engines[0].iteration_reached(fail_at[1])
                else:
                    yield env.timeout(fail_at)
                if fail_kind == "dead":
                    victim.api.ctx.gpu.fail(GpuHealth.DEAD)
                else:
                    victim.api.ctx.gpu.reset_driver()

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


# -- followers: memoised DDP members ride the leader's timeline --------------------


def _ddp_failure_offsets():
    """Failure times inside iteration 1 of a dp=4 DDP run, by phase.

    Read from rank 0's op records in a traced dedup-off run: the middle of
    a kernel inside the forward macro chain, the middle of a batched
    all-reduce transfer, the instant the compute stream starts its last
    wait before ``bwd_done`` (the CPU is blocked on it), and the middle of
    the optimizer kernel.  ``enqueued`` fails at the instant member 0 has
    enqueued iteration 2, before its streams woke for it.
    """
    from repro.hardware.specs import V100_NODE
    from repro.parallel.topology import ParallelLayout
    from repro.sim import Tracer
    from repro.workloads import TrainingJob, WorkloadSpec

    with flags.override(dedup=False):
        spec = WorkloadSpec(name="DEDUPEQ", model="GPT2-S",
                            node_spec=V100_NODE, num_nodes=1,
                            layout=ParallelLayout(dp=4), engine="ddp",
                            framework="equivalence", minibatch_time=0.05)
        tracer = Tracer(enabled=True)
        job = TrainingJob(spec, tracer=tracer)
        job.run_training(3)
    engine = job.engines[0]

    def ops(stream):
        return [(event.detail["op"], event.detail["started"], event.time)
                for event in tracer.filter(actor=stream.name,
                                           action="op_done")]

    compute, comm = ops(engine.compute_stream), ops(engine.comm_stream)

    def second(records, match):
        return [r for r in records if match(r[0])][1]

    def middle(record):
        return (record[1] + record[2]) / 2

    reduces = [r for r in comm if "all_reduce_batch" in r[0]]
    per_iteration = len(reduces) // 3
    waits = [r for r in compute
             if r[0].startswith("wait:") and "ar_done" in r[0]]
    return {
        "macro_chain": middle(second(compute, lambda n: n == "fwd1")),
        "all_reduce": middle(reduces[per_iteration + per_iteration // 2]),
        "cpu_blocked": waits[2 * len(waits) // 3 - 1][1],
        "optimizer": middle(second(compute, lambda n: n == "optimizer")),
        "enqueued": ("enqueued", 2),
    }


@pytest.fixture(scope="module")
def ddp_failure_offsets():
    return _ddp_failure_offsets()


@pytest.mark.parametrize("phase", ["macro_chain", "all_reduce",
                                   "cpu_blocked", "optimizer", "enqueued"])
@pytest.mark.parametrize("fail_kind", ["dead", "reset_driver"])
@pytest.mark.parametrize("member", [0, 2], ids=["leader", "follower"])
def test_follower_failure_stays_bitwise(ddp_failure_offsets, phase,
                                        fail_kind, member):
    """A failure on the leader (member 0, first to enqueue) or on a
    follower, landing in each phase of a followed iteration: the GPU epoch
    bump materialises every follower in the leader's exact state, and the
    run matches dedup off bit for bit."""
    offset = ddp_failure_offsets[phase]
    horizon = ddp_failure_offsets["optimizer"] + 1.0
    on = _dedup_train(True, "ddp", {"dp": 4}, 6, fail_member=member,
                      fail_at=offset, horizon=horizon, fail_kind=fail_kind)
    off = _dedup_train(False, "ddp", {"dp": 4}, 6, fail_member=member,
                       fail_at=offset, horizon=horizon, fail_kind=fail_kind)
    _assert_bitwise_equal(on, off)


def test_followers_ride_the_leaders_timeline(monkeypatch):
    """Engagement: in a failure-free dp=4 run the three followers enqueue
    almost nothing (their end-of-run sync markers), so a silent fallback
    to private execution fails here instead of passing the grids."""
    from repro.cuda import stream as stream_mod

    counts = {}
    enqueue = stream_mod.CudaStream.enqueue

    def counting(self, op):
        counts[self] = counts.get(self, 0) + 1
        return enqueue(self, op)

    monkeypatch.setattr(stream_mod.CudaStream, "enqueue", counting)
    import repro.workloads.builder as builder

    jobs = []
    build = builder.TrainingJob.__init__

    def keep(self, *args, **kwargs):
        build(self, *args, **kwargs)
        jobs.append(self)

    monkeypatch.setattr(builder.TrainingJob, "__init__", keep)
    on = _dedup_train(True, "ddp", {"dp": 4}, 6)
    per_rank = [sum(counts.get(stream, 0) for stream in engine.api.ctx.streams)
                for engine in jobs[0].engines]
    assert per_rank[0] > 200
    assert all(10 * count < per_rank[0] for count in per_rank[1:]), per_rank
    monkeypatch.setattr(stream_mod.CudaStream, "enqueue", enqueue)
    _assert_bitwise_equal(on, _dedup_train(False, "ddp", {"dp": 4}, 6))


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


def _diverge_mid_run(on):
    from repro.hardware.specs import V100_NODE
    from repro.parallel.topology import ParallelLayout
    from repro.workloads import TrainingJob, WorkloadSpec

    with flags.override(dedup=on):
        spec = WorkloadSpec(name="DEDUPDIV", model="GPT2-S",
                            node_spec=V100_NODE, num_nodes=1,
                            layout=ParallelLayout(dp=4), engine="ddp",
                            framework="equivalence", minibatch_time=0.05,
                            dropout=0.1)
        job = TrainingJob(spec)
        env = job.env

        def first_leg(engine):
            yield from engine.setup()
            yield from engine.train(3)

        env.run(until=env.all_of([env.process(first_leg(engine))
                                  for engine in job.engines]))
        if on:
            arena, = job.dedup_arenas
            assert not arena.group_math    # dropout: shared storage only
            arena.diverge(1)
        env.run(until=env.all_of([env.process(engine.train(2))
                                  for engine in job.engines]))
        losses = [list(engine.loss_history) for engine in job.engines]
        state = [engine.state_dict() for engine in job.engines]
        return losses, env.now, env.events_processed, state


def test_diverged_member_leaves_the_group_optimizer_alone():
    """Diverging one member of a shared arena (no group math) and training
    on: every rank's losses and parameters stay bitwise equal to a
    dedup-off run.  The group's canonical optimizer must keep updating the
    canonical arrays, not the diverged member's private copy."""
    _assert_bitwise_equal(_diverge_mid_run(True), _diverge_mid_run(False))


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


def _oracle_grid(on, monkeypatch):
    """Verdict outcomes, loss streams and arena counts of every strategy on
    every grid schedule, with dedup *on* or off."""
    from repro.framework import dedup
    from repro.oracle import (FailurePoint, FailureSchedule, RecoveryOracle,
                              STRATEGIES)
    from repro.oracle.strategies import TRANSPARENT_FAMILY
    from tests.oracle.test_timing_edges import (BACK_TO_BACK_70002,
                                                DURING_RECOVERY_2020003,
                                                SINGLE_2110000)

    # One schedule over all six strategies, then the timing-edge schedules,
    # each at the horizon that exposed it, over the strategies dedup can
    # reach (the transparent family never dedups, so re-running it there
    # would compare a run with itself).
    managed = tuple(s for s in STRATEGIES if s not in TRANSPARENT_FAMILY)
    schedules = [
        (FailureSchedule(points=(FailurePoint(2, "GPU_HARD", 1, offset=0.4),)),
         8, STRATEGIES),
        (SINGLE_2110000, 16, managed),
        (DURING_RECOVERY_2020003, 20, managed),
        (BACK_TO_BACK_70002, 16, managed),
    ]
    # Arenas attached to the jobs each strategy's runs build (goldens
    # excluded: they are plain failure-free jobs), and the runs themselves.
    arenas: dict[str, list[int]] = {strategy: [] for strategy in STRATEGIES}
    current, runs = [], []
    attach, run_strategy = dedup.attach_job, RecoveryOracle.run

    def counting_attach(job):
        attached = attach(job)
        if current:
            arenas[current[-1]].append(len(attached))
        return attached

    def recording_run(oracle, schedule, strategy):
        current.append(strategy)
        try:
            runs.append(run_strategy(oracle, schedule, strategy))
        finally:
            current.pop()
        return runs[-1]

    monkeypatch.setattr(dedup, "attach_job", counting_attach)
    monkeypatch.setattr(RecoveryOracle, "run", recording_run)
    results, goldens = {}, {}
    with flags.override(dedup=on):
        for schedule, iterations, strategies in schedules:
            oracle = RecoveryOracle(iterations=iterations)
            for strategy in strategies:
                verdict = oracle.check(schedule, strategy)
                assert verdict.passed, (on, verdict.describe())
                results[schedule, iterations, strategy] = (
                    verdict.outcome, runs[-1].losses)
                goldens[iterations, strategy] = oracle.golden(strategy)
    monkeypatch.undo()
    return results, goldens, arenas


def test_oracle_grid_identical_with_dedup_on_and_off(monkeypatch):
    """Dedup is armed for every strategy whose device API keeps no replay
    log — the user-level shim and the plain API of periodic, adaptive and
    gemini — and off for the transparent family's device proxy.  Across
    the timing-edge schedules every verdict passes and every outcome, loss
    stream and golden is identical whichever way the dedup switch points."""
    from repro.oracle.strategies import TRANSPARENT_FAMILY

    on = _oracle_grid(True, monkeypatch)
    off = _oracle_grid(False, monkeypatch)
    assert on[0] == off[0]
    assert on[1] == off[1]
    for strategy, counts in on[2].items():
        assert counts, strategy
        if strategy in TRANSPARENT_FAMILY:
            assert set(counts) == {0}, strategy
        else:
            assert 0 not in counts, (strategy, counts)
    assert all(set(counts) == {0} for counts in off[2].values())


# -- restore re-share ------------------------------------------------------------------
# Every replica of a restarted generation loads the same checkpoint, so the
# arena re-seats on one member's restored state and readmits the others
# (ReplicaArena.member_restored).  The restarted generation then runs
# shared again, and must stay bitwise what a dedup-off run computes.

_RESHARE_LAYOUTS = {
    "ddp": dict(layout=dict(dp=4)),
    "ddp-dropout": dict(layout=dict(dp=4), dropout=0.1),
    "3d": dict(layout=dict(dp=2, pp=2, tp=2), engine="3d"),
    "fsdp": dict(layout=dict(dp=16), engine="fsdp", num_nodes=2),
}


def _reshare_run(on, strategy, layout, monkeypatch, perturb_rank=None):
    """One hard GPU failure mid-run under *strategy*; returns the
    observables, the run, and the arenas of the job that finished it."""
    from repro.framework import dedup
    from repro.hardware.specs import V100_NODE
    from repro.oracle import FailurePoint, FailureSchedule, strategies
    from repro.parallel.base import BaseEngine
    from repro.parallel.topology import ParallelLayout
    from repro.workloads import WorkloadSpec

    options = dict(_RESHARE_LAYOUTS[layout])
    spec = WorkloadSpec(name="RESHARE", model="GPT2-S", node_spec=V100_NODE,
                        num_nodes=options.pop("num_nodes", 1),
                        layout=ParallelLayout(**options.pop("layout")),
                        engine=options.pop("engine", "ddp"),
                        framework="equivalence", minibatch_time=0.05,
                        seed=7, **options)
    runners, arenas = [], {}
    build, attach = strategies._build_managed_runner, dedup.attach_job
    load = BaseEngine.load_state_dict

    def recording_build(*args):
        runners.append(build(*args))
        return runners[-1]

    def recording_attach(job):
        arenas[id(job)] = attach(job)
        return arenas[id(job)]

    def perturbed_load(engine, state):
        if engine.api.rank == perturb_rank:
            state = dict(state, params=dict(state["params"]))
            name = next(iter(state["params"]))
            state["params"][name] = state["params"][name] + 1e-3
        load(engine, state)

    monkeypatch.setattr(strategies, "_build_managed_runner", recording_build)
    monkeypatch.setattr(dedup, "attach_job", recording_attach)
    monkeypatch.setattr(BaseEngine, "load_state_dict", perturbed_load)
    schedule = FailureSchedule(points=(
        FailurePoint(3, "GPU_HARD", 1, offset=0.4),))
    try:
        with flags.override(dedup=on):
            run = strategies.run_strategy(strategy, spec, schedule, 6)
    finally:
        monkeypatch.undo()
    assert run.completed and len(run.generations) == 2, run.detail
    job = runners[0].manager.current_job
    state = [engine.state_dict() for engine in job.engines]
    return ((run.losses, run.wall_time, run.events, state), run,
            arenas[id(job)])


@pytest.mark.parametrize("layout", list(_RESHARE_LAYOUTS))
@pytest.mark.parametrize("strategy", ["user_level", "periodic", "gemini"])
def test_restarted_generation_reshares_bitwise(strategy, layout, monkeypatch):
    """Dedup on and off agree bitwise on losses, final clock, logical
    event count and every rank's final parameters, and with dedup on the
    restarted generation re-shared every arena: each member diverged to
    load its checkpoint, one re-seat made member 0's restored state
    canonical, every other member was readmitted, and none left again."""
    on, run, arenas = _reshare_run(True, strategy, layout, monkeypatch)
    off, _, _ = _reshare_run(False, strategy, layout, monkeypatch)
    _assert_bitwise_equal(on, off)
    resumed = run.resume_points[1]
    assert resumed > 0, "the restarted generation must restore"
    assert arenas
    for arena in arenas:
        members = len(arena.engines)
        assert all(arena.active), arena.active
        assert arena.dedup_epoch == 2 * members
        # Group math (pure DDP) is shared again from the first
        # post-restore iteration.
        assert arena.shares_math(0, resumed) is arena.group_math


@pytest.mark.parametrize("layout,rank,member", [("ddp", 2, 2), ("3d", 5, 1)])
def test_perturbed_restore_stays_private(layout, rank, member, monkeypatch):
    """A member whose restored state differs from member 0's is refused
    readmission and stays private; group math stays off for the whole
    group; the run still matches dedup off bitwise."""
    on, _, arenas = _reshare_run(True, "user_level", layout, monkeypatch,
                                 perturb_rank=rank)
    off, _, _ = _reshare_run(False, "user_level", layout, monkeypatch,
                             perturb_rank=rank)
    _assert_bitwise_equal(on, off)
    arena, = [a for a in arenas
              if any(e.api.rank == rank for e in a.engines)]
    assert arena.engines[member].api.rank == rank
    assert not arena.active[member]
    assert sum(arena.active) == len(arena.engines) - 1
    assert not arena.shares_math(0, 10 ** 6)


def _reseat_spec():
    from repro.hardware.specs import V100_NODE
    from repro.parallel.topology import ParallelLayout
    from repro.workloads import WorkloadSpec

    return WorkloadSpec(name="RESEAT", model="GPT2-S", node_spec=V100_NODE,
                        num_nodes=1, layout=ParallelLayout(dp=4),
                        engine="ddp", framework="equivalence",
                        minibatch_time=0.05)


def _staggered_restore(on, late):
    """Restore a fresh dp=4 generation from iteration 3 and train on.

    With *late*, members 0-2 restore and start iteration 3 (enqueueing it
    privately) before member 3 restores; otherwise all four restore before
    anyone trains.  Returns the observables and the dedup_epoch right
    before and right after the last restore."""
    from repro.workloads import TrainingJob

    with flags.override(dedup=on):
        first = TrainingJob(_reseat_spec())
        first.run_training(3)
        states = [engine.state_dict() for engine in first.engines]
        job = TrainingJob(_reseat_spec())
        env = job.env
        env.run(until=env.all_of([env.process(engine.setup())
                                  for engine in job.engines]))
        epochs = []

        def restore(rank):
            arena = job.engines[rank]._dedup_arena
            epochs.append(arena.dedup_epoch if arena else None)
            job.engines[rank].load_state_dict(states[rank])
            epochs.append(arena.dedup_epoch if arena else None)

        def worker(rank, engine):
            if late and rank == 3:
                yield env.timeout(0.01)
                restore(rank)
            yield from engine.train(3)

        for rank in range(4):
            if not (late and rank == 3):
                restore(rank)
        env.run(until=env.all_of([env.process(worker(rank, engine))
                                  for rank, engine in enumerate(job.engines)]))
        losses = [list(engine.loss_history) for engine in job.engines]
        state = [engine.state_dict() for engine in job.engines]
        return (losses, env.now, env.events_processed, state), job, epochs[-2:]


@pytest.mark.parametrize("late", [False, True])
def test_reseat_resumes_group_math_after_every_private_enqueue(late):
    """Members restoring at different simulated times: an early member
    may already have enqueued the resume iteration r privately, so group
    math resumes at r + 1 for everyone (at r when all restored first).
    The last restore moves dedup_epoch once for its own divergence, once
    for the re-seat and once per readmitted member."""
    on, job, (before, after) = _staggered_restore(True, late)
    off, _, _ = _staggered_restore(False, late)
    _assert_bitwise_equal(on, off)
    arena, = job.dedup_arenas
    assert all(arena.active)
    assert arena.shares_math(0, 3) is not late
    assert arena.shares_math(0, 4)
    assert (before, after) == (3, 3 + 1 + 1 + 3)


def test_cold_start_and_stepped_arenas_never_reseat():
    """No restore, no re-seat; and an arena that has stepped is no fresh
    generation, so loading state into every member leaves all private."""
    from repro.workloads import TrainingJob

    with flags.override(dedup=True):
        job = TrainingJob(_reseat_spec())
        job.run_training(3)
        arena, = job.dedup_arenas
        assert all(arena.active) and arena.dedup_epoch == 0
        states = [engine.state_dict() for engine in job.engines]
        for engine, state in zip(job.engines, states):
            engine.load_state_dict(state)
        assert not any(arena.active)
        assert arena.dedup_epoch == 4


# -- observability on/off equivalence ----------------------------------------------------
# Observing a run must not change it.  One fuzzed schedule per strategy
# runs with the obs switch off, on, and on with every run projected into
# a metrics registry after it finishes (before the verdict); losses, the
# final clock, the logical event count and the verdict outcome are
# compared bit for bit.  Ledger buckets are not: with obs off no
# iteration spans are recorded.


def _obs_grid(obs, projected, seed=7, iterations=12):
    from repro.obs.metrics import MetricsRegistry, bridge
    from repro.oracle import STRATEGIES, RecoveryOracle

    registry = MetricsRegistry()

    class Recording(RecoveryOracle):
        def run(self, schedule, strategy):
            self.last = super().run(schedule, strategy)
            if projected:
                bridge.record_run(registry, self.last, self.spec.world_size)
            return self.last

    grid = {}
    with flags.override(obs=obs):
        oracle = Recording(iterations=iterations)
        schedules = oracle.fuzzer(seed).schedules(len(STRATEGIES))
        for strategy, schedule in zip(STRATEGIES, schedules):
            verdict = oracle.check(schedule, strategy)
            run = oracle.last
            grid[strategy] = {
                "losses": np.asarray(run.losses, dtype=np.float64).tobytes(),
                "clock": run.wall_time.hex(),
                "events_processed": run.events,
                "outcome": verdict.outcome,
            }
    return grid


@pytest.fixture(scope="module")
def obs_grids():
    return {mode: _obs_grid(*mode)
            for mode in ((False, False), (True, False), (True, True))}


def _without_events(grid):
    return {strategy: {field: value for field, value in row.items()
                       if field != "events_processed"}
            for strategy, row in grid.items()}


def test_obs_on_off_grid_is_bitwise_identical(obs_grids):
    off = obs_grids[False, False]
    assert all(row["outcome"] == "exact" for row in off.values()), off
    assert obs_grids[True, False] == off


def test_metrics_registry_keeps_losses_clock_and_verdicts(obs_grids):
    assert _without_events(obs_grids[True, True]) == \
        _without_events(obs_grids[False, False])


def test_metrics_registry_keeps_events_processed(obs_grids):
    collected = obs_grids[True, True]
    assert {strategy: row["events_processed"]
            for strategy, row in collected.items()} == \
        {strategy: row["events_processed"]
         for strategy, row in obs_grids[False, False].items()}


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [11, 23, 31, 43])
def test_obs_on_off_grid_fuzz(seed):
    """The obs on/off grid on more fuzzed schedules, at 20 iterations:
    off, on and on with runs projected into a registry agree on every
    field."""
    off = _obs_grid(False, False, seed=seed, iterations=20)
    assert all(row["outcome"] == "exact" for row in off.values()), off
    assert _obs_grid(True, False, seed=seed, iterations=20) == off
    assert _obs_grid(True, True, seed=seed, iterations=20) == off


def _traced_ddp(project, iterations=4):
    from repro.hardware.specs import V100_NODE
    from repro.obs.metrics import MetricsRegistry, bridge
    from repro.parallel.topology import ParallelLayout
    from repro.sim import Tracer
    from repro.workloads import TrainingJob, WorkloadSpec

    spec = WorkloadSpec(name="OBSDDP", model="GPT2-S", node_spec=V100_NODE,
                        num_nodes=1, layout=ParallelLayout(dp=4),
                        engine="ddp", framework="equivalence",
                        minibatch_time=0.05)
    with flags.override(obs=True):
        tracer = Tracer()
        job = TrainingJob(spec, tracer=tracer)
        losses = job.run_training(iterations)
        if project:
            reg = MetricsRegistry(scrape_interval=0.05)
            bridge.record_trace(reg, tracer, "ddp", job.env.now)
            launched = reg.get("repro_nccl_collectives_launched")
            assert launched is not None and launched.children()
    return losses, job.env.now.hex(), job.env.events_processed


def test_traced_job_under_collecting_registry_is_unchanged():
    """A traced DDP job whose trace is projected into a registry
    dispatches the same events and ends with the same losses and clock
    as one that is not projected."""
    assert _traced_ddp(True) == _traced_ddp(False)
