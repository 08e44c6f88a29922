"""End-to-end tests for transparent JIT checkpointing (Section 4)."""

import numpy as np
import pytest

from repro.core import JitConfig, TransparentJitSystem
from repro.failures import FailureEvent, FailureInjector, FailureType
from repro.parallel.topology import ParallelLayout
from repro.sim import Environment, Tracer
from repro.storage import SharedObjectStore
from repro.workloads import TrainingJob

from tests.conftest import make_spec

ITERS = 30


def ddp_spec(**kwargs):
    kwargs.setdefault("layout", ParallelLayout(dp=4))
    kwargs.setdefault("minibatch_time", 0.05)
    return make_spec(**kwargs)


def plain_losses(spec, iters=ITERS):
    return TrainingJob(spec).run_training(iters)


def run_transparent(spec, failures, iters=ITERS, config=None, tracer=None):
    env = Environment()
    store = SharedObjectStore(env, bandwidth=1.5e9)
    system = TransparentJitSystem(env, spec, store=store,
                                  config=config or JitConfig(), tracer=tracer)
    job = system.build_job()
    injector = FailureInjector(env, job.cluster)
    injector.arm(failures)
    losses = system.run_training(job, iters)
    return system, job, losses


def test_failure_free_run_matches_plain_execution():
    spec = ddp_spec()
    baseline = plain_losses(spec)
    system, job, losses = run_transparent(spec, failures=[])
    assert losses == baseline
    assert system.telemetry.records == []


def test_replay_log_validation_passes():
    spec = ddp_spec()
    system, job, losses = run_transparent(spec, failures=[])
    for proxy in system.proxies:
        assert proxy.validation_results == [True]


def test_replay_log_cleared_each_minibatch():
    spec = ddp_spec()
    system, job, losses = run_transparent(spec, failures=[])
    for proxy in system.proxies:
        assert proxy.log.current_minibatch == ITERS - 1
        assert proxy.log.total_logged > len(proxy.log.records)


def test_steady_state_overhead_nearly_zero():
    spec = ddp_spec()
    plain = TrainingJob(spec)
    plain.run_training(ITERS)
    plain_time = plain.env.now

    config = JitConfig(validation_start_iteration=10**9)  # no validation
    system, job, _ = run_transparent(spec, failures=[], config=config)
    assert job.env.now == pytest.approx(plain_time, rel=0.01)


@pytest.mark.parametrize("failure_type,expected_kind", [
    (FailureType.GPU_STICKY, "transient"),
    (FailureType.GPU_DRIVER_CORRUPT, "transient"),
    (FailureType.GPU_HARD, "hard"),
])
def test_single_gpu_failure_transparent_recovery(failure_type, expected_kind):
    spec = ddp_spec()
    baseline = plain_losses(spec)
    # t=3.0 lands mid-training (comm init ~1.1s, 30 iterations ~1.5s+).
    failure = FailureEvent(2.0, failure_type, "node0/gpu1")
    system, job, losses = run_transparent(spec, [failure])
    assert losses == baseline       # the application never noticed
    records = system.telemetry.by_kind(expected_kind)
    assert len(records) == 1


def test_transient_network_failure_recovery():
    spec = make_spec(layout=ParallelLayout(dp=12), num_nodes=2,
                     minibatch_time=0.05, global_batch=24)
    baseline = plain_losses(spec, iters=100)
    # t=5.0 is past the ~2.8s 12-rank NCCL init: steady-state training.
    failure = FailureEvent(5.0, FailureType.NETWORK_TRANSIENT, "node0",
                           duration=10.0)
    system, job, losses = run_transparent(spec, [failure], iters=100)
    assert losses == baseline
    assert system.telemetry.by_kind("transient")


def test_link_flap_during_comm_init_only_delays_training():
    """A fabric flap during communicator setup stalls the rendezvous until
    the link recovers; no recovery machinery is needed or triggered."""
    spec = make_spec(layout=ParallelLayout(dp=12), num_nodes=2,
                     minibatch_time=0.05, global_batch=24)
    baseline = plain_losses(spec)
    failure = FailureEvent(2.5, FailureType.NETWORK_TRANSIENT, "node0",
                           duration=10.0)
    system, job, losses = run_transparent(spec, [failure])
    assert losses == baseline
    assert system.telemetry.records == []
    assert job.env.now > 12.5  # waited out the outage


def test_recovery_breakdown_has_table7_phases():
    spec = ddp_spec()
    failure = FailureEvent(2.0, FailureType.GPU_STICKY, "node0/gpu1")
    system, job, losses = run_transparent(spec, [failure])
    record = system.telemetry.by_kind("transient")[0]
    breakdown = record.breakdown()
    for phase in ("delete_comms_handles", "reset_buffers", "recreate_comms",
                  "recreate_handles", "replay"):
        assert phase in breakdown, phase
    # NCCL re-init dominates (the paper's Table 7 observation).
    assert breakdown["recreate_comms"] > breakdown["replay"]
    assert breakdown["recreate_comms"] > breakdown["recreate_handles"]


def test_failure_sweep_across_minibatch_phases():
    """Inject sticky errors at many offsets within the steady state, so
    failures land in forward, backward, all-reduce and optimizer phases —
    recovery must be exact in every case (Sections 4.2.1 and 4.2.2)."""
    spec = ddp_spec()
    baseline = plain_losses(spec)
    for offset in np.linspace(0.0, 0.1, 6):
        failure = FailureEvent(2.0 + float(offset), FailureType.GPU_STICKY,
                               "node0/gpu2")
        system, job, losses = run_transparent(spec, [failure])
        assert losses == baseline, f"offset {offset}"


def test_hard_error_migrates_to_replacement_gpu():
    spec = ddp_spec()
    failure = FailureEvent(2.0, FailureType.GPU_HARD, "node0/gpu1")
    system, job, losses = run_transparent(spec, [failure])
    record = system.telemetry.by_kind("hard")[0]
    breakdown = record.breakdown()
    for phase in ("jit_checkpoint", "criu_checkpoint", "migrate", "restore"):
        assert phase in breakdown, phase
    # The failed rank now runs on a different, healthy GPU.
    moved = system.proxies[1].ctx.gpu
    assert moved.gpu_id != "node0/gpu1"
    assert moved.is_usable


def test_recovery_records_match_with_tracing_on_and_off():
    """Episodes land on the system's tracer when it is enabled and on the
    telemetry's own tracer when it is not; breakdowns and recovery times
    are the same bits either way."""
    spec = ddp_spec()
    failure = FailureEvent(2.0, FailureType.GPU_HARD, "node0/gpu1")
    tracer = Tracer(enabled=True)
    traced, _, traced_losses = run_transparent(spec, [failure], tracer=tracer)
    plain, _, plain_losses_ = run_transparent(spec, [failure])
    assert traced.telemetry.tracer is tracer
    assert plain.telemetry.tracer is not plain.tracer
    assert not plain.tracer.enabled and plain.telemetry.tracer.enabled
    assert traced_losses == plain_losses_
    assert [r.kind for r in traced.telemetry.records] == \
        [r.kind for r in plain.telemetry.records]
    assert "hard" in [r.kind for r in traced.telemetry.records]
    for on, off in zip(traced.telemetry.records, plain.telemetry.records):
        assert on.breakdown() == off.breakdown()
        assert list(on.breakdown()) == list(off.breakdown())
        assert on.recovery_time.hex() == off.recovery_time.hex()
    episodes = [span for span in tracer.spans
                if span.actor.startswith("recovery") and span.depth == 0]
    assert [span.name for span in episodes] == \
        [r.kind for r in traced.telemetry.records]


def test_hard_error_recovery_slower_than_transient():
    spec = ddp_spec()
    _, _, _ = sticky = run_transparent(
        spec, [FailureEvent(2.0, FailureType.GPU_STICKY, "node0/gpu1")])
    hard = run_transparent(
        spec, [FailureEvent(2.0, FailureType.GPU_HARD, "node0/gpu1")])
    t_transient = sticky[0].telemetry.mean_recovery_time("transient")
    t_hard = hard[0].telemetry.mean_recovery_time("hard")
    assert t_hard > t_transient


def test_multiple_transient_failures():
    spec = ddp_spec()
    baseline = plain_losses(spec, iters=60)
    failures = [
        FailureEvent(2.0, FailureType.GPU_STICKY, "node0/gpu0"),
        FailureEvent(8.0, FailureType.GPU_DRIVER_CORRUPT, "node0/gpu3"),
    ]
    system, job, losses = run_transparent(spec, failures, iters=60)
    assert losses == baseline
    assert len(system.telemetry.by_kind("transient")) == 2


def test_3d_transparent_recovery():
    spec = make_spec(layout=ParallelLayout(dp=2, pp=2, tp=2), engine="3d",
                     minibatch_time=0.05)
    baseline = plain_losses(spec)
    failure = FailureEvent(2.5, FailureType.GPU_STICKY, "node0/gpu5")
    system, job, losses = run_transparent(spec, [failure])
    assert losses == baseline


def test_fsdp_hybrid_transparent_recovery():
    spec = make_spec(layout=ParallelLayout(dp=16), engine="fsdp",
                     num_nodes=2, minibatch_time=0.05)
    baseline = plain_losses(spec)
    failure = FailureEvent(2.5, FailureType.GPU_STICKY, "node0/gpu2")
    system, job, losses = run_transparent(spec, [failure])
    assert losses == baseline
