"""Served group math: a replica group's iteration is served by its inputs.

Exact recovery re-executes the failure-free trajectory, so a restarted
generation, an oracle check or a campaign scenario meets the same
weights with the same minibatch as a run before it.  A group-math
iteration whose parameters, batch and group shape digest like a
completed one takes that iteration's member losses and reduced gradients
(:data:`repro.framework.dedup.SERVED`).  Nothing observable may change:
losses, clocks, events and gradient bytes match a cold run bit for bit,
any input one ulp off recomputes, and a validation always recomputes,
on each member's own math.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.proxy import DeviceProxyApi
from repro.framework import dedup
from repro.framework.attention import AttentionBlockParams
from repro.framework.layers import MlpBlockParams
from repro.framework.models import MODEL_CONFIGS
from repro.oracle import (STRATEGIES, FailurePoint, FailureSchedule,
                          RecoveryOracle)
from repro.oracle.oracle import default_oracle_spec
from repro.parallel.topology import ParallelLayout
from repro.workloads import TrainingJob

ITERATIONS = 3
N_LAYERS = MODEL_CONFIGS["GPT2-S"].n_layers


@pytest.fixture
def cold_memo():
    dedup.SERVED._clear()
    yield
    dedup.SERVED._clear()


@pytest.fixture
def forwards(monkeypatch):
    """Every block forward of the test: layer math nothing served."""
    calls = []
    for kind in (AttentionBlockParams, MlpBlockParams):
        def counting(block, x, k=1, forward=kind.forward):
            calls.append(block)
            return forward(block, x, k)

        monkeypatch.setattr(kind, "forward", counting)
    return calls


def _run(spec, prepare=None):
    """Train *spec* for ``ITERATIONS``; the job and what it observed."""
    job = TrainingJob(spec)
    arena, = job.dedup_arenas
    if prepare is not None:
        prepare(job, arena)
    losses = job.run_training(ITERATIONS)
    return job, {
        "losses": np.asarray(losses, dtype=np.float64).tobytes(),
        "now": job.env.now.hex(),
        "events": job.env.events_processed,
        "grads": {name: array.tobytes()
                  for name, array in arena.grad_arrays.items()},
    }


def test_warm_run_is_served_and_bitwise_the_cold_run(cold_memo, forwards):
    spec = default_oracle_spec()
    _, cold = _run(spec)
    assert len(forwards) == ITERATIONS * N_LAYERS
    assert len(dedup.SERVED) == ITERATIONS
    forwards.clear()
    _, warm = _run(spec)
    assert warm == cold
    assert not forwards, "a warm run recomputed layer math"


# -- misses ----------------------------------------------------------------------------


def _nudge_one_parameter(job, arena):
    array = next(iter(arena.params.values()))
    array.flat[0] = np.nextafter(array.flat[0], np.inf)


def _change_one_row(job, arena):
    draw = job.dataset.global_minibatch

    def changed(iteration):
        x, y = draw(iteration)
        x = x.copy()
        x[3] = np.nextafter(x[3], np.inf)
        return x, y

    job.dataset.global_minibatch = changed


def _two_heads(monkeypatch):
    """GPT2-S with 2 attention heads instead of 4: every shape equal."""
    config = dataclasses.replace(MODEL_CONFIGS["GPT2-S"], name="GPT2-S-2H",
                                 n_heads=2)
    monkeypatch.setitem(MODEL_CONFIGS, config.name, config)
    return dataclasses.replace(default_oracle_spec(), model=config.name)


MISSES = {
    "one_ulp_parameter": lambda monkeypatch: (default_oracle_spec(),
                                              _nudge_one_parameter),
    "one_changed_row": lambda monkeypatch: (default_oracle_spec(),
                                            _change_one_row),
    "other_k_same_shapes": lambda monkeypatch: (
        dataclasses.replace(default_oracle_spec(),
                            layout=ParallelLayout(dp=2)), None),
    "other_heads_same_shapes": lambda monkeypatch: (_two_heads(monkeypatch),
                                                    None),
}


@pytest.mark.parametrize("miss", list(MISSES))
def test_other_inputs_miss_and_recompute(miss, cold_memo, forwards,
                                         monkeypatch):
    """Inputs that differ from a published run in one ulp of one
    parameter, one input row, the member count or the head count (at
    equal shapes) recompute every iteration, bitwise a cold run."""
    spec, prepare = MISSES[miss](monkeypatch)
    _, reference = _run(spec, prepare)
    dedup.SERVED._clear()
    base, _ = _run(default_oracle_spec())
    published = len(dedup.SERVED)
    forwards.clear()
    job, observed = _run(spec, prepare)
    assert observed == reference
    assert len(forwards) == ITERATIONS * N_LAYERS
    assert len(dedup.SERVED) == published + ITERATIONS
    shapes = [[(name, array.shape) for name, array in j.dedup_arenas[0]
               .params.items()] for j in (base, job)]
    assert shapes[0] == shapes[1]


def test_published_iterations_are_read_only(cold_memo):
    _run(default_oracle_spec())
    assert len(dedup.SERVED) == ITERATIONS
    for losses, grads in dedup.SERVED._entries.values():
        assert len(losses) == 4
        for array in (losses, *grads.values()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0


def test_validation_recomputes_on_a_warm_memo(cold_memo, monkeypatch):
    """Transparent recovery's validation (default: iteration 5) re-executes
    every member's math privately even though every iteration is served:
    the only block forwards of a warm check are the validation's."""
    oracle = RecoveryOracle(iterations=8)
    oracle.golden("transparent")
    launch = DeviceProxyApi.launch_kernel
    validating = []

    def marking(proxy, vstream, name, duration, thunk=None):
        if name.startswith("validation:") and thunk is not None:
            def marked(thunk=thunk):
                validating.append(proxy.rank)
                try:
                    thunk()
                finally:
                    validating.pop()

            return launch(proxy, vstream, name, duration, marked)
        return launch(proxy, vstream, name, duration, thunk)

    monkeypatch.setattr(DeviceProxyApi, "launch_kernel", marking)
    during = []
    for kind in (AttentionBlockParams, MlpBlockParams):
        def spying(block, x, k=1, forward=kind.forward):
            during.append((tuple(validating), k))
            return forward(block, x, k)

        monkeypatch.setattr(kind, "forward", spying)
    verdict = oracle.check(FailureSchedule(()), "transparent")
    assert verdict.outcome == "exact"
    # Each rank's forwards, one per layer, on its own rows (k == 1).
    assert sorted(during) == sorted(((rank,), 1)
                                    for rank in range(oracle.spec.layout.dp)
                                    for _ in range(N_LAYERS))


# -- the bound -------------------------------------------------------------------------


def test_lru_stays_within_its_byte_bound():
    def entry(value):
        return np.full(4, value), {"w": np.full(100, value)}

    size = dedup._entry_bytes(*entry(0.0))
    memo = dedup.ServedMath(limit=3 * size)
    for i in range(3):
        memo.put(bytes([i]), *entry(float(i)))
    assert memo.get(bytes([0]))[0][0] == 0.0     # now the most recent
    memo.put(bytes([3]), *entry(3.0))
    assert memo.nbytes == 3 * size <= memo.limit
    assert memo.get(bytes([1])) is None
    assert [memo.get(bytes([i])) is not None for i in (0, 2, 3)] == [True] * 3
    for i in range(4, 20):
        memo.put(bytes([i]), *entry(float(i)))
        assert memo.nbytes <= memo.limit and len(memo) <= 3


def test_both_golden_trajectories_fit_the_memo(cold_memo):
    """The bound holds an oracle's two default-length golden runs (Adam,
    and Swift's invertible SGD), which share their first iteration."""
    oracle = RecoveryOracle()
    for strategy in ("transparent", "swift"):
        oracle.golden(strategy)
    assert len(dedup.SERVED) == 2 * oracle.iterations - 1
    assert dedup.SERVED.nbytes <= dedup.SERVED_BYTES


# -- the oracle keeps its discriminating power -------------------------------------------


def test_perturbed_replica_copy_verdicts_on_a_warm_memo():
    """A replica copy one ulp off reads ``violation`` wherever the failure
    lands in 8 iterations, whatever the memo serves.  At iteration 7 no
    later loss reads the perturbed state, so the final-state comparison
    catches it, naming the first rank and tensor that differ."""
    oracle = RecoveryOracle(iterations=8, mutations=("perturb_replica_copy",))
    outcomes = {}
    for iteration in range(8):
        for offset in (0.3, 0.97):
            schedule = FailureSchedule(points=(FailurePoint(
                iteration, "GPU_STICKY", 1, offset=offset),))
            verdict = oracle.check(schedule, "transparent")
            outcomes[iteration, offset] = verdict.outcome
            if iteration == 7:
                (violation,) = verdict.violations
                # Rank 1's perturbed weights reach every rank's update
                # through the iteration's all-reduced gradient.
                assert violation.detail == ("final state diverges at "
                                            "rank 0, param layer0.wo")
    assert outcomes == {key: "violation" for key in outcomes}


# -- cold and warm checks agree --------------------------------------------------------


def _cold_and_warm(dp, per_rank, strategy, seed):
    """One fuzzed check on a cold memo and again on a warm one: outcome,
    ledger buckets, events and loss digest of each."""
    spec = dataclasses.replace(default_oracle_spec(dp=dp),
                               global_batch=dp * per_rank)
    observed = []
    for cold in (True, False):
        oracle = RecoveryOracle(spec, iterations=10)
        schedule = oracle.fuzzer(seed).draw()
        oracle.golden(strategy)
        if cold:
            dedup.SERVED._clear()
        runs = []
        run = oracle.run

        def recording(schedule, strategy):
            runs.append(run(schedule, strategy))
            return runs[-1]

        oracle.run = recording
        verdict = oracle.check(schedule, strategy)
        observed.append((
            verdict.outcome,
            {bucket: str(value)
             for bucket, value in verdict.ledger.buckets.items()},
            verdict.events,
            np.asarray(runs[-1].losses, dtype=np.float64).tobytes()))
    return observed


@pytest.mark.parametrize("dp,per_rank,strategy,seed", [
    (4, 2, "transparent", 7),
    (2, 4, "user_level", 11),
])
def test_cold_and_warm_checks_agree(dp, per_rank, strategy, seed):
    cold, warm = _cold_and_warm(dp, per_rank, strategy, seed)
    assert cold == warm


@pytest.mark.fuzz
@settings(max_examples=50, deadline=None)
@given(dp=st.sampled_from([2, 4, 8]), per_rank=st.sampled_from([2, 4]),
       strategy=st.sampled_from(STRATEGIES),
       seed=st.integers(min_value=0, max_value=10_000))
def test_cold_and_warm_checks_agree_fuzzed(dp, per_rank, strategy, seed):
    cold, warm = _cold_and_warm(dp, per_rank, strategy, seed)
    assert cold == warm
