"""Tests for the CheckFreq-style adaptive tuner and the Gemini baseline."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveIntervalTuner, ProfileStats
from repro.core.gemini import GeminiPolicy, GeminiRunner, PeerRamStore
from repro.core.periodic import CheckpointMode, PeriodicPolicy, PeriodicRunner
from repro.failures import FailureEvent, FailureInjector, FailureType
from repro.parallel.topology import ParallelLayout
from repro.sim import Environment
from repro.storage import SharedObjectStore, value_digest
from repro.workloads import TrainingJob

from tests.conftest import make_spec

DAY = 86400.0


# -- tuner unit tests -----------------------------------------------------------------


def test_profile_stats_mean():
    stats = ProfileStats()
    with pytest.raises(ValueError):
        _ = stats.mean
    stats.observe(1.0)
    stats.observe(3.0)
    assert stats.mean == 2.0


def test_tuner_uses_initial_interval_until_profiled():
    tuner = AdaptiveIntervalTuner(n_gpus=8, failure_rate=2e-3 / DAY,
                                  initial_interval=33)
    assert not tuner.profiled
    assert tuner.interval_iterations() == 33


def test_tuner_solves_equation_3():
    tuner = AdaptiveIntervalTuner(n_gpus=8, failure_rate=2e-3 / DAY,
                                  warmup_iterations=2)
    for _ in range(3):
        tuner.observe_minibatch(0.418)     # BERT-L-PT
    tuner.observe_checkpoint_stall(5.0)
    assert tuner.profiled
    # c* = sqrt(8 * f / (2*5)) -> interval in iterations.
    import math

    c_star = math.sqrt(8 * (2e-3 / DAY) / 10.0)
    expected = round((1 / c_star) / 0.418)
    assert tuner.interval_iterations() == pytest.approx(expected, rel=0.01)


def test_tuner_sensitive_to_failure_rate_guess():
    """The guesswork the paper criticises: a 100x wrong failure-rate
    estimate misplaces the interval by 10x (sqrt dependence)."""
    def tuned(rate):
        tuner = AdaptiveIntervalTuner(n_gpus=1024, failure_rate=rate,
                                      warmup_iterations=1)
        tuner.observe_minibatch(0.5)
        tuner.observe_checkpoint_stall(5.0)
        return tuner.interval_iterations()

    right = tuned(2e-3 / DAY)
    wrong = tuned(2e-5 / DAY)
    assert wrong / right == pytest.approx(10.0, rel=0.05)


def test_adaptive_runner_retunes_from_profile():
    spec = make_spec(layout=ParallelLayout(dp=2), minibatch_time=0.05)
    env = Environment()
    store = SharedObjectStore(env, bandwidth=1.5e9)
    runner = PeriodicRunner(
        env, spec, store, target_iterations=60,
        policy=PeriodicPolicy(CheckpointMode.CHECKFREQ,
                              interval_iterations=10**6),
        make_tuner=lambda: AdaptiveIntervalTuner(
            n_gpus=spec.world_size, failure_rate=50.0 / DAY,
            warmup_iterations=5, initial_interval=10**6))
    report = runner.execute()
    assert report.completed
    writer = next(c for c in runner.checkpointers if c.checkpoints_taken)
    # The profiling checkpoint plus at least one tuned checkpoint.
    assert writer.checkpoints_taken >= 2
    assert writer.tuner.retunes >= 1
    assert writer.current_interval() < 10**6


# -- Gemini ------------------------------------------------------------------------------


def test_peer_ram_store_dies_with_node():
    env = Environment()
    from repro.hardware import Cluster, ClusterSpec

    cluster = Cluster(env, ClusterSpec(num_nodes=2))
    ram = PeerRamStore(env)
    for node in cluster.nodes:
        ram.register_node(node)
    ram.put("node1", "full/rank0", 5, {"x": 1}, 100)
    assert ram.get("node1", "full/rank0").iteration == 5
    cluster.nodes[1].kill()
    assert ram.get("node1", "full/rank0") is None


def _ram(num_nodes=1):
    from repro.hardware import Cluster, ClusterSpec

    env = Environment()
    ram = PeerRamStore(env)
    for node in Cluster(env, ClusterSpec(num_nodes=num_nodes)).nodes:
        ram.register_node(node)
    return ram


def test_peer_ram_digest_is_the_whole_state_value_digest():
    """A slot's one-entry manifest is ``value_digest`` of the whole state,
    taken once through the frozen snapshot's frames: the same bytes the
    tree walk hashes, pinned to the value the walk computed before slots
    were frozen."""
    ram = _ram()
    state = {"params": {"w": np.arange(6.0).reshape(2, 3),
                        "b": np.zeros(3, dtype=np.float32)},
             "optimizer": {"step_count": 4, "lr": 0.01,
                           "m": {"w": np.ones((2, 3))}},
             "iteration": 4, "shard_id": "full"}
    ram.put("node0", "full/rank0", 4, state, 100)
    entry = ram.get_validated("node0", "full/rank0")
    assert entry.digest == value_digest(state) == (
        "3e373f7e3f7ec1ca8dc20958eb7d9372a19a71e22a9db89a59158a460a8d6bd3")
    assert value_digest(entry.state) == entry.digest
    # The caller's copy is writable and shares nothing with the slot.
    entry.state["params"]["w"][0, 0] = 99.0
    entry.state["optimizer"]["step_count"] = 5
    assert ram.get_validated("node0", "full/rank0").state["params"]["w"][
        0, 0] == 0.0


@pytest.mark.parametrize("state", [{"w": np.arange(4.0), "step": 3},
                                   {"step": 3, "name": "full"}],
                         ids=["array", "scalars-only"])
def test_peer_ram_rot_at_rest_and_on_landing_is_caught(state):
    ram = _ram()
    ram.put("node0", "full/rank0", 3, state, 100)
    assert ram.inject_bit_rot("rank0", salt=1)
    assert ram.stats["bit_rot_injected"] == 1
    assert ram.get("node0", "full/rank0") is not None   # served unchecked
    assert ram.get_validated("node0", "full/rank0") is None
    assert ram.quarantine_log == ["node0/full/rank0"]

    assert not ram.inject_bit_rot("rank1", salt=1)      # armed: rots on put
    ram.put("node0", "full/rank1", 4, state, 100)
    assert ram.stats["bit_rot_injected"] == 2
    assert ram.get_validated("node0", "full/rank1") is None


def run_gemini(spec, failures=(), iters=40, policy=None):
    env = Environment()
    runner = GeminiRunner(env, spec, target_iterations=iters,
                          policy=policy or GeminiPolicy(),
                          progress_timeout=20.0)
    FailureInjector(env, runner.manager.cluster).arm(failures)
    report = runner.execute()
    return runner, report


def test_gemini_checkpoints_every_iteration():
    spec = make_spec(layout=ParallelLayout(dp=2), minibatch_time=0.05)
    runner, report = run_gemini(spec, iters=20)
    assert report.completed
    writer = next(c for c in runner.checkpointers if c.checkpoints_taken)
    assert writer.checkpoints_taken == 19   # every iteration after the first


def test_gemini_recovers_within_one_iteration():
    spec = make_spec(layout=ParallelLayout(dp=2), minibatch_time=0.05)
    baseline = TrainingJob(spec).run_training(40)[0]
    failure = FailureEvent(4.0, FailureType.GPU_HARD, "node0/gpu1")
    runner, report = run_gemini(spec, [failure])
    assert report.completed
    assert report.restarts >= 1
    resumed_at = runner.manager.current_workers[0].engine.restored_at
    crash_at = report.generations[0].iterations_at_end
    assert crash_at - resumed_at <= 1
    assert report.final_losses == baseline


def test_gemini_pays_steady_traffic_jit_does_not():
    spec = make_spec(layout=ParallelLayout(dp=2), model="BERT-L-PT",
                     minibatch_time=0.4)
    runner, report = run_gemini(spec, iters=20,
                                policy=GeminiPolicy(overlap_fraction=0.8))
    assert runner.total_checkpoint_stall > 0  # unhidden copy remainder
    # JIT's steady state cost is zero by construction (no per-iteration
    # copies at all) — asserted in test_user_level / test_transparent.


def test_gemini_cross_node_buddy_survives_node_loss():
    spec = make_spec(layout=ParallelLayout(dp=12), num_nodes=2,
                     global_batch=24, minibatch_time=0.05)
    baseline = TrainingJob(spec).run_training(40)[0]
    failure = FailureEvent(8.0, FailureType.NODE_CRASH, "node0")
    runner, report = run_gemini(spec, [failure])
    assert report.completed
    # node0's ranks checkpoint into node1's RAM, so even losing node0
    # entirely resumes within one iteration of the crash.
    resumed_at = runner.manager.current_workers[0].engine.restored_at
    assert resumed_at >= report.generations[0].iterations_at_end - 1
    assert report.final_losses == baseline
