"""Optimizers, LR schedules, synthetic data, cost model."""

import numpy as np
import pytest

from repro.framework import (
    Adam,
    AdamW,
    ConstantLr,
    CosineLr,
    MODEL_CONFIGS,
    Sgd,
    SyntheticDataset,
    TrainingCostModel,
    WarmupLinearLr,
)
from repro.framework.costmodel import solve_tokens_for_minibatch_time
from repro.framework.models import build_blocks
from repro.framework.optim import make_optimizer
from repro.hardware.specs import A100_80GB, V100_32GB


def quadratic_params():
    return {"w": np.array([5.0, -3.0])}


def quadratic_grads(params):
    return {"w": 2.0 * params["w"]}  # minimize ||w||^2


def test_sgd_descends_quadratic():
    params = quadratic_params()
    opt = Sgd(params, lr=0.1)
    for _ in range(100):
        opt.step(quadratic_grads(params))
    assert np.abs(params["w"]).max() < 1e-3


def test_adam_descends_quadratic():
    params = quadratic_params()
    opt = Adam(params, lr=0.3)
    for _ in range(200):
        opt.step(quadratic_grads(params))
    assert np.abs(params["w"]).max() < 1e-2


def test_adamw_decays_weights_without_gradient():
    params = {"w": np.array([1.0])}
    opt = AdamW(params, lr=0.1, weight_decay=0.5)
    opt.step({"w": np.array([0.0])})
    assert params["w"][0] < 1.0


def test_adam_state_roundtrip_resumes_identically():
    params_a = quadratic_params()
    opt_a = Adam(params_a, lr=0.1)
    for _ in range(5):
        opt_a.step(quadratic_grads(params_a))
    saved_params = {k: v.copy() for k, v in params_a.items()}
    saved_state = opt_a.state_dict()

    # Continue the original.
    for _ in range(5):
        opt_a.step(quadratic_grads(params_a))

    # Restore a fresh copy and replay the same 5 steps.
    params_b = {k: v.copy() for k, v in saved_params.items()}
    opt_b = Adam(params_b, lr=0.1)
    opt_b.load_state_dict(saved_state)
    for _ in range(5):
        opt_b.step(quadratic_grads(params_b))

    np.testing.assert_array_equal(params_a["w"], params_b["w"])


def test_momentum_state_roundtrip():
    params = {"w": np.array([1.0])}
    opt = Sgd(params, lr=0.1, momentum=0.9)
    opt.step({"w": np.array([1.0])})
    state = opt.state_dict()
    opt2 = Sgd({"w": np.array([1.0])}, lr=0.1, momentum=0.9)
    opt2.load_state_dict(state)
    np.testing.assert_array_equal(opt2.velocity["w"], opt.velocity["w"])


def test_make_optimizer_factory():
    params = quadratic_params()
    assert isinstance(make_optimizer("sgd", params), Sgd)
    assert isinstance(make_optimizer("adam", params), Adam)
    assert isinstance(make_optimizer("adamw", params), AdamW)
    with pytest.raises(ValueError):
        make_optimizer("lamb", params)


def test_warmup_linear_shape():
    sched = WarmupLinearLr(base_lr=1.0, warmup_iters=10, total_iters=100)
    lrs = [sched.step() for _ in range(100)]
    assert lrs[0] == pytest.approx(0.1)
    assert lrs[9] == pytest.approx(1.0)
    assert lrs[-1] < lrs[50] < lrs[9]


def test_cosine_shape():
    sched = CosineLr(base_lr=1.0, total_iters=100, min_lr=0.1)
    assert sched.lr_at(0) == pytest.approx(1.0)
    assert sched.lr_at(100) == pytest.approx(0.1)
    assert sched.lr_at(50) == pytest.approx(0.55)


def test_scheduler_state_roundtrip():
    sched = WarmupLinearLr(base_lr=1.0, warmup_iters=5, total_iters=50)
    for _ in range(7):
        sched.step()
    state = sched.state_dict()
    sched2 = WarmupLinearLr(base_lr=1.0, warmup_iters=5, total_iters=50)
    sched2.load_state_dict(state)
    assert sched2.step() == sched.step()


def test_constant_lr():
    sched = ConstantLr(0.25)
    assert [sched.step() for _ in range(3)] == [0.25] * 3


# -- data ---------------------------------------------------------------------------


def test_dataset_is_stateless_and_deterministic():
    ds = SyntheticDataset(seed=1, n_features=8, n_classes=4, global_batch=16)
    x1, y1 = ds.global_minibatch(42)
    x2, y2 = ds.global_minibatch(42)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    x3, _ = ds.global_minibatch(43)
    assert not np.array_equal(x1, x3)


def test_shards_partition_global_batch():
    ds = SyntheticDataset(seed=1, n_features=8, n_classes=4, global_batch=16)
    x_full, y_full = ds.global_minibatch(0)
    parts_x = [ds.shard(0, r, 4)[0] for r in range(4)]
    np.testing.assert_array_equal(np.concatenate(parts_x), x_full)


def test_shard_divisibility_enforced():
    ds = SyntheticDataset(seed=1, n_features=8, n_classes=4, global_batch=10)
    with pytest.raises(ValueError):
        ds.shard(0, 0, 3)


def test_microbatches_split_shard():
    ds = SyntheticDataset(seed=1, n_features=8, n_classes=4, global_batch=16)
    micro = ds.microbatches(0, dp_rank=0, dp_world=2, n_micro=4)
    assert len(micro) == 4
    assert all(x.shape == (2, 8) for x, _ in micro)
    x_shard, _ = ds.shard(0, 0, 2)
    np.testing.assert_array_equal(np.concatenate([x for x, _ in micro]), x_shard)


def test_minibatch_drawn_once_per_process():
    """Datasets with equal arguments return the identical, read-only
    arrays: a restarted generation or an oracle check reuses the batch
    the first job drew instead of redrawing it."""
    first = SyntheticDataset(seed=3, n_features=8, n_classes=4, global_batch=8)
    second = SyntheticDataset(seed=3, n_features=8, n_classes=4,
                              global_batch=8)
    for iteration in (0, 5):
        x, y = first.global_minibatch(iteration)
        again_x, again_y = second.global_minibatch(iteration)
        assert again_x is x and again_y is y
        assert not x.flags.writeable and not y.flags.writeable
    assert first.global_minibatch(0)[0] is not first.global_minibatch(5)[0]
    other = SyntheticDataset(seed=4, n_features=8, n_classes=4, global_batch=8)
    assert other.global_minibatch(0)[0] is not first.global_minibatch(0)[0]


def test_labels_follow_frozen_teacher():
    ds = SyntheticDataset(seed=9, n_features=8, n_classes=4, global_batch=8)
    x, y = ds.global_minibatch(0)
    np.testing.assert_array_equal(y, np.argmax(x @ ds._teacher, axis=1))


# -- model configs / cost model --------------------------------------------------------


def test_catalogue_matches_table2_scales():
    assert MODEL_CONFIGS["GPT2-S"].n_params == 124_000_000
    assert MODEL_CONFIGS["GPT2-18B"].n_params == 18_000_000_000
    assert MODEL_CONFIGS["BERT-L-PT"].n_params == 334_000_000


def test_checkpoint_bytes_uses_fp16_params_fp32_opt():
    config = MODEL_CONFIGS["GPT2-S"]
    assert config.param_bytes == config.n_params * 2
    assert config.optimizer_bytes == config.n_params * 12
    assert config.checkpoint_bytes == config.n_params * 14


def test_build_blocks_deterministic_and_shardable():
    config = MODEL_CONFIGS["GPT2-S"]
    blocks_a, head_a = build_blocks(config, seed=3)
    blocks_b, head_b = build_blocks(config, seed=3)
    np.testing.assert_array_equal(blocks_a[0].arrays()[0],
                                  blocks_b[0].arrays()[0])
    np.testing.assert_array_equal(head_a.w, head_b.w)

    # A pipeline shard sees the same layer weights as the full build.
    shard, head_shard = build_blocks(config, seed=3, layer_range=(4, 8))
    np.testing.assert_array_equal(shard[0].arrays()[0],
                                  blocks_a[4].arrays()[0])
    assert head_shard is not None      # last range owns the head
    first, head_first = build_blocks(config, seed=3, layer_range=(0, 4))
    assert head_first is None


def test_build_blocks_follows_block_pattern():
    from repro.framework.attention import AttentionBlockParams
    from repro.framework.layers import MlpBlockParams

    gpt = MODEL_CONFIGS["GPT2-S"]
    blocks, _head = build_blocks(gpt, seed=1)
    kinds = [type(b) for b in blocks]
    assert kinds[0] is AttentionBlockParams
    assert kinds[1] is MlpBlockParams
    assert kinds == [AttentionBlockParams, MlpBlockParams] * 4

    conv = MODEL_CONFIGS["PyramidNet"]
    blocks, _head = build_blocks(conv, seed=1)
    assert all(type(b) is MlpBlockParams for b in blocks)


def test_cost_model_calibration_inverts():
    config = MODEL_CONFIGS["BERT-L-PT"]
    target = 0.418  # paper Table 4 minibatch time on 8x V100
    tokens = solve_tokens_for_minibatch_time(config, V100_32GB, target)
    cost = TrainingCostModel(config, tokens_per_rank=tokens)
    assert cost.minibatch_compute_time(V100_32GB) == pytest.approx(target, rel=0.05)


def test_cost_model_scales_with_model_fraction():
    config = MODEL_CONFIGS["GPT2-8B"]
    full = TrainingCostModel(config, tokens_per_rank=1000, model_fraction=1.0)
    shard = TrainingCostModel(config, tokens_per_rank=1000, model_fraction=0.125)
    assert shard.checkpoint_bytes_local == pytest.approx(
        full.checkpoint_bytes_local / 8, rel=1e-6)
    assert shard.layer_forward_time(V100_32GB) == pytest.approx(
        full.layer_forward_time(V100_32GB) / 8, rel=1e-6)


def test_a100_faster_than_v100():
    config = MODEL_CONFIGS["GPT2-S"]
    cost = TrainingCostModel(config, tokens_per_rank=10_000)
    assert (cost.minibatch_compute_time(A100_80GB)
            < cost.minibatch_compute_time(V100_32GB))
