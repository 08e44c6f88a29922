"""Layer math: gradients check against finite differences; TP splits are exact."""

import numpy as np
import pytest

from repro.framework.layers import (
    MlpBlockParams,
    OutputHead,
    gelu,
    gelu_grad,
    softmax_cross_entropy,
)

RNG = np.random.default_rng(7)


def numerical_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        up = fn()
        flat_x[i] = original - eps
        down = fn()
        flat_x[i] = original
        flat_g[i] = (up - down) / (2 * eps)
    return grad


def test_gelu_matches_reference_points():
    assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)
    assert gelu(np.array([100.0]))[0] == pytest.approx(100.0, rel=1e-6)
    assert gelu(np.array([-100.0]))[0] == pytest.approx(0.0, abs=1e-6)


def test_gelu_grad_matches_numeric():
    x = RNG.standard_normal(16)
    numeric = np.array([
        (gelu(np.array([v + 1e-6]))[0] - gelu(np.array([v - 1e-6]))[0]) / 2e-6
        for v in x
    ])
    np.testing.assert_allclose(gelu_grad(x), numeric, atol=1e-5)


def test_softmax_xent_loss_and_grad():
    logits = RNG.standard_normal((5, 4))
    labels = np.array([0, 1, 2, 3, 0])
    loss, grad = softmax_cross_entropy(logits.copy(), labels)
    assert loss > 0

    def loss_fn():
        return softmax_cross_entropy(logits, labels)[0]

    numeric = numerical_grad(loss_fn, logits)
    np.testing.assert_allclose(grad, numeric, atol=1e-5)


def test_mlp_block_backward_matches_numeric():
    params = MlpBlockParams.init_params(RNG, d_model=6, hidden=8)
    x = RNG.standard_normal((3, 6))
    dy = RNG.standard_normal((3, 6))

    def scalar_loss():
        y, _ = params.forward(x)
        return float((y * dy).sum())

    _, cache = params.forward(x)
    dx, grads = params.backward_full(dy, cache)

    np.testing.assert_allclose(dx, numerical_grad(scalar_loss, x), atol=1e-4)
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_allclose(
            grads[name],
            numerical_grad(scalar_loss, getattr(params, name)),
            atol=1e-4, err_msg=name)


def test_output_head_backward_matches_numeric():
    params = OutputHead.init_params(RNG, d_model=6, n_classes=4)
    x = RNG.standard_normal((5, 6))
    labels = np.array([0, 1, 2, 3, 1])

    def loss_fn():
        loss, _ = OutputHead.forward(x, params, labels)
        return loss

    _, cache = OutputHead.forward(x, params, labels)
    dx, grads = OutputHead.backward(cache, params)
    np.testing.assert_allclose(dx, numerical_grad(loss_fn, x), atol=1e-5)
    np.testing.assert_allclose(grads["w"], numerical_grad(loss_fn, params.w),
                               atol=1e-5)
    np.testing.assert_allclose(grads["b"], numerical_grad(loss_fn, params.b),
                               atol=1e-5)


@pytest.mark.parametrize("tp_world", [2, 4])
def test_tensor_parallel_forward_equals_unsharded(tp_world):
    rng_seed = 11
    d_model, hidden = 6, 8
    full_rng = np.random.Generator(np.random.Philox(key=rng_seed, counter=0))
    full = MlpBlockParams.init_params(full_rng, d_model, hidden)
    shards = []
    for tp_rank in range(tp_world):
        rng = np.random.Generator(np.random.Philox(key=rng_seed, counter=0))
        shards.append(MlpBlockParams.init_params(rng, d_model, hidden,
                                                 tp_rank=tp_rank,
                                                 tp_world=tp_world))
    x = RNG.standard_normal((4, d_model))

    y_full, _ = full.forward(x)

    partials = [shard.forward_partial(x)[0] for shard in shards]
    reduced = np.sum(partials, axis=0)
    y_tp = shards[0].finish_forward(x, reduced)
    np.testing.assert_allclose(y_tp, y_full, atol=1e-12)


@pytest.mark.parametrize("tp_world", [2, 4])
def test_tensor_parallel_backward_equals_unsharded(tp_world):
    rng_seed = 13
    d_model, hidden = 6, 8
    full_rng = np.random.Generator(np.random.Philox(key=rng_seed, counter=0))
    full = MlpBlockParams.init_params(full_rng, d_model, hidden)
    shards = []
    for tp_rank in range(tp_world):
        rng = np.random.Generator(np.random.Philox(key=rng_seed, counter=0))
        shards.append(MlpBlockParams.init_params(rng, d_model, hidden,
                                                 tp_rank=tp_rank,
                                                 tp_world=tp_world))
    x = RNG.standard_normal((4, d_model))
    dy = RNG.standard_normal((4, d_model))

    _, cache_full = full.forward(x)
    dx_full, grads_full = full.backward_full(dy, cache_full)

    caches = [s.forward_partial(x)[1] for s in shards]
    results = [s.backward(dy, c) for c, s in zip(caches, shards)]
    dx_tp = np.sum([r[0] for r in results], axis=0) + dy  # + residual once
    np.testing.assert_allclose(dx_tp, dx_full, atol=1e-12)

    # Sharded w1 grads concatenate along columns to the full grad.
    w1_tp = np.concatenate([r[1]["w1"] for r in results], axis=1)
    np.testing.assert_allclose(w1_tp, grads_full["w1"], atol=1e-12)
    w2_tp = np.concatenate([r[1]["w2"] for r in results], axis=0)
    np.testing.assert_allclose(w2_tp, grads_full["w2"], atol=1e-12)
    # b2 is replicated: every shard computes the identical full gradient.
    for r in results:
        np.testing.assert_allclose(r[1]["b2"], grads_full["b2"], atol=1e-12)


def test_init_is_deterministic():
    a = MlpBlockParams.init_params(np.random.Generator(np.random.Philox(key=5, counter=0)), 4, 8)
    b = MlpBlockParams.init_params(np.random.Generator(np.random.Philox(key=5, counter=0)), 4, 8)
    np.testing.assert_array_equal(a.w1, b.w1)
    np.testing.assert_array_equal(a.w2, b.w2)


def test_tp_requires_divisible_hidden():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MlpBlockParams.init_params(rng, 4, hidden=9, tp_rank=0, tp_world=2)
