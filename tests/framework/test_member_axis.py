"""Member axis: one pass over ``k`` row-shards equals ``k`` passes.

A replica group runs each layer's forward and backward once on its full
batch with member count ``k`` (:mod:`repro.framework.dedup`).  Rows ``r``
of every activation and of ``dx``, slice ``r`` of every stacked gradient
and member ``r``'s loss must be bitwise what rank ``r`` computes alone
from its row-shard with ``k = 1``: at every row count, down to one row
per member (where a whole-batch product would take a different BLAS
path from the member's own), and for groups of up to 64 members.
"""

import numpy as np
import pytest

from repro.framework.attention import AttentionBlockParams
from repro.framework.layers import MlpBlockParams, OutputHead

BATCH, D_MODEL, HIDDEN, N_HEADS, SEQ, N_CLASSES = 16, 16, 32, 4, 2, 8


def _rng(counter: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=17, counter=counter))


def _blocks():
    """(label, block) for both kinds, unsharded and as each tp=2 shard."""
    out = []
    for tp_world in (1, 2):
        for tp_rank in range(tp_world):
            tag = f"tp{tp_rank}of{tp_world}"
            out.append((f"mlp-{tag}", MlpBlockParams.init_params(
                _rng(0), D_MODEL, HIDDEN, tp_rank=tp_rank,
                tp_world=tp_world)))
            out.append((f"attention-{tag}", AttentionBlockParams.init_params(
                _rng(1), D_MODEL, N_HEADS, seq_len=SEQ, tp_rank=tp_rank,
                tp_world=tp_world)))
    return out


BLOCKS = _blocks()


#: (rows per member, k): one and two rows per member, up to 64 members.
SMALL_SHARDS = [(rows, k) for rows in (1, 2) for k in (2, 8, 64)]


def _inputs(batch: int = BATCH):
    rng = _rng(2)
    return (rng.standard_normal((batch, D_MODEL)),
            rng.standard_normal((batch, D_MODEL)),
            rng.integers(0, N_CLASSES, batch))


def _shard(r: int, k: int, batch: int = BATCH) -> slice:
    return slice(r * batch // k, (r + 1) * batch // k)


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("full", [False, True], ids=["partial", "full"])
@pytest.mark.parametrize("label,block", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_block_member_slices_equal_row_shard_backward(label, block, full, k):
    x, dy, _ = _inputs()
    backward = block.backward_full if full else block.backward
    _, cache = block.forward_partial(x, k)
    dx, grads = backward(dy, cache, k=k)
    shapes = {name: array.shape for name, array in block.as_dict().items()}
    assert dx.shape == x.shape
    if k == 1:
        # Today's per-rank shapes: one gradient per parameter, unstacked.
        assert {name: g.shape for name, g in grads.items()} == shapes
    else:
        assert {name: g.shape for name, g in grads.items()} == {
            name: (k,) + shape for name, shape in shapes.items()}
    for r in range(k):
        rows = _shard(r, k)
        _, own_cache = block.forward_partial(x[rows])
        own_dx, own = backward(dy[rows], own_cache)
        assert _bits(dx[rows]) == _bits(own_dx), (label, r)
        for name, grad in own.items():
            mine = grads[name] if k == 1 else grads[name][r]
            assert mine.shape == grad.shape
            assert _bits(mine) == _bits(grad), (label, name, r)


@pytest.mark.parametrize("rows,k", SMALL_SHARDS)
@pytest.mark.parametrize("label,block", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_small_member_slices_equal_row_shard_forward_and_backward(
        label, block, rows, k):
    batch = rows * k
    x, dy, _ = _inputs(batch)
    partial, cache = block.forward_partial(x, k)
    dx, grads = block.backward(dy, cache, k=k)
    for r in range(k):
        shard = _shard(r, k, batch)
        own_partial, own_cache = block.forward_partial(x[shard])
        assert _bits(partial[shard]) == _bits(own_partial), (label, r)
        for name, own in own_cache.items():
            assert _bits(cache[name][shard]) == _bits(own), (label, name, r)
        own_dx, own = block.backward(dy[shard], own_cache)
        assert _bits(dx[shard]) == _bits(own_dx), (label, r)
        for name, grad in own.items():
            assert _bits(grads[name][r]) == _bits(grad), (label, name, r)
        if "tp0of1" in label:
            y, _ = block.forward(x, k)
            assert _bits(y[shard]) == _bits(block.forward(x[shard])[0])


@pytest.mark.parametrize("k", [1, 2, 4])
def test_head_member_losses_and_grads_equal_row_shard_head(k):
    x, _, labels = _inputs()
    head = OutputHead.init_params(_rng(3), D_MODEL, N_CLASSES)
    losses, cache = OutputHead.forward(x, head, labels, k=k)
    dx, grads = OutputHead.backward(cache, head, k=k)
    assert dx.shape == x.shape
    if k == 1:
        assert isinstance(losses, float)
        assert grads["w"].shape == head.w.shape
        assert grads["b"].shape == head.b.shape
        losses = [losses]
    else:
        assert losses.shape == (k,)
        assert grads["w"].shape == (k,) + head.w.shape
        assert grads["b"].shape == (k,) + head.b.shape
    for r in range(k):
        rows = _shard(r, k)
        own_loss, own_cache = OutputHead.forward(x[rows], head, labels[rows])
        own_dx, own = OutputHead.backward(own_cache, head)
        assert _bits(np.float64(losses[r])) == _bits(np.float64(own_loss))
        assert _bits(cache["dlogits"][rows]) == _bits(own_cache["dlogits"])
        assert _bits(dx[rows]) == _bits(own_dx)
        for name, grad in own.items():
            mine = grads[name] if k == 1 else grads[name][r]
            assert _bits(mine) == _bits(grad), (name, r)


@pytest.mark.parametrize("rows,k", SMALL_SHARDS)
def test_small_member_head_equals_row_shard_head(rows, k):
    batch = rows * k
    x, _, labels = _inputs(batch)
    head = OutputHead.init_params(_rng(3), D_MODEL, N_CLASSES)
    losses, cache = OutputHead.forward(x, head, labels, k=k)
    dx, grads = OutputHead.backward(cache, head, k=k)
    for r in range(k):
        shard = _shard(r, k, batch)
        own_loss, own_cache = OutputHead.forward(x[shard], head, labels[shard])
        own_dx, own = OutputHead.backward(own_cache, head)
        assert _bits(np.float64(losses[r])) == _bits(np.float64(own_loss))
        assert _bits(cache["dlogits"][shard]) == _bits(own_cache["dlogits"])
        assert _bits(dx[shard]) == _bits(own_dx)
        for name, grad in own.items():
            assert _bits(grads[name][r]) == _bits(grad), (name, r)
