"""Model catalogue: the workloads of the paper's Table 2.

A :class:`ModelConfig` carries the *logical* scale (parameter count, which
drives checkpoint sizes and kernel FLOPs) and the *semantic* dimensions
(the small numpy model that is actually trained).  ``build_blocks``
materialises the semantic parameters, deterministically, for any tensor /
pipeline shard: private copies of the read-only :class:`ModelShard`
each process draws once per (model, seed, layer range, tp coords), so a
restarted job generation rebuilds its ranks at the cost of a copy.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from repro.framework.attention import AttentionBlockParams
from repro.framework.layers import MlpBlockParams, OutputHead, OutputHeadParams

BILLION = 1_000_000_000


@dataclass(frozen=True)
class ModelConfig:
    """Scale and shape description for one model."""

    name: str
    n_params: int                 # logical parameter count (timing/sizing)
    n_layers: int                 # block count (the unit pipeline splits on)
    d_model: int = 16             # semantic width
    hidden: int = 32              # semantic MLP hidden width
    n_heads: int = 4              # semantic attention heads
    seq_len: int = 2              # semantic tokens per sample (attention)
    n_classes: int = 8
    #: Block types cycled over the layer stack: transformers alternate
    #: attention and MLP blocks; conv-style models use MLP blocks only.
    block_pattern: tuple[str, ...] = ("attention", "mlp")
    #: fp16 training weights -> 2 bytes per parameter in checkpoints.
    bytes_per_param: int = 2
    #: Adam keeps fp32 master weights + m + v -> 12 bytes per parameter.
    optimizer_bytes_per_param: int = 12

    def block_type(self, layer: int) -> str:
        return self.block_pattern[layer % len(self.block_pattern)]

    @property
    def param_bytes(self) -> int:
        return self.n_params * self.bytes_per_param

    @property
    def optimizer_bytes(self) -> int:
        return self.n_params * self.optimizer_bytes_per_param

    @property
    def checkpoint_bytes(self) -> int:
        """Total model+optimizer state one full replica checkpoints."""
        return self.param_bytes + self.optimizer_bytes

    @property
    def params_per_layer(self) -> int:
        return self.n_params // self.n_layers


def build_blocks(config: ModelConfig, seed: int,
                 layer_range: tuple[int, int] | None = None,
                 tp_rank: int = 0, tp_world: int = 1,
                 ) -> tuple[list[MlpBlockParams], OutputHeadParams | None]:
    """Materialise semantic parameters for a shard of the model.

    All shards are sliced out of the same deterministic full model (one
    ``Philox`` stream per layer), so any (pp, tp) decomposition trains the
    same underlying network.  The head belongs to the last layer range.
    The arrays are private, writable copies of :func:`model_shard`'s.
    """
    return model_shard(config, seed, layer_range, tp_rank,
                       tp_world).instantiate()


def _draw_blocks(config: ModelConfig, seed: int, start: int, stop: int,
                 tp_rank: int, tp_world: int):
    blocks = []
    for layer in range(start, stop):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=layer))
        if config.block_type(layer) == "attention":
            blocks.append(AttentionBlockParams.init_params(
                rng, config.d_model, config.n_heads, seq_len=config.seq_len,
                tp_rank=tp_rank, tp_world=tp_world))
        else:
            blocks.append(MlpBlockParams.init_params(
                rng, config.d_model, config.hidden,
                tp_rank=tp_rank, tp_world=tp_world))
    head = None
    if stop == config.n_layers:
        rng = np.random.Generator(np.random.Philox(key=seed,
                                                   counter=config.n_layers + 1))
        head = OutputHead.init_params(rng, config.d_model, config.n_classes)
    return blocks, head


class ModelShard:
    """A shard's initial weights, drawn once per process.

    Every array here is read-only.  A job's engine takes private copies
    (:meth:`instantiate`); a replica born bound to its group's canonical
    arrays takes none.  ``shares`` memoises the logical-byte split of
    each buffer group an engine registers over the shard.
    """

    def __init__(self, blocks: list, head: OutputHeadParams | None):
        from repro.parallel.buffers import GroupShares

        self.blocks = tuple(blocks)
        self.head = head
        for array in self.arrays():
            array.flags.writeable = False
        self.shares = GroupShares()

    def instantiate(self) -> tuple[list, OutputHeadParams | None]:
        """Fresh block objects over private, writable copies."""
        blocks = [_private(block) for block in self.blocks]
        head = _private(self.head) if self.head is not None else None
        return blocks, head

    def arrays(self) -> list[np.ndarray]:
        """The read-only arrays, block by block, then the head's."""
        units = list(self.blocks) + ([self.head] if self.head is not None
                                     else [])
        return [getattr(unit, name) for unit in units for name in unit.names()]


def _private(params):
    return dataclasses.replace(params, **{
        name: getattr(params, name).copy() for name in params.names()})


def bound_blocks(blocks: list, head: OutputHeadParams | None):
    """Fresh block objects over the *same* arrays as *blocks* / *head*.

    A replica born bound to its group's canonical arrays needs block
    objects of its own: diverging rebinds their attributes, which must
    not move the leader's.
    """
    return ([dataclasses.replace(block) for block in blocks],
            dataclasses.replace(head) if head is not None else None)


@functools.lru_cache(maxsize=128)
def model_shard(config: ModelConfig, seed: int,
                layer_range: tuple[int, int] | None = None,
                tp_rank: int = 0, tp_world: int = 1) -> ModelShard:
    """The per-process :class:`ModelShard` for these arguments."""
    start, stop = layer_range if layer_range is not None else (0, config.n_layers)
    blocks, head = _draw_blocks(config, seed, start, stop, tp_rank, tp_world)
    return ModelShard(blocks, head)


def _mk(name: str, billions: float, n_layers: int, **kwargs) -> ModelConfig:
    return ModelConfig(name=name, n_params=int(billions * BILLION),
                       n_layers=n_layers, **kwargs)


#: Table 2 of the paper.  Layer counts are kept small multiples of the
#: pipeline degrees used in the evaluation so stages split evenly.
#: Transformers alternate attention/MLP blocks; PyramidNet (conv) is the
#: MLP-only stack.
MODEL_CONFIGS: dict[str, ModelConfig] = {
    config.name: config
    for config in (
        _mk("GPT2-S", 0.124, 8),
        _mk("GPT2-XL", 1.5, 8),
        _mk("GPT2-8B", 8.3, 8),
        _mk("GPT2-18B", 18.0, 8),
        _mk("BERT-L-PT", 0.334, 8),
        _mk("BERT-B-FT", 0.110, 8),
        _mk("T5-3B", 3.0, 8),
        _mk("ViT", 0.632, 8),
        _mk("PyramidNet", 0.24, 8, block_pattern=("mlp",)),
    )
}
