"""Numpy training framework ("mini-torch").

The semantic model (what the numbers are) is deliberately small — MLP
blocks of a few dozen units — while the *logical* model (how many bytes and
FLOPs a real model of the configured scale would use) drives all timing and
memory accounting.  This split is what lets an "18-billion-parameter" job
run in milliseconds of wall time while checkpoint sizes, copy durations and
kernel times match the paper's scales.

Everything here is deterministic: parameter init, data generation and the
optimizer consume explicitly-seeded RNG only, so two runs of the same job
produce bitwise-identical losses — the property the paper's recovery
validation ("exact floating point match of training losses") relies on.
"""

from repro.framework.layers import (
    MlpBlockParams,
    OutputHead,
    gelu,
    softmax_cross_entropy,
)
from repro.framework.models import ModelConfig, MODEL_CONFIGS, build_blocks
from repro.framework.optim import Adam, AdamW, Optimizer, Sgd
from repro.framework.lr_scheduler import (
    ConstantLr,
    CosineLr,
    LrScheduler,
    WarmupLinearLr,
)
from repro.framework.data import SyntheticDataset
from repro.framework.costmodel import TrainingCostModel

__all__ = [
    "Adam",
    "AdamW",
    "ConstantLr",
    "CosineLr",
    "LrScheduler",
    "MODEL_CONFIGS",
    "MlpBlockParams",
    "ModelConfig",
    "Optimizer",
    "OutputHead",
    "Sgd",
    "SyntheticDataset",
    "TrainingCostModel",
    "WarmupLinearLr",
    "build_blocks",
    "gelu",
    "softmax_cross_entropy",
]
