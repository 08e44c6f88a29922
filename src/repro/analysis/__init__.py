"""The paper's Section 5 analytical failure-overhead model.

Pure functions implementing equations 1-8: optimal periodic checkpointing
frequency, wasted GPU work under periodic and just-in-time checkpointing,
wasted-time fractions, Table 8's rows, and the Section 5.1 dollar-cost
estimates.
"""

from repro.analysis.model import (
    CostParameters,
    dollar_cost_per_month,
    jit_transparent_wasted_per_gpu,
    jit_user_level_wasted_per_gpu,
    optimal_checkpoint_frequency,
    periodic_wasted_per_gpu,
    table8_row,
    total_wasted_gpu_time,
    wasted_fraction,
)
from repro.analysis.calibration import CalibratedParameters
from repro.analysis.mtbf import (
    MtbfEstimate,
    StrategyRecommendation,
    estimate_from_events,
    recommend_strategy,
)

__all__ = [
    "CalibratedParameters",
    "MtbfEstimate",
    "StrategyRecommendation",
    "estimate_from_events",
    "recommend_strategy",
    "CostParameters",
    "dollar_cost_per_month",
    "jit_transparent_wasted_per_gpu",
    "jit_user_level_wasted_per_gpu",
    "optimal_checkpoint_frequency",
    "periodic_wasted_per_gpu",
    "table8_row",
    "total_wasted_gpu_time",
    "wasted_fraction",
]
