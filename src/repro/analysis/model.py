"""Equations 1-8 of the paper, as plain functions.

Symbols (paper Section 5.2):

* ``o`` — overhead time of one checkpoint on one GPU (seconds);
* ``f`` — failure rate of one GPU (failures/second);
* ``r`` — fixed recovery cost per GPU per failure (seconds);
* ``n_gpus`` (paper's ``N``) — GPUs in the job;
* ``c`` — checkpoint frequency (checkpoints/second);
* ``m`` — minibatch time (seconds);
* ``o_jit`` — steady-state JIT interception overhead per GPU per second.

All wasted-time quantities here are per GPU per unit *useful* time unless
stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SECONDS_PER_DAY = 24 * 3600.0
HOURS_PER_MONTH = 30 * 24.0


@dataclass(frozen=True)
class CostParameters:
    """One workload's parameters for the analytical model."""

    checkpoint_overhead: float      # o
    failure_rate: float             # f, per GPU per second
    fixed_recovery: float           # r
    minibatch_time: float           # m
    jit_steady_overhead: float = 0.0  # o_jit (per GPU per second)


def optimal_checkpoint_frequency(n_gpus: int, failure_rate: float,
                                 checkpoint_overhead: float) -> float:
    """Equation 3: ``c* = sqrt(N f / 2 o)`` (checkpoints per second)."""
    if min(n_gpus, 1) < 1 or failure_rate <= 0 or checkpoint_overhead <= 0:
        raise ValueError("N >= 1, f > 0 and o > 0 required")
    return math.sqrt(n_gpus * failure_rate / (2.0 * checkpoint_overhead))


def total_wasted_gpu_time(n_gpus: int, params: CostParameters,
                          checkpoint_frequency: float,
                          useful_time: float) -> float:
    """Equation 1: total expected GPU time wasted over *useful_time*.

    ``W = N t (c o + N f r + N f / (2 c))``
    """
    c = checkpoint_frequency
    if c <= 0:
        raise ValueError("checkpoint frequency must be positive")
    per_gpu = (c * params.checkpoint_overhead
               + n_gpus * params.failure_rate * params.fixed_recovery
               + n_gpus * params.failure_rate / (2.0 * c))
    return n_gpus * useful_time * per_gpu


def periodic_wasted_per_gpu(n_gpus: int, params: CostParameters,
                            checkpoint_frequency: float | None = None) -> float:
    """Equation 5 (at ``c*`` when *checkpoint_frequency* is None).

    ``w* = sqrt(N f o / 2) + N f r + sqrt(N f o / 2)``
    """
    f, o, r = (params.failure_rate, params.checkpoint_overhead,
               params.fixed_recovery)
    if checkpoint_frequency is None:
        term = math.sqrt(n_gpus * f * o / 2.0)
        return term + n_gpus * f * r + term
    c = checkpoint_frequency
    return c * o + n_gpus * f * r + n_gpus * f / (2.0 * c)


def jit_user_level_wasted_per_gpu(n_gpus: int, params: CostParameters) -> float:
    """Equation 7 (per GPU per unit time):

    ``w_jit = f o + o_jit + N f r + N f m / 2``
    """
    f = params.failure_rate
    return (f * params.checkpoint_overhead
            + params.jit_steady_overhead
            + n_gpus * f * params.fixed_recovery
            + n_gpus * f * params.minibatch_time / 2.0)


def jit_transparent_wasted_per_gpu(n_gpus: int,
                                   params: CostParameters) -> float:
    """Equation 8: ``w = o_jit + N f m / 2`` (no fixed cost, no copy)."""
    return (params.jit_steady_overhead
            + n_gpus * params.failure_rate * params.minibatch_time / 2.0)


def wasted_fraction(wasted_per_gpu_time: float) -> float:
    """Equation 6: ``w_f = w / (1 + w)``."""
    if wasted_per_gpu_time < 0:
        raise ValueError("wasted time cannot be negative")
    return wasted_per_gpu_time / (1.0 + wasted_per_gpu_time)


def table8_row(n_gpus: int, params: CostParameters) -> dict:
    """One Table 8 row: ``c*`` and each strategy's ``w_f`` at N GPUs.

    Returns ``{n, c_star_per_hr, periodic, user_jit, transparent}``, the
    last three as fractions (equations 3 and 5-8).  Transparent JIT is
    evaluated with ``r`` and ``o_jit`` zeroed: its CPU process survives,
    so a failure costs no re-initialisation (Section 5.5).
    """
    transparent = CostParameters(params.checkpoint_overhead,
                                 params.failure_rate, 0.0,
                                 params.minibatch_time)
    c_star = optimal_checkpoint_frequency(n_gpus, params.failure_rate,
                                          params.checkpoint_overhead)
    return {
        "n": n_gpus,
        "c_star_per_hr": c_star * 3600,
        "periodic": wasted_fraction(periodic_wasted_per_gpu(n_gpus, params)),
        "user_jit": wasted_fraction(
            jit_user_level_wasted_per_gpu(n_gpus, params)),
        "transparent": wasted_fraction(
            jit_transparent_wasted_per_gpu(n_gpus, transparent)),
    }


def dollar_cost_per_month(n_gpus: int, failures_per_day: float,
                          lost_hours_per_failure: float,
                          dollars_per_gpu_hour: float = 4.0) -> float:
    """Section 5.1: monthly dollar cost of failure-wasted GPU time.

    The paper's example — 1000 GPUs, 1 failure/day, 0.25 h redone per
    failure across all GPUs, $4/GPU-hour — yields $30,000/month; a 10,000
    GPU job scales quadratically to ~$3M/month (failure rate and redo
    cohort both grow with N).
    """
    failures_per_month = failures_per_day * 30.0
    return (n_gpus * failures_per_month * lost_hours_per_failure
            * dollars_per_gpu_hour)


def failures_per_day_for(n_gpus: int, per_gpu_per_day: float) -> float:
    """Job-level failure rate: ``N f`` (rates add across GPUs)."""
    return n_gpus * per_gpu_per_day
