"""Tests for the Section 5 analytical model, including property tests
that c* really minimises wasted work and the paper's worked examples."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CalibratedParameters,
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
from repro.workloads.catalog import WORKLOADS

DAY = 86400.0


def bert_params(o=5.0, r=9.9, m=0.418):
    """BERT-L-PT constants from the paper's Table 4 / Section 6.5."""
    return CostParameters(checkpoint_overhead=o,
                          failure_rate=2e-3 / DAY,
                          fixed_recovery=r, minibatch_time=m)


def test_section_65_optimal_frequency_example():
    """Paper: c* ~ sqrt(N)/6hr for BERT-L-PT with o=5s, f=2e-3/day."""
    params = bert_params()
    for n in (4, 1024):
        c_star = optimal_checkpoint_frequency(n, params.failure_rate,
                                              params.checkpoint_overhead)
        expected = math.sqrt(n) / (6 * 3600.0)
        # The paper rounds sqrt(N)/5.77hr to "sqrt(N)/6hr".
        assert c_star == pytest.approx(expected, rel=0.05)


def test_section_65_1024_gpus_11_minutes():
    """At N=1024 the paper quotes ~5.54/hr (once every ~11 minutes)."""
    params = bert_params()
    c_star = optimal_checkpoint_frequency(1024, params.failure_rate,
                                          params.checkpoint_overhead)
    per_hour = c_star * 3600
    assert per_hour == pytest.approx(5.54, rel=0.05)


def test_section_65_wasted_fraction_examples():
    """Paper: w_f ~ 0.1% at N=4 and ~1.53% at N=1024 for BERT-L-PT."""
    params = bert_params()
    w4 = wasted_fraction(periodic_wasted_per_gpu(4, params))
    w1024 = wasted_fraction(periodic_wasted_per_gpu(1024, params))
    assert w4 == pytest.approx(0.001, rel=0.2)
    assert w1024 == pytest.approx(0.0153, rel=0.1)


def test_equation_10_coefficients():
    """Paper eq. 10: w* = 4.8e-4 sqrt(N) + 2.3e-7 N for BERT-L-PT."""
    params = bert_params()
    for n in (4, 64, 1024, 8192):
        expected = 4.8e-4 * math.sqrt(n) + 2.3e-7 * n
        assert periodic_wasted_per_gpu(n, params) == pytest.approx(
            expected, rel=0.05)


def test_section_51_dollar_costs():
    """$30k/month at 1000 GPUs; ~$3M at 10000 (quadratic scaling)."""
    assert dollar_cost_per_month(1000, failures_per_day=1,
                                 lost_hours_per_failure=0.25) == 30_000
    # 10x GPUs -> 10x failures/day and 10x GPUs redoing work.
    assert dollar_cost_per_month(10_000, failures_per_day=10,
                                 lost_hours_per_failure=0.25) == 3_000_000


def test_jit_beats_periodic_at_scale():
    """The paper's headline: JIT wasted work grows much slower with N."""
    params = bert_params()
    for n in (1024, 8192):
        periodic = periodic_wasted_per_gpu(n, params)
        user_jit = jit_user_level_wasted_per_gpu(n, params)
        transparent = jit_transparent_wasted_per_gpu(
            n, CostParameters(params.checkpoint_overhead,
                              params.failure_rate, fixed_recovery=0.0,
                              minibatch_time=params.minibatch_time))
        assert transparent < user_jit < periodic


def test_transparent_wasted_time_is_flat_in_n():
    """Table 8: transparent JIT w_f stays ~flat as N grows."""
    params = bert_params()
    w4 = jit_transparent_wasted_per_gpu(4, params)
    w8192 = jit_transparent_wasted_per_gpu(8192, params)
    assert wasted_fraction(w8192) < 0.01
    assert w8192 / max(w4, 1e-12) < 3000  # linear in N but tiny slope


@given(n=st.integers(1, 20_000),
       f=st.floats(1e-9, 1e-4),
       o=st.floats(0.1, 100.0),
       r=st.floats(0.0, 100.0))
@settings(max_examples=200)
def test_c_star_minimizes_wasted_work(n, f, o, r):
    """Property: W(c*) <= W(c) for perturbed frequencies (equation 2/3)."""
    params = CostParameters(o, f, r, minibatch_time=1.0)
    c_star = optimal_checkpoint_frequency(n, f, o)
    w_star = total_wasted_gpu_time(n, params, c_star, useful_time=1.0)
    for factor in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0):
        w = total_wasted_gpu_time(n, params, c_star * factor, useful_time=1.0)
        assert w_star <= w * (1 + 1e-9)


@given(n=st.integers(1, 20_000), f=st.floats(1e-9, 1e-4),
       o=st.floats(0.1, 100.0))
@settings(max_examples=200)
def test_checkpoint_and_redo_terms_equal_at_optimum(n, f, o):
    """At c*, the checkpointing and redo terms are symmetric (eq. 4)."""
    c_star = optimal_checkpoint_frequency(n, f, o)
    checkpoint_term = c_star * o
    redo_term = n * f / (2 * c_star)
    assert checkpoint_term == pytest.approx(redo_term, rel=1e-9)


@given(w=st.floats(0.0, 1e6))
@settings(max_examples=100)
def test_wasted_fraction_bounded(w):
    fraction = wasted_fraction(w)
    assert 0.0 <= fraction < 1.0


def test_wasted_fraction_rejects_negative():
    with pytest.raises(ValueError):
        wasted_fraction(-0.1)


def test_invalid_frequency_inputs_rejected():
    with pytest.raises(ValueError):
        optimal_checkpoint_frequency(4, 0.0, 5.0)
    with pytest.raises(ValueError):
        total_wasted_gpu_time(4, bert_params(), 0.0, 1.0)


def test_calibration_from_spec_has_sane_magnitudes():
    spec = WORKLOADS["BERT-L-PT"]
    calibrated = CalibratedParameters.from_spec(spec)
    params = calibrated.params
    # Checkpoint ~ seconds (4.7GB over PCIe+store), restore ~ tens of s.
    assert 1.0 < params.checkpoint_overhead < 30.0
    assert 5.0 < params.fixed_recovery < 60.0
    assert params.minibatch_time == spec.minibatch_time


def test_calibration_scales_with_model_size():
    small = CalibratedParameters.from_spec(WORKLOADS["BERT-B-FT"])
    large = CalibratedParameters.from_spec(WORKLOADS["GPT2-18B"])
    assert (large.params.checkpoint_overhead
            > small.params.checkpoint_overhead)


def test_table8_row_bert_at_1024_gpus():
    """Table 8's BERT-L-PT row at N=1024: both JIT variants beat periodic
    and transparent JIT beats user-level JIT."""
    params = CalibratedParameters.from_spec(WORKLOADS["BERT-L-PT"]).params
    row = table8_row(1024, params)
    assert row["n"] == 1024
    assert 0 < row["user_jit"] < row["periodic"]
    assert row["transparent"] < row["user_jit"]
