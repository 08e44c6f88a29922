"""Reproducers for the five timing-edge divergences, now fixed.

A widened fuzz rotation surfaced five exactness failures on gemini,
periodic and adaptive.  They shared one root cause in replica dedup
(:mod:`repro.framework.dedup`): ``ReplicaArena.diverge`` rebound the
diverging member's parameters while its optimizer was still the
member's proxy, whose ``params`` is the canonical optimizer's dict.  The
group's canonical optimizer was thereby pointed at the diverged member's
private arrays, so every later canonical step updated that private copy
and left the rest of the group's arrays stale.  Each schedule below
diverges a member of a shared arena at a moment where that corruption
reaches the loss stream.  ``diverge`` now installs the private optimizer
before rebinding, and every reproducer passes with dedup on (they always
passed with ``REPRO_DEDUP=0``).

The schedules are the shrunk forms from the fuzz campaign:

* ``single`` seed 2110000 — GPU_STICKY at iteration 11 + 0.04 s on
  rank 1 (gemini).
* ``during_recovery`` seed 2020003 — GPU_STICKY at iteration 10 +
  0.10 s on rank 2, then GPU_DRIVER_CORRUPT lands mid-recovery at
  iteration 10 + 2.76 s on rank 3 (gemini at 16 iterations, periodic at
  the 20-iteration horizon).
* ``back_to_back_hard`` seed 70002 — GPU_HARD at iteration 2 + 0.04 s
  on rank 1, then GPU_HARD at iteration 3 + 0.42 s on rank 2 (adaptive
  and gemini at 16 iterations).
"""

import pytest

from repro.oracle import FailurePoint, FailureSchedule, RecoveryOracle

SINGLE_2110000 = FailureSchedule(points=(
    FailurePoint(11, "GPU_STICKY", 1, offset=0.04),))

DURING_RECOVERY_2020003 = FailureSchedule(points=(
    FailurePoint(10, "GPU_STICKY", 2, offset=0.10),
    FailurePoint(10, "GPU_DRIVER_CORRUPT", 3, offset=2.76),))

BACK_TO_BACK_70002 = FailureSchedule(points=(
    FailurePoint(2, "GPU_HARD", 1, offset=0.04),
    FailurePoint(3, "GPU_HARD", 2, offset=0.42),))


@pytest.fixture(scope="module")
def oracle16():
    return RecoveryOracle(iterations=16)


@pytest.fixture(scope="module")
def oracle20():
    return RecoveryOracle(iterations=20)


def test_gemini_single_sticky_late(oracle16):
    verdict = oracle16.check(SINGLE_2110000, "gemini")
    assert verdict.passed, verdict.describe()


def test_gemini_failure_during_recovery(oracle16):
    verdict = oracle16.check(DURING_RECOVERY_2020003, "gemini")
    assert verdict.passed, verdict.describe()


def test_periodic_failure_during_recovery(oracle20):
    verdict = oracle20.check(DURING_RECOVERY_2020003, "periodic")
    assert verdict.passed, verdict.describe()


def test_adaptive_back_to_back_hard(oracle16):
    verdict = oracle16.check(BACK_TO_BACK_70002, "adaptive")
    assert verdict.passed, verdict.describe()


def test_gemini_back_to_back_hard(oracle16):
    verdict = oracle16.check(BACK_TO_BACK_70002, "gemini")
    assert verdict.passed, verdict.describe()
