"""``python -m repro.tools.report`` exits nonzero when a section fails."""

from fractions import Fraction

import pytest

import repro.obs
from repro.obs import BUCKETS, GoodputLedger
from repro.oracle.invariants import Violation
from repro.oracle.oracle import RecoveryOracle, Verdict
from repro.tools import report


def _one_failing_check(monkeypatch):
    """The first oracle check of the section fails; every other passes."""
    checked = []

    def check(self, schedule, strategy):
        checked.append(schedule)
        if len(checked) > 1:
            return Verdict(strategy, schedule, "exact")
        return Verdict(strategy, schedule, "violation", violations=(
            Violation("exactness", "loss mismatch at iteration 3"),))

    monkeypatch.setattr(RecoveryOracle, "check", check)


def _one_imbalanced_ledger(monkeypatch):
    built = []

    def ledger(run, ranks, wall_time=None):
        built.append(run)
        buckets = dict.fromkeys(BUCKETS, Fraction(0))
        # The first ledger overcounts idle time by one second.
        buckets["idle"] = Fraction(ranks + (len(built) == 1))
        return GoodputLedger("fake", ranks, 1.0, buckets)

    monkeypatch.setattr(RecoveryOracle, "run",
                        lambda self, schedule, strategy: None)
    monkeypatch.setattr(repro.obs, "build_strategy_ledger", ledger)


#: Each section with a pass/fail verdict, and how to make its source fail.
_BREAK = {"oracle": _one_failing_check, "storage": _one_failing_check,
          "goodput": _one_imbalanced_ledger}


@pytest.mark.parametrize("section", sorted(_BREAK))
def test_failing_section_exits_nonzero(section, monkeypatch, capsys):
    _BREAK[section](monkeypatch)
    assert report.main([section]) == 1
    assert ("1 IMBALANCED LEDGERS" if section == "goodput"
            else "1 FAILING CHECKS") in capsys.readouterr().out
