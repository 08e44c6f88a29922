"""Oracle checks record only what the verdict reads.

``RecoveryOracle.check`` runs its schedule with per-op trace records off
(``run_strategy(..., trace_ops=False)``): spans and control records
only.  Its verdict must equal the one a fully traced run of the same
schedule earns through the same ``check_all`` and
``build_strategy_ledger``, and the flight dump of a failed check, which
needs the per-op records, is replayed with full tracing on first read.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro import flags
from repro.obs import build_strategy_ledger, flight_dump
from repro.oracle import (STRATEGIES, FailurePoint, FailureSchedule,
                          RecoveryOracle)
from repro.oracle import oracle as oracle_module
from repro.oracle.invariants import check_all
from repro.oracle.oracle import default_oracle_spec
from repro.oracle.shrinker import shrink

#: Context ids are a process-global counter: two runs never share them.
_CTX = re.compile(r"ctx\d+")

#: Per-op actions; a check's run records none of them.
_PER_OP = ("op_done", "macro_chain", "collective_launch")


class _Recording(RecoveryOracle):
    """Keeps the run behind the last check (and every run)."""

    def run(self, schedule, strategy):
        self.last = super().run(schedule, strategy)
        return self.last


def _observed(run, judgement):
    outcome, violations, ledger = judgement
    return {
        "outcome": outcome,
        "violations": violations,
        "losses": np.asarray(run.losses, dtype=np.float64).tobytes(),
        "clock": run.wall_time.hex(),
        "events": run.events,
        "buckets": dict(ledger.buckets),
    }


def _judged(oracle, run, strategy):
    """A fully traced *run* put through the check's own judgement."""
    ledger = build_strategy_ledger(run, oracle.spec.world_size)
    violations = tuple(check_all(run, oracle.golden(strategy),
                                 oracle.golden_state(strategy)))
    outcome = ("exact" if not violations
               else "unrecoverable" if run.outcome != "ok" else "violation")
    return outcome, violations, ledger


def _per_op_records(tracer):
    return [event for event in tracer if event.action in _PER_OP]


def _compare(oracle, schedule, strategy):
    verdict = oracle.check(schedule, strategy)
    checked = oracle.last
    assert not _per_op_records(checked.tracer), strategy
    assert checked.tracer.filter_spans(name="iteration"), strategy
    full = oracle.run(schedule, strategy)
    assert _per_op_records(full.tracer), strategy
    observed = (_observed(checked, (verdict.outcome, verdict.violations,
                                    verdict.ledger)),
                _observed(full, _judged(oracle, full, strategy)))
    full.release()
    return observed


@pytest.mark.parametrize("switches", [True, False], ids=["on", "off"])
def test_check_matches_a_fully_traced_run(switches):
    """One fuzzed schedule per strategy, with (fast_path, dedup) on/on
    and off/off."""
    with flags.override(fast_path=switches, dedup=switches):
        oracle = _Recording(iterations=10)
        schedules = oracle.fuzzer(7).schedules(len(STRATEGIES))
        for strategy, schedule in zip(STRATEGIES, schedules):
            checked, full = _compare(oracle, schedule, strategy)
            assert checked == full, (strategy, schedule.describe())


@pytest.mark.fuzz
def test_check_matches_a_fully_traced_run_fuzz():
    oracle = _Recording(iterations=16)
    for schedule in oracle.fuzzer(7).schedules(12):
        for strategy in STRATEGIES:
            checked, full = _compare(oracle, schedule, strategy)
            assert checked == full, (strategy, schedule.describe())


# -- the replayed flight dump ------------------------------------------------------------


#: (mutation, strategy, spec, schedule) of two failing checks.
_FAILING = {
    "skip_rng_rewind": ("transparent", default_oracle_spec(dropout=0.1),
                        FailureSchedule(points=(FailurePoint(
                            3, "GPU_DRIVER_CORRUPT", 1, offset=0.4),))),
    "perturb_replica_copy": ("swift", None, FailureSchedule(points=(
        FailurePoint(8, "GPU_STICKY", 2, offset=0.5),))),
}


@pytest.fixture
def full_trace_runs(monkeypatch):
    """Counts the fully traced ``run_strategy`` calls the oracle makes."""
    calls = []
    run_strategy = oracle_module.run_strategy

    def counting(*args, trace_ops=True, **kwargs):
        if trace_ops:
            calls.append(args[0])
        return run_strategy(*args, trace_ops=trace_ops, **kwargs)

    monkeypatch.setattr(oracle_module, "run_strategy", counting)
    return calls


@pytest.mark.parametrize("mutation", sorted(_FAILING))
def test_flight_dump_is_replayed_on_first_read(mutation, full_trace_runs):
    strategy, spec, schedule = _FAILING[mutation]
    oracle = RecoveryOracle(spec=spec, iterations=10, mutations=(mutation,))
    verdict = oracle.check(schedule, strategy)
    assert verdict.outcome == "violation"
    assert full_trace_runs == []
    dump = verdict.flight_dump
    assert full_trace_runs == [strategy]
    assert verdict.flight_dump is dump
    assert full_trace_runs == [strategy]
    run = oracle.run(schedule, strategy)
    expected = flight_dump(run.tracer, oracle.golden_tracer(strategy))
    run.release()
    assert _CTX.sub("ctx", dump) == _CTX.sub("ctx", expected)
    assert "op_done" in dump


def test_replay_that_differs_from_its_check_says_so():
    strategy, spec, schedule = _FAILING["skip_rng_rewind"]
    oracle = RecoveryOracle(spec=spec, iterations=10,
                            mutations=("skip_rng_rewind",))
    verdict = oracle.check(schedule, strategy)
    assert not verdict.flight_dump.startswith("!!!")
    forged = dataclasses.replace(verdict, outcome="unrecoverable",
                                 violations=())
    first = forged.flight_dump.splitlines()[0]
    assert first == ("!!! the traced replay did not reproduce the check: "
                     "outcome, violations differ")


def test_shrink_starts_no_traced_rerun(full_trace_runs):
    strategy, spec, schedule = _FAILING["skip_rng_rewind"]
    oracle = RecoveryOracle(spec=spec, iterations=6,
                            mutations=("skip_rng_rewind",))
    wide = FailureSchedule(points=schedule.points + (
        FailurePoint(4, "GPU_STICKY", 2, offset=0.5),))
    result = shrink(oracle, wide, strategy)
    assert result.attempts > 1
    assert full_trace_runs == []
