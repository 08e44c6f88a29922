"""The recovery-equivalence oracle.

:class:`RecoveryOracle` answers one question for any (schedule, strategy)
pair: *does recovery preserve training semantics?*  It runs a failure-free
golden reference once per workload variant, replays the schedule under
the requested strategy, and checks the full invariant catalogue
(:mod:`repro.oracle.invariants`).  :meth:`RecoveryOracle.sweep` drives a
seeded :class:`~repro.oracle.schedule.ScheduleFuzzer` across every
strategy and aggregates verdicts for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from repro.hardware.specs import V100_NODE
from repro.obs import GoodputLedger, build_strategy_ledger, flight_dump
from repro.obs.ledger import BUCKETS
from repro.oracle.invariants import Violation, check_all
from repro.oracle.schedule import FailureSchedule, ScheduleFuzzer
from repro.oracle.strategies import (STRATEGIES, StrategyRun, final_state,
                                     run_strategy, spec_variant)
from repro.parallel.topology import ParallelLayout
from repro.sim import Tracer
from repro.workloads import TrainingJob, WorkloadSpec

DEFAULT_ITERATIONS = 20


def default_oracle_spec(dp: int = 4, dropout: float = 0.0,
                        minibatch_time: float = 0.05) -> WorkloadSpec:
    """Small, fast workload every strategy can run (one node, DDP)."""
    return WorkloadSpec(
        name="ORACLE", model="GPT2-S", node_spec=V100_NODE, num_nodes=1,
        layout=ParallelLayout(dp=dp), engine="ddp", framework="oracle",
        minibatch_time=minibatch_time, global_batch=16, dropout=dropout,
        seed=7)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one (schedule, strategy) oracle check."""

    strategy: str
    schedule: FailureSchedule
    outcome: str                       # "exact" | "violation" | "unrecoverable"
    violations: tuple[Violation, ...] = ()
    #: Goodput ledger of the checked run (always built).
    ledger: Optional[GoodputLedger] = None
    #: Logical simulator events of the checked run.
    events: Optional[int] = None
    #: Builds :attr:`flight_dump` from this verdict; set only when the
    #: check failed.
    replay: Optional[Callable[["Verdict"], str]] = field(
        default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.outcome == "exact"

    @cached_property
    def flight_dump(self) -> Optional[str]:
        """Flight-recorder dump (timeline tail + failing-vs-golden diff)
        of a failed check, else None.

        Built on first read, by a fully traced re-run of the check: the
        check's own run takes no per-op records.
        """
        return None if self.replay is None else self.replay(self)

    def describe(self) -> str:
        head = f"{self.strategy:<12} {self.schedule.describe()}: {self.outcome}"
        if not self.violations:
            return head
        lines = [head] + [f"    {v}" for v in self.violations]
        return "\n".join(lines)


@dataclass
class SweepReport:
    """Aggregated verdicts of one fuzz sweep."""

    seed: int
    iterations: int
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def failures(self) -> list[Verdict]:
        return [v for v in self.verdicts if not v.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list[str]:
        by_strategy: dict[str, list[Verdict]] = {}
        for verdict in self.verdicts:
            by_strategy.setdefault(verdict.strategy, []).append(verdict)
        lines = []
        for strategy in sorted(by_strategy):
            verdicts = by_strategy[strategy]
            bad = [v for v in verdicts if not v.passed]
            status = "ok" if not bad else f"{len(bad)} FAILING"
            lines.append(f"{strategy:<12} {len(verdicts):>3} schedules  {status}")
        return lines


def _outcome(run: StrategyRun, violations: Sequence[Violation]) -> str:
    if not violations:
        return "exact"
    return "unrecoverable" if run.outcome != "ok" else "violation"


class RecoveryOracle:
    """Cross-strategy recovery-equivalence checker.

    Golden loss streams and final states are memoized per workload
    *variant* (Swift runs under the invertible optimizer, so it gets its
    own golden), making repeated checks — the shrinker's inner loop —
    cheap.
    """

    def __init__(self, spec: Optional[WorkloadSpec] = None,
                 iterations: int = DEFAULT_ITERATIONS,
                 strategies: Sequence[str] = STRATEGIES,
                 mutations: Sequence[str] = ()):
        self.spec = spec if spec is not None else default_oracle_spec()
        self.iterations = iterations
        self.strategies = tuple(strategies)
        self.mutations = tuple(mutations)
        self._goldens: dict[str, tuple[list[float], list[dict]]] = {}
        #: Simulator events dispatched by runs checked so far (perf
        #: telemetry; golden reference runs are not counted).
        self.events_processed = 0
        #: Checkpoint-store counters summed over runs checked so far
        #: (writes torn, bit rot injected, objects quarantined, ...).
        self.storage_stats: dict[str, int] = {}
        #: Goodput-bucket seconds (exact fractions) summed over runs
        #: checked so far; every bucket of every ledger lands here.
        self.goodput_buckets: dict[str, object] = {b: 0 for b in BUCKETS}
        self._golden_tracers: dict[str, Tracer] = {}
        #: True while :meth:`check` runs its schedule (see :meth:`run`).
        self._checking = False

    def golden(self, strategy: str) -> list[float]:
        """Failure-free loss stream for *strategy*'s workload variant."""
        return self._golden(strategy)[0]

    def golden_state(self, strategy: str) -> list[dict]:
        """Each rank's final state (``strategies.final_state``) in the
        same failure-free run."""
        return self._golden(strategy)[1]

    def _golden(self, strategy: str) -> tuple[list[float], list[dict]]:
        variant = spec_variant(self.spec, strategy)
        key = variant.optimizer
        if key not in self._goldens:
            job = TrainingJob(variant)
            losses = job.run_training(self.iterations)[0]
            self._goldens[key] = (list(losses), [final_state(engine)
                                                 for engine in job.engines])
        return self._goldens[key]

    def golden_tracer(self, strategy: str) -> Tracer:
        """Traced failure-free reference run for flight-recorder diffs.

        Only built on demand (the first invariant failure for a workload
        variant); memoized like the golden loss streams.
        """
        variant = spec_variant(self.spec, strategy)
        key = variant.optimizer
        if key not in self._golden_tracers:
            tracer = Tracer(enabled=True)
            TrainingJob(variant, tracer=tracer).run_training(self.iterations)
            self._golden_tracers[key] = tracer
        return self._golden_tracers[key]

    def run(self, schedule: FailureSchedule, strategy: str) -> StrategyRun:
        """Run *schedule* under *strategy*, fully traced (per-op records
        included: Chrome export, flight dump).

        When :meth:`check` calls it, the run records only what the
        verdict reads (``run_strategy(..., trace_ops=False)``); its
        events, losses and clock are the same either way.
        """
        return run_strategy(strategy, self.spec, schedule, self.iterations,
                            mutations=self.mutations,
                            trace_ops=not self._checking)

    def check(self, schedule: FailureSchedule, strategy: str) -> Verdict:
        self._checking = True
        try:
            run = self.run(schedule, strategy)
        finally:
            self._checking = False
        self.events_processed += run.events
        for holder in (run.store, run.ram):
            for key, count in getattr(holder, "stats", {}).items():
                self.storage_stats[key] = self.storage_stats.get(key, 0) + count
        ledger = build_strategy_ledger(run, self.spec.world_size)
        for bucket, amount in ledger.buckets.items():
            self.goodput_buckets[bucket] = self.goodput_buckets[bucket] + amount
        violations = tuple(check_all(run, self.golden(strategy),
                                     self.golden_state(strategy)))
        replay = self._replay_dump if violations else None
        run.release()
        return Verdict(strategy=strategy, schedule=schedule,
                       outcome=_outcome(run, violations),
                       violations=violations, ledger=ledger,
                       events=run.events, replay=replay)

    def _replay_dump(self, verdict: Verdict) -> str:
        """Flight dump of *verdict*'s check, from a fully traced re-run.

        The re-run is judged like the check; if its outcome, violations,
        event count or ledger differ, the dump's first line says which.
        """
        strategy = verdict.strategy
        run = run_strategy(strategy, self.spec, verdict.schedule,
                           self.iterations, mutations=self.mutations)
        dump = flight_dump(run.tracer, self.golden_tracer(strategy))
        # Judged in the check's order: the ledger closes open spans.
        ledger = build_strategy_ledger(run, self.spec.world_size)
        violations = tuple(check_all(run, self.golden(strategy),
                                     self.golden_state(strategy)))
        again = {"outcome": _outcome(run, violations),
                 "violations": violations, "events": run.events,
                 "ledger": ledger}
        run.release()
        then = {"outcome": verdict.outcome, "violations": verdict.violations,
                "events": verdict.events, "ledger": verdict.ledger}
        differ = [name for name in again if again[name] != then[name]]
        if differ:
            dump = (f"!!! the traced replay did not reproduce the check: "
                    f"{', '.join(differ)} differ\n{dump}")
        return dump

    def check_all(self, schedule: FailureSchedule) -> dict[str, Verdict]:
        return {strategy: self.check(schedule, strategy)
                for strategy in self.strategies}

    def fuzzer(self, seed: int, **kwargs) -> ScheduleFuzzer:
        kwargs.setdefault("world_size", self.spec.world_size)
        kwargs.setdefault("min_iteration", 2)
        kwargs.setdefault("max_iteration", max(3, self.iterations - 5))
        return ScheduleFuzzer(seed, **kwargs)

    def sweep(self, seed: int, count: int,
              strategies: Optional[Sequence[str]] = None,
              shapes: Optional[Sequence[str]] = None,
              include_storage: bool = False,
              progress=None) -> SweepReport:
        """Fuzz *count* schedules; check each against every strategy.

        ``include_storage`` adds the torn-write / bit-rot corruption
        shapes to the draw rotation (opt-in so existing seeded draw
        orders are unchanged); an explicit ``shapes`` list overrides it.
        """
        fuzzer = self.fuzzer(seed, shapes=tuple(shapes) if shapes else None,
                             include_storage=include_storage)
        report = SweepReport(seed=seed, iterations=self.iterations)
        for schedule in fuzzer.schedules(count):
            for strategy in (strategies or self.strategies):
                verdict = self.check(schedule, strategy)
                report.verdicts.append(verdict)
                if progress is not None:
                    progress(verdict)
        return report
