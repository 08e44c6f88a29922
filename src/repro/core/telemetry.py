"""Recovery telemetry: the measurements behind Tables 4-7.

Every recovery (user-level or transparent) appends a
:class:`RecoveryRecord`; per-phase timings use ``begin``/``end`` marks so
benchmarks can reproduce the paper's step breakdown (Table 7).

This module also carries the *simulator's own* performance telemetry:
:class:`SimThroughput` (events dispatched per wall-clock second of one
run) and :class:`CampaignPerf` (throughput plus cache hit-rate across a
:class:`~repro.campaign.runner.CampaignRunner` sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim import Environment


@dataclass
class PhaseSpan:
    name: str
    start: float
    end: Optional[float] = None
    #: True when the span was force-closed at dump time because the run
    #: aborted mid-phase (see :meth:`RecoveryRecord.close_open`).
    aborted: bool = False

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"phase {self.name!r} still open")
        return self.end - self.start


@dataclass
class RecoveryRecord:
    """One failure-to-recovery episode."""

    kind: str                       # "user_level" | "transient" | "hard" | ...
    rank: Optional[int] = None
    detected_at: float = 0.0
    finished_at: Optional[float] = None
    phases: list[PhaseSpan] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def recovery_time(self) -> float:
        if self.finished_at is None:
            raise ValueError("recovery still in progress")
        return self.finished_at - self.detected_at

    def close_open(self, at: float) -> bool:
        """Close still-open phases (and the record) at *at*.

        A run that dies mid-recovery leaves the episode open; reports and
        the goodput ledger close it at dump time with an ``aborted=True``
        note instead of crashing on ``duration``/``recovery_time``.
        Returns True when anything was closed.
        """
        closed = False
        for span in self.phases:
            if span.end is None:
                span.end = max(at, span.start)
                span.aborted = True
                closed = True
        if self.finished_at is None:
            self.finished_at = max(at, self.detected_at)
            self.notes["aborted"] = True
            closed = True
        return closed

    def phase_duration(self, name: str) -> float:
        return sum(span.duration for span in self.phases if span.name == name)

    def breakdown(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.phases:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out


@dataclass(frozen=True)
class SimThroughput:
    """Kernel throughput of one simulation run (wall clock, not sim time)."""

    label: str
    events: int
    wall_seconds: float

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf") if self.events else 0.0
        return self.events / self.wall_seconds


@dataclass
class CampaignPerf:
    """Performance telemetry for one campaign sweep.

    ``runs`` holds one :class:`SimThroughput` per scenario actually
    executed; cache hits contribute to the hit-rate but not to throughput
    (no simulation ran for them).  Neither do ``reused`` rows: cache
    misses the runner answered from its failure-free memo, without
    simulating.
    """

    runs: list[SimThroughput] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    reused: int = 0
    wall_seconds: float = 0.0

    def record_run(self, label: str, events: int, wall_seconds: float) -> None:
        self.runs.append(SimThroughput(label, events, wall_seconds))

    @property
    def total_events(self) -> int:
        return sum(run.events for run in self.runs)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_events_per_sec(self) -> float:
        """Mean per-run throughput (unweighted across executed scenarios)."""
        if not self.runs:
            return 0.0
        return sum(run.events_per_sec for run in self.runs) / len(self.runs)

    def describe(self) -> str:
        executed = len(self.runs)
        return (f"{executed} executed / {self.reused} reused / "
                f"{self.cache_hits} cached "
                f"({100 * self.cache_hit_rate:.0f}% hit rate), "
                f"{self.mean_events_per_sec:,.0f} events/s mean per run")


class RecoveryTelemetry:
    """Collects recovery records for one system instance."""

    def __init__(self, env: Environment):
        self.env = env
        self.records: list[RecoveryRecord] = []
        self._open: dict[int, list[PhaseSpan]] = {}

    def start(self, kind: str, rank: Optional[int] = None) -> RecoveryRecord:
        record = RecoveryRecord(kind=kind, rank=rank, detected_at=self.env.now)
        self.records.append(record)
        return record

    def begin(self, record: RecoveryRecord, phase: str) -> PhaseSpan:
        span = PhaseSpan(phase, self.env.now)
        record.phases.append(span)
        return span

    def end(self, span: PhaseSpan) -> None:
        span.end = self.env.now

    def finish(self, record: RecoveryRecord) -> None:
        record.finished_at = self.env.now

    def close_open(self, at: Optional[float] = None) -> int:
        """Close every still-open record/phase with ``aborted`` marks.

        Dump-time repair for runs that ended mid-recovery; returns the
        number of records touched.
        """
        when = self.env.now if at is None else at
        return sum(1 for record in self.records if record.close_open(when))

    # -- aggregation ----------------------------------------------------------------

    def by_kind(self, kind: str) -> list[RecoveryRecord]:
        return [r for r in self.records if r.kind == kind
                and r.finished_at is not None]

    def mean_recovery_time(self, kind: str) -> float:
        records = self.by_kind(kind)
        if not records:
            raise ValueError(f"no finished recoveries of kind {kind!r}")
        return sum(r.recovery_time for r in records) / len(records)
