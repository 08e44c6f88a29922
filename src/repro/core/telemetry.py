"""Recovery telemetry: the measurements behind Tables 4-7.

Every recovery (user-level or transparent) is one episode on a
:class:`~repro.sim.trace.Tracer`: a span named by its kind (``transient``,
``hard``, ``user_level``, ...) with one nested span per phase, so the
paper's step breakdown (Table 7) is read off the same timeline as every
observability view.  :class:`RecoveryRecord` is the episode's handle.
Episodes go to the run's tracer when it is enabled, else to an enabled
one of the telemetry's own, so untraced runs measure the same numbers.
Each episode has an actor of its own (``recovery/rank<r>#<n>``), so
closing one never closes another's spans, and all its spans carry
``episode=n``.

This module also carries the *simulator's own* performance telemetry:
:class:`SimThroughput` (events dispatched per wall-clock second of one
run) and :class:`CampaignPerf` (throughput plus cache hit-rate across a
:class:`~repro.campaign.runner.CampaignRunner` sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim import Environment
from repro.sim.trace import TraceSpan, Tracer


@dataclass
class RecoveryRecord:
    """One failure-to-recovery episode, read off its tracer spans."""

    kind: str                       # "user_level" | "transient" | "hard" | ...
    rank: Optional[int]
    #: The episode span's open handle (its ``closed`` span once finished).
    episode: Any = field(repr=False)
    notes: dict = field(default_factory=dict)
    #: Phase span handles, in begin order.
    handles: list = field(default_factory=list, repr=False)

    @property
    def detected_at(self) -> float:
        return self.episode.start

    @property
    def finished_at(self) -> Optional[float]:
        closed = self.episode.closed
        return None if closed is None else closed.end

    @property
    def phases(self) -> list[TraceSpan]:
        """Finished phase spans in begin order."""
        spans = []
        for handle in self.handles:
            if handle.closed is None:
                raise ValueError(f"phase {handle.name!r} still open")
            spans.append(handle.closed)
        return spans

    @property
    def recovery_time(self) -> float:
        if self.finished_at is None:
            raise ValueError("recovery still in progress")
        return self.finished_at - self.detected_at

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
    """Records one system's recovery episodes as tracer spans (episodes
    are numbered per telemetry: one telemetry per tracer)."""

    def __init__(self, env: Environment, tracer: Optional[Tracer] = None):
        self.env = env
        self.tracer = (tracer if tracer is not None and tracer.enabled
                       else Tracer())
        self.records: list[RecoveryRecord] = []

    def start(self, kind: str, rank: Optional[int] = None) -> RecoveryRecord:
        episode = len(self.records)
        actor = (f"recovery#{episode}" if rank is None
                 else f"recovery/rank{rank}#{episode}")
        handle = self.tracer.begin_span(self.env.now, actor, kind,
                                        episode=episode)
        record = RecoveryRecord(kind, rank, handle)
        self.records.append(record)
        return record

    def begin(self, record: RecoveryRecord, phase: str):
        """Open a *phase* span under *record*; returns its handle."""
        episode = record.episode
        handle = self.tracer.begin_span(self.env.now, episode.actor, phase,
                                        episode=episode.detail["episode"])
        record.handles.append(handle)
        return handle

    def end(self, handle) -> None:
        self.tracer.end_span(handle, self.env.now)

    def finish(self, record: RecoveryRecord) -> None:
        self.tracer.end_span(record.episode, self.env.now, **record.notes)

    # -- aggregation ----------------------------------------------------------------

    def by_kind(self, kind: str) -> list[RecoveryRecord]:
        return [r for r in self.records if r.kind == kind
                and r.finished_at is not None]

    def mean_recovery_time(self, kind: str) -> float:
        records = self.by_kind(kind)
        if not records:
            raise ValueError(f"no finished recoveries of kind {kind!r}")
        return sum(r.recovery_time for r in records) / len(records)
