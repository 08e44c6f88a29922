"""GoodPut/BadPut ledger: classify every simulated second of a run.

The paper's evaluation is a time-accounting argument (§5's wasted-work
equations, Tables 4–7's recovery breakdowns), so the ledger makes the
accounting *literal*: every ``(rank, instant)`` of a strategy run lands
in exactly one of five buckets —

``productive``
    first successful execution of an iteration (§5's useful work);
``detection``
    from failure injection until recovery/restart machinery engages
    (§5's detection term, the watchdog/hang-monitor window);
``rework``
    re-execution of work already done once — replayed minibatches for
    the transparent family, post-restart re-runs of checkpointed
    iterations for the managed family (§5's wasted-work ``w_f`` term);
``restart``
    recovery machinery itself: comm/handle re-creation, checkpoint
    write/restore phases, process restart and re-initialisation
    (§5's restart term);
``idle``
    everything else — initial startup, checkpoint stalls, scheduling
    gaps between iterations.

The accounting **identity** is structural, not statistical: buckets are
built as a priority-clipped partition of ``[0, wall] × ranks`` and summed
as exact :class:`fractions.Fraction` values of the float timestamps, so

    productive + detection + rework + restart + idle == wall × ranks

holds *bitwise*, for every strategy, or the builder has a bug.  Tests
assert it across all six strategies and the oracle's schedule shapes.

Interval sources (all already recorded by the run, nothing here touches
the hot path):

* iteration spans per rank (``Tracer.begin_span``/``end_span`` from the
  device-API minibatch hooks);
* recovery episode spans and their phase spans (transparent family and
  user-level checkpoints, recorded by
  :class:`~repro.core.telemetry.RecoveryTelemetry` whether or not the
  ``obs`` switch is on) — ``replay`` phases are rework, every other
  phase is restart, the unphased remainder is detection;
* the failure injector's trace events (detection onset);
* :class:`~repro.cluster.manager.GenerationRecord` boundaries (managed
  restarts).

Stronger classifications clip weaker ones: a recovery episode overlaps
the iteration it interrupted (the blocked CPU finishes the minibatch
*after* recovery), and the episode wins the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

BUCKETS = ("productive", "detection", "rework", "restart", "idle")

#: Priority levels (smaller = stronger; ties broken by insertion order,
#: later wins).
_P_RECOVERY_PHASE = 0
_P_RECOVERY_EPISODE = 1
_P_DETECTION = 2
_P_RESTART = 3
_P_ITERATION = 4

#: Recovery phases that re-execute lost work (everything else a recovery
#: does — comms/handle re-creation, checkpoint, migrate, restore — is
#: restart cost).
_REWORK_PHASES = ("replay",)


@dataclass(frozen=True)
class GoodputLedger:
    """Exact per-bucket time totals for one run (summed across ranks)."""

    strategy: str
    ranks: int
    wall_time: float
    buckets: dict[str, Fraction]

    @property
    def total(self) -> Fraction:
        return sum(self.buckets.values(), Fraction(0))

    @property
    def expected(self) -> Fraction:
        return Fraction(self.wall_time) * self.ranks

    @property
    def balanced(self) -> bool:
        """The accounting identity: buckets sum to wall-clock × ranks."""
        return self.total == self.expected

    @property
    def goodput_fraction(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return float(self.buckets["productive"] / total)

    @property
    def badput_fraction(self) -> float:
        """Detection + rework + restart (the §5 wasted-work terms)."""
        total = self.total
        if total == 0:
            return 0.0
        wasted = (self.buckets["detection"] + self.buckets["rework"]
                  + self.buckets["restart"])
        return float(wasted / total)

    def to_metrics(self, prefix: str = "goodput_") -> dict[str, float]:
        """Deterministic float metrics for campaign aggregation."""
        out = {f"{prefix}{name}_seconds": float(self.buckets[name])
               for name in BUCKETS}
        out[f"{prefix}fraction"] = self.goodput_fraction
        out[f"{prefix}badput_fraction"] = self.badput_fraction
        out[f"{prefix}wall_seconds"] = self.wall_time
        out[f"{prefix}balanced"] = 1.0 if self.balanced else 0.0
        return out

    def describe(self) -> str:
        parts = [f"{name}={float(self.buckets[name]):.3f}s"
                 for name in BUCKETS]
        check = "exact" if self.balanced else "IMBALANCED"
        return (f"{self.strategy:<12} goodput={100 * self.goodput_fraction:5.1f}%  "
                + "  ".join(parts)
                + f"  (identity {check}, wall={self.wall_time:.3f}s x {self.ranks})")


def merge_buckets(ledgers: Iterable[GoodputLedger]) -> dict[str, Fraction]:
    """Sum bucket totals across runs (campaign-grid aggregation)."""
    totals = {name: Fraction(0) for name in BUCKETS}
    for ledger in ledgers:
        for name in BUCKETS:
            totals[name] += ledger.buckets[name]
    return totals


class _Segment:
    __slots__ = ("start", "end", "priority", "order", "bucket", "kind")

    def __init__(self, start: float, end: float, priority: int, order: int,
                 bucket: str, kind: Optional[str] = None):
        self.start = start
        self.end = end
        self.priority = priority
        self.order = order
        self.bucket = bucket
        #: Failure-type attribution (injector event kind / recovery episode
        #: kind) for the metrics bridge; ``None`` for iteration segments.
        self.kind = kind


class _Counter:
    """Monotonic insertion-order source for segment tie-breaking."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def next(self) -> int:
        self.value += 1
        return self.value


def _iteration_spans_by_rank(run) -> dict[str, list]:
    spans: dict[str, list] = {}
    for span in run.tracer.filter_spans(name="iteration"):
        spans.setdefault(span.actor, []).append(span)
    for actor_spans in spans.values():
        actor_spans.sort(key=lambda s: (s.start, s.end))
    return spans


def _iteration_segments(spans_by_rank: dict[str, list],
                        order: _Counter) -> dict[str, list[_Segment]]:
    """Per-rank iteration spans: first completion productive, repeats rework."""
    segments: dict[str, list[_Segment]] = {}
    for actor in sorted(spans_by_rank):
        best = -1
        out = []
        for span in spans_by_rank[actor]:
            iteration = span.detail.get("iteration", -1)
            if span.detail.get("aborted"):
                bucket = "rework"       # died mid-iteration: work is lost
            elif iteration > best:
                bucket = "productive"
                best = iteration
            else:
                bucket = "rework"       # re-run of an already-done iteration
            out.append(_Segment(span.start, span.end, _P_ITERATION,
                                order.next(), bucket))
        segments[actor] = out
    return segments


def _recovery_episodes(tracer) -> list[tuple]:
    """``(episode span, its phase spans)`` per recovery episode, in start order.

    :class:`~repro.core.telemetry.RecoveryTelemetry` numbers its episodes
    in every span's ``episode`` detail and gives each an actor of its
    own: the episode span at depth 0, its phases nested below, closed in
    begin order.
    """
    episodes: dict[int, object] = {}
    phases: dict[int, list] = {}
    for span in tracer.spans:
        number = span.detail.get("episode")
        if number is None:
            continue
        if span.depth == 0:
            episodes[number] = span
        else:
            phases.setdefault(number, []).append(span)
    return [(episodes[number], phases.get(number, []))
            for number in sorted(episodes)]


def _recovery_segments(episodes: list[tuple],
                       order: _Counter) -> list[_Segment]:
    """Recovery episodes: phases (rework/restart) over a detection base.

    Recovery blocks the whole job (the coordinator quiesces every rank;
    a user-level hang stalls every replica at the collective), so these
    segments apply to all ranks.
    """
    segments: list[_Segment] = []
    for episode, phases in episodes:
        segments.append(_Segment(episode.start, episode.end,
                                 _P_RECOVERY_EPISODE, order.next(),
                                 "detection", kind=episode.name))
        for phase in phases:
            bucket = ("rework" if phase.name in _REWORK_PHASES else "restart")
            segments.append(_Segment(phase.start, phase.end,
                                     _P_RECOVERY_PHASE, order.next(), bucket,
                                     kind=episode.name))
    return segments


def _detection_segments(run, episodes: list[tuple], wall: float,
                        order: _Counter) -> list[_Segment]:
    """Failure injection → machinery engagement: the detection window."""
    segments: list[_Segment] = []
    detected_ats = sorted(episode.start for episode, _ in episodes)
    generations = list(getattr(run, "generations", ()) or ())
    for event in run.tracer.filter(actor="injector", action="failure"):
        onset = event.time
        end: Optional[float] = None
        for at in detected_ats:
            if at >= onset:
                end = at
                break
        if end is None:
            for gen in generations:
                gen_end = gen.end_time if gen.end_time is not None else wall
                if gen.start_time <= onset <= gen_end:
                    end = gen_end
                    break
        if end is None or end <= onset:
            continue        # absorbed failure (e.g. transient link blip)
        segments.append(_Segment(onset, end, _P_DETECTION, order.next(),
                                 "detection",
                                 kind=event.detail.get("kind")))
    return segments


def _restart_segments(run, ranks: int, wall: float, order: _Counter,
                      spans_by_rank: dict[str, list]) -> dict[int, list[_Segment]]:
    """Managed-family restarts: generation boundary → first new iteration.

    Generation 0's startup (process/framework/data init) is *idle*, not
    restart — it happens in a failure-free run too, which is what keeps
    golden runs at zero restart time.
    """
    segments: dict[int, list[_Segment]] = {rank: [] for rank in range(ranks)}
    generations = list(getattr(run, "generations", ()) or ())
    if len(generations) < 2:
        return segments
    failures = run.tracer.filter(actor="injector", action="failure")
    for index in range(1, len(generations)):
        prev_end = generations[index - 1].end_time
        gen = generations[index]
        if prev_end is None:
            prev_end = gen.start_time
        gen_end = gen.end_time if gen.end_time is not None else wall
        # The failure this restart recovers from: the last one injected
        # before the new generation came up (metrics-bridge attribution).
        kind = next((e.detail.get("kind") for e in reversed(failures)
                     if e.time <= gen.start_time), None)
        for rank in range(ranks):
            spans = spans_by_rank.get(f"rank{rank}", [])
            first = next((s.start for s in spans
                          if s.start >= gen.start_time), None)
            end = first if first is not None else gen_end
            if end <= prev_end:
                continue
            segments[rank].append(_Segment(prev_end, end, _P_RESTART,
                                           order.next(), "restart",
                                           kind=kind))
    return segments


class ClassifiedInterval:
    """One partition cell of a rank's timeline: who won it, and why."""

    __slots__ = ("start", "end", "bucket", "kind", "segment_id")

    def __init__(self, start: Fraction, end: Fraction, bucket: str,
                 kind: Optional[str], segment_id: int):
        self.start = start
        self.end = end
        self.bucket = bucket
        self.kind = kind
        #: Winning segment's insertion order (0 for idle gaps) — intervals
        #: sharing a ``segment_id`` are fragments of one clipped segment.
        self.segment_id = segment_id

    @property
    def length(self) -> Fraction:
        return self.end - self.start


def _partition_rank(segments: list[_Segment],
                    wall: Fraction) -> list[ClassifiedInterval]:
    """Partition [0, wall] by strongest covering segment; gaps are idle."""
    if wall <= 0:
        return []
    clipped = []
    points = {Fraction(0), wall}
    for seg in segments:
        start = max(Fraction(0), min(Fraction(seg.start), wall))
        end = max(Fraction(0), min(Fraction(seg.end), wall))
        if end <= start:
            continue
        clipped.append((start, end, seg.priority, seg.order, seg))
        points.add(start)
        points.add(end)
    boundaries = sorted(points)
    intervals: list[ClassifiedInterval] = []
    for left, right in zip(boundaries, boundaries[1:]):
        winner = None
        for start, end, priority, seg_order, seg in clipped:
            if start <= left and end >= right:
                key = (priority, -seg_order)
                if winner is None or key < winner[0]:
                    winner = (key, seg)
        if winner is None:
            intervals.append(ClassifiedInterval(left, right, "idle", None, 0))
        else:
            seg = winner[1]
            intervals.append(ClassifiedInterval(left, right, seg.bucket,
                                                seg.kind, seg.order))
    return intervals


@dataclass(frozen=True)
class ResumeGap:
    """Episode end → the rank is back inside an iteration (Table 7's
    restart→resume phase).  Zero for in-place (transparent-family)
    recovery, where the blocked minibatch simply continues."""

    kind: Optional[str]
    rank: int
    start: float
    seconds: Fraction


@dataclass
class RunClassification:
    """The ledger's intermediate representation, exposed for the metrics
    bridge: per-rank classified intervals plus per-episode resume gaps.

    ``rank_buckets`` sums each rank's intervals;
    :func:`build_strategy_ledger` totals them, so anything derived from
    ``rank_intervals`` (the bridge's goodput counters and phase
    histograms) reconciles with the ledger **bitwise by construction** —
    same partition, same Fractions, not a parallel re-implementation.
    """

    strategy: str
    ranks: int
    wall_time: float
    rank_intervals: dict[int, list[ClassifiedInterval]]
    resume_gaps: list[ResumeGap]

    @property
    def rank_buckets(self) -> dict[int, dict[str, Fraction]]:
        out: dict[int, dict[str, Fraction]] = {}
        for rank, intervals in self.rank_intervals.items():
            buckets = {name: Fraction(0) for name in BUCKETS}
            for interval in intervals:
                buckets[interval.bucket] += interval.length
            out[rank] = buckets
        return out

    def totals(self) -> dict[str, Fraction]:
        totals = {name: Fraction(0) for name in BUCKETS}
        for buckets in self.rank_buckets.values():
            for name in BUCKETS:
                totals[name] += buckets[name]
        return totals


def _next_iteration_gap(spans: list, at: float, wall: float) -> Fraction:
    """Seconds from *at* until the rank *starts* its next iteration.

    Spans already running at *at* do not count: the iteration a recovery
    interrupted stays open across the whole episode (its blocked CPU only
    finishes the minibatch afterwards), so "covered by a span" holds for
    every episode end and would make each gap vacuously zero.  Resuming
    means beginning the next iteration, so only spans starting at or
    after *at* qualify; a rank that never iterates again gaps to the
    wall.
    """
    for span in spans:
        if span.start >= at:
            return Fraction(span.start) - Fraction(at)
    return Fraction(wall) - Fraction(at) if wall > at else Fraction(0)


def _resume_gaps(run, episodes: list[tuple], ranks: int, wall: float,
                 spans_by_rank: dict[str, list]) -> list[ResumeGap]:
    """Per-episode, per-rank restart→resume gaps (never clipped: this is
    the one Table 7 phase the bucket partition has no dedicated bucket
    for — the time lands in idle/productive — so it is measured from the
    same episode sources instead)."""
    gaps: list[ResumeGap] = []
    for episode, _ in episodes:
        for rank in range(ranks):
            spans = spans_by_rank.get(f"rank{rank}", [])
            gaps.append(ResumeGap(episode.name, rank, episode.end,
                                  _next_iteration_gap(spans, episode.end,
                                                      wall)))
    generations = list(getattr(run, "generations", ()) or ())
    if len(generations) >= 2:
        failures = run.tracer.filter(actor="injector", action="failure")
        for gen in generations[1:]:
            kind = next((e.detail.get("kind") for e in reversed(failures)
                         if e.time <= gen.start_time), None)
            for rank in range(ranks):
                spans = spans_by_rank.get(f"rank{rank}", [])
                gaps.append(ResumeGap(kind, rank, gen.start_time,
                                      _next_iteration_gap(spans,
                                                          gen.start_time,
                                                          wall)))
    return gaps


def classify_run(run, ranks: int,
                 wall_time: Optional[float] = None) -> RunClassification:
    """Classify a strategy run into per-rank labelled intervals.

    This is the single source both :func:`build_strategy_ledger` and the
    metrics bridge (:mod:`repro.obs.metrics.bridge`) consume: the ledger
    sums interval lengths per bucket, the bridge additionally reads each
    interval's failure-kind attribution and segment identity.
    """
    wall = wall_time if wall_time is not None else getattr(run, "wall_time", 0.0)
    run.tracer.close_open_spans(wall)
    episodes = _recovery_episodes(run.tracer)

    order = _Counter()
    shared: list[_Segment] = []     # apply to every rank (cluster-wide)
    shared += _recovery_segments(episodes, order)
    shared += _detection_segments(run, episodes, wall, order)

    spans_by_rank = _iteration_spans_by_rank(run)
    restart_by_rank = _restart_segments(run, ranks, wall, order, spans_by_rank)
    iteration_by_rank = _iteration_segments(spans_by_rank, order)

    wall_fraction = Fraction(wall)
    rank_intervals: dict[int, list[ClassifiedInterval]] = {}
    for rank in range(ranks):
        segments = list(shared)
        segments += restart_by_rank.get(rank, [])
        segments += iteration_by_rank.get(f"rank{rank}", [])
        rank_intervals[rank] = _partition_rank(segments, wall_fraction)
    return RunClassification(
        strategy=run.strategy, ranks=ranks, wall_time=wall,
        rank_intervals=rank_intervals,
        resume_gaps=_resume_gaps(run, episodes, ranks, wall, spans_by_rank))


def build_strategy_ledger(run, ranks: int,
                          wall_time: Optional[float] = None) -> GoodputLedger:
    """Classify a :class:`~repro.oracle.strategies.StrategyRun` into buckets.

    *ranks* is the workload's world size; *wall_time* defaults to the
    run's recorded ``wall_time`` (``env.now`` when the run ended).  Open
    trace spans (a run that aborted mid-recovery) are closed at the wall
    with ``aborted`` marks before classification.
    """
    classification = classify_run(run, ranks, wall_time=wall_time)
    return GoodputLedger(strategy=run.strategy, ranks=ranks,
                         wall_time=classification.wall_time,
                         buckets=classification.totals())
