"""Post-run projections: strategy runs into registry families.

Nothing in the simulator feeds a registry while it runs.  Every family
is projected here, after the run, from artefacts the run already
produced, so collecting metrics can never change a run's events, losses
or clock:

* storage latency/bytes/commits/quarantines, failure counts and
  rendezvous skew come from the run's :class:`~repro.sim.Tracer`
  records (:func:`record_trace`), replayed in time order and sampled at
  each multiple of the registry's interval;
* goodput and recovery-phase families come from the goodput ledger's own
  classification (:func:`record_strategy_run`);
* campaign cache and utilization families come from
  :class:`~repro.core.telemetry.CampaignPerf` (:func:`record_campaign_perf`).

The goodput ledger and the metrics layer must *agree* — a dashboard
whose detection-latency panel disagrees with the ledger's detection
bucket is worse than no dashboard.  So the bridge does not re-derive
anything: it consumes the ledger's own intermediate representation
(:func:`repro.obs.ledger.classify_run`'s per-rank classified intervals)
and feeds the registry from it with exact ``Fraction`` arithmetic.  Two
bitwise identities follow by construction, and
``tests/obs/test_metrics_consistency.py`` pins both across all six
strategies:

* ``repro_goodput_seconds`` summed over ``(rank, bucket)`` equals
  :func:`~repro.obs.ledger.build_strategy_ledger`'s buckets exactly;
* the failure→detection and detection→restart histograms' exact sums,
  totalled across failure types, equal the ledger's ``detection`` and
  ``restart`` buckets exactly (each observation is one clipped episode
  segment's per-rank contribution).

The restart→resume histogram has no dedicated ledger bucket (that time
is classified idle/productive); it is measured from the same episode
sources (:class:`~repro.obs.ledger.ResumeGap`) and is zero for in-place
transparent-family recovery by design.
"""

from __future__ import annotations

from fractions import Fraction

from repro.obs.ledger import BUCKETS, classify_run
from repro.obs.metrics.registry import Histogram, MetricsRegistry
from repro.obs.metrics.store import (DEFAULT_SCRAPE_INTERVAL,
                                     TimeSeriesStore, sample_registry)
from repro.sim.trace import TraceEvent, Tracer

#: Label used when a segment carries no failure-type attribution.
UNATTRIBUTED = "unattributed"

#: Phase-histogram bounds: detection windows are sub-second to tens of
#: seconds; restart/resume run seconds to minutes on restart-based
#: strategies.
PHASE_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 40.0,
                 80.0, 160.0, 320.0)

#: Iteration-duration bounds (minibatches are ~0.05 s in oracle specs,
#: seconds in the calibrated workloads).
ITERATION_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                     10.0, 30.0)

#: The ledger buckets each phase histogram must reconcile with.
PHASE_TO_BUCKET = {"detection": "detection", "restart": "restart"}

#: Storage latency bounds: object writes/reads span sub-millisecond
#: manifest blobs to multi-second checkpoint shards.
STORAGE_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Rendezvous skew bounds: per-rank waits are usually well under one
#: iteration, but a hung peer shows up as the +Inf bucket.
RENDEZVOUS_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1,
                      0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


# -- trace records ------------------------------------------------------------

#: Timed storage transfers: trace action -> (latency histogram, bytes
#: counter), each as ``(name, help)``.
_STORE_TRANSFERS = {
    "store_write": (("repro_storage_write_seconds",
                     "completed object-write latency"),
                    ("repro_storage_written_bytes",
                     "payload bytes of completed writes")),
    "store_read": (("repro_storage_read_seconds", "object-read latency"),
                   ("repro_storage_read_bytes",
                    "payload bytes of completed reads")),
}

#: Counted storage events: trace action -> ``(name, help)``.
_STORE_COUNTS = {
    "store_commit": ("repro_storage_commits", "atomic rename publishes"),
    "store_quarantine": ("repro_storage_quarantined",
                         "objects moved to the quarantine namespace"),
}

_STORE_LABELS = ("strategy", "store")


def _observed(event: TraceEvent) -> bool:
    action = event.action
    return (action in _STORE_TRANSFERS or action in _STORE_COUNTS
            or action == "collective_launch"
            or (action == "failure" and event.actor == "injector"))


def _observe(registry: MetricsRegistry, strategy: str,
             event: TraceEvent) -> None:
    """Feed one trace record into the family it derives."""
    action, detail = event.action, event.detail
    if action in _STORE_TRANSFERS:
        latency, size = _STORE_TRANSFERS[action]
        labels = (strategy, event.actor)
        registry.histogram(*latency, _STORE_LABELS, buckets=STORAGE_BUCKETS
                           ).labels(*labels).observe(
            event.time - detail["started"])
        registry.counter(*size, _STORE_LABELS).labels(*labels).inc(
            detail["nbytes"])
    elif action in _STORE_COUNTS:
        registry.counter(*_STORE_COUNTS[action], _STORE_LABELS).labels(
            strategy, event.actor).inc()
    elif action == "failure":
        registry.counter("repro_failures_injected",
                         "failures applied by the injector",
                         ("strategy", "kind", "target")).labels(
            strategy, detail["kind"], detail["target"]).inc()
    else:   # collective_launch: one wait per rank, then the launch
        waits = registry.histogram(
            "repro_nccl_rendezvous_wait_seconds",
            "per-rank wait at collective rendezvous", ("strategy", "kind"),
            buckets=RENDEZVOUS_BUCKETS).labels(strategy, detail["kind"])
        for wait in detail["waits"].values():
            waits.observe(wait)
        registry.counter("repro_nccl_collectives_launched",
                         "collectives whose rendezvous completed",
                         ("strategy", "kind")).labels(
            strategy, detail["kind"]).inc()


def record_trace(registry: MetricsRegistry, tracer: Tracer, strategy: str,
                 until: float) -> TimeSeriesStore:
    """Derive the storage, failure and rendezvous families from *tracer*.

    Records replay in time order.  Before the first record later than
    each multiple of the registry's interval, and at every multiple
    still below *until*, one :func:`sample_registry` snapshot lands in
    ``registry.timeseries`` at that instant (a sample at *t* sees every
    record up to and including *t*).  The caller adds its own post-run
    families and then takes the closing sample at *until*.
    """
    store = registry.timeseries
    if store is None:
        store = registry.timeseries = TimeSeriesStore()
    interval = registry.scrape_interval
    if not interval or interval <= 0:
        interval = DEFAULT_SCRAPE_INTERVAL
    observed = sorted(filter(_observed, tracer.events),
                      key=lambda event: event.time)
    tick = 0
    for event in observed:
        while tick * interval < event.time:
            sample_registry(registry, store, tick * interval)
            tick += 1
        _observe(registry, strategy, event)
    while tick * interval < until:
        sample_registry(registry, store, tick * interval)
        tick += 1
    return store


def record_run(registry: MetricsRegistry, run, ranks: int) -> None:
    """Every family of one strategy run, sampled over its timeline.

    The trace-derived families replay first; the ledger and kernel-total
    families exist only once the run is over, so they land at its end,
    just before the closing sample at ``run.wall_time``.
    """
    store = record_trace(registry, run.tracer, run.strategy, run.wall_time)
    record_strategy_run(registry, run, ranks)
    record_run_environment(registry, run)
    sample_registry(registry, store, run.wall_time)


def _phase_histograms(registry: MetricsRegistry) -> dict[str, Histogram]:
    return {
        "detection": registry.histogram(
            "repro_failure_detection_seconds",
            "failure onset to recovery machinery engaging, per rank",
            ("strategy", "failure_type"), buckets=PHASE_BUCKETS),
        "restart": registry.histogram(
            "repro_recovery_restart_seconds",
            "recovery machinery runtime (comm/handle re-creation, "
            "checkpoint restore, process restart), per rank",
            ("strategy", "failure_type"), buckets=PHASE_BUCKETS),
        "resume": registry.histogram(
            "repro_recovery_resume_seconds",
            "recovery end until the rank is training again, per rank",
            ("strategy", "failure_type"), buckets=PHASE_BUCKETS),
    }


def record_strategy_run(registry: MetricsRegistry, run, ranks: int) -> None:
    """Feed one strategy run's ledger classification into *registry*."""
    cls = classify_run(run, ranks)
    strategy = cls.strategy

    goodput = registry.counter(
        "repro_goodput_seconds",
        "ledger-classified rank-seconds (bitwise vs GoodputLedger)",
        ("strategy", "rank", "bucket"))
    wall = registry.counter(
        "repro_run_wall_seconds", "simulated wall clock, summed over runs",
        ("strategy",))
    runs = registry.counter("repro_runs", "strategy runs recorded",
                            ("strategy", "outcome"))
    iteration = registry.histogram(
        "repro_iteration_seconds", "per-rank iteration span durations",
        ("strategy", "rank"), buckets=ITERATION_BUCKETS)
    phases = _phase_histograms(registry)

    for rank in sorted(cls.rank_intervals):
        intervals = cls.rank_intervals[rank]
        bucket_sums = {name: Fraction(0) for name in BUCKETS}
        # One clipped segment may surface as several partition cells;
        # per-rank fragments of the same segment are one episode-phase
        # observation, so histogram counts stay per-episode.
        phase_sums: dict[str, dict[tuple[int, str], Fraction]] = {
            "detection": {}, "restart": {}}
        for interval in intervals:
            bucket_sums[interval.bucket] += interval.length
            if interval.bucket in phase_sums:
                kind = interval.kind if interval.kind else UNATTRIBUTED
                key = (interval.segment_id, kind)
                sums = phase_sums[interval.bucket]
                sums[key] = sums.get(key, Fraction(0)) + interval.length
        for name in BUCKETS:
            if bucket_sums[name]:
                goodput.labels(strategy=strategy, rank=str(rank),
                               bucket=name).inc(bucket_sums[name])
        for phase, sums in phase_sums.items():
            histogram = phases[phase]
            for (_segment_id, kind), seconds in sorted(sums.items()):
                histogram.labels(strategy=strategy,
                                 failure_type=kind).observe(seconds)

    for gap in cls.resume_gaps:
        kind = gap.kind if gap.kind else UNATTRIBUTED
        phases["resume"].labels(strategy=strategy,
                                failure_type=kind).observe(gap.seconds)

    for span in run.tracer.filter_spans(name="iteration"):
        iteration.labels(strategy=strategy,
                         rank=span.actor).observe(span.duration)

    wall.labels(strategy=strategy).inc(Fraction(cls.wall_time) * ranks)
    runs.labels(strategy=strategy, outcome=run.outcome).inc()


def record_run_environment(registry: MetricsRegistry, run) -> None:
    """Kernel totals of one strategy run: dispatched vs credited events."""
    processed = registry.counter(
        "repro_sim_events_dispatched", "real heap dispatches",
        ("strategy",))
    credited = registry.counter(
        "repro_sim_events_credited",
        "logical events elided by the macro-event fast path",
        ("strategy",))
    processed.labels(strategy=run.strategy).inc(
        run.events - run.events_credited)
    credited.labels(strategy=run.strategy).inc(run.events_credited)


def record_campaign_perf(registry: MetricsRegistry, perf,
                         workers: int) -> None:
    """Campaign rollup from :class:`repro.core.telemetry.CampaignPerf`."""
    registry.counter("repro_campaign_cache_hits",
                     "scenario results served from the content-hash "
                     "result cache").inc(perf.cache_hits)
    registry.counter("repro_campaign_cache_misses",
                     "scenario results the result cache did not hold"
                     ).inc(perf.cache_misses)
    registry.counter("repro_campaign_reused",
                     "cache misses answered from the runner's "
                     "failure-free memo, without simulating"
                     ).inc(perf.reused)
    registry.gauge("repro_campaign_cache_hit_rate",
                   "result-cache hit fraction for the last campaign"
                   ).set(perf.cache_hit_rate)
    registry.gauge("repro_campaign_workers",
                   "worker slots the campaign ran with").set(workers)
    wall = perf.wall_seconds
    busy = sum(run.wall_seconds for run in perf.runs)
    utilization = (busy / (workers * wall)
                   if workers > 0 and wall > 0 else 0.0)
    registry.gauge("repro_campaign_worker_utilization",
                   "scenario-busy fraction of worker*wall capacity"
                   ).set(min(1.0, utilization))
    registry.gauge("repro_campaign_wall_seconds",
                   "real seconds the last campaign took").set(wall)
    registry.counter("repro_campaign_scenarios",
                     "scenario runs simulated").inc(len(perf.runs))


def goodput_buckets_from_registry(registry: MetricsRegistry,
                                  strategy: str) -> dict[str, Fraction]:
    """Reconstruct a strategy's ledger buckets from the goodput counter."""
    totals = {name: Fraction(0) for name in BUCKETS}
    family = registry.get("repro_goodput_seconds")
    if family is None:
        return totals
    for labels, child in family.children():
        values = family.label_dict(labels)
        if values["strategy"] == strategy:
            totals[values["bucket"]] += child.exact
    return totals


def goodput_buckets_from_store(store: TimeSeriesStore,
                               strategy: str) -> dict[str, Fraction]:
    """Reconstruct ledger buckets from a sampled time-series store.

    Counters are cumulative, so the *last* sample of each
    ``repro_goodput_seconds`` series is its total; values stay exact
    because the store keeps the registry's ``Fraction`` objects.
    """
    totals = {name: Fraction(0) for name in BUCKETS}
    for series in store.series("repro_goodput_seconds"):
        labels = series.label_dict()
        if labels["strategy"] == strategy and series.last is not None:
            totals[labels["bucket"]] += series.last
    return totals


def phase_seconds_from_registry(registry: MetricsRegistry, strategy: str,
                                phase: str) -> Fraction:
    """Exact total seconds in a phase histogram, across failure types."""
    names = {"detection": "repro_failure_detection_seconds",
             "restart": "repro_recovery_restart_seconds",
             "resume": "repro_recovery_resume_seconds"}
    family = registry.get(names[phase])
    total = Fraction(0)
    if family is None:
        return total
    for labels, child in family.children():
        if family.label_dict(labels)["strategy"] == strategy:
            total += child.exact_sum
    return total
