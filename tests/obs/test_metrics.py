"""Unit tests for the Prometheus-style metrics pipeline.

Covers the registry primitives (label handling, exactness, conflict
detection), the ``collecting``/``active`` gating under ``REPRO_OBS``,
the simulated-time scraper's determinism and self-stop, the OpenMetrics
and JSON exporters, the rolling z-score straggler detector, and the
static dashboard builder.
"""

import json
import math
from fractions import Fraction

import pytest

from repro import flags
from repro.obs.metrics import (MetricsRegistry, SimScraper, TimeSeriesStore,
                               active, collecting, openmetrics_text,
                               registry_json, sample_registry)
from repro.obs.metrics.dashboard import (build_dashboard, counter_total,
                                         filter_snapshot, snapshot)
from repro.obs.metrics.straggler import RollingStats, StragglerDetector
from repro.sim import Environment


# --- registry primitives -------------------------------------------------

def test_counter_is_exact_and_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("repro_test_total_seconds", "t", ("k",))
    child = c.labels(k="a")
    child.inc(Fraction(1, 3))
    child.inc(Fraction(1, 6))
    assert child.exact == Fraction(1, 2)
    assert child.value == pytest.approx(0.5)
    with pytest.raises(ValueError, match="only go up"):
        child.inc(-1)


def test_gauge_set_inc_dec_and_callback():
    reg = MetricsRegistry()
    g = reg.gauge("repro_test_depth", "t")
    g.set(4)
    g.dec(1)
    g.inc(2)
    assert g.value == 5.0
    backing = [7.0]
    g.set_function(lambda: backing[0])
    backing[0] = 9.0
    assert g.value == 9.0


def test_histogram_buckets_quantile_and_exact_sum():
    reg = MetricsRegistry()
    h = reg.histogram("repro_test_latency", "t", ("k",),
                      buckets=(0.1, 1.0, 10.0))
    child = h.labels(k="x")
    # Binary-exact inputs so the Fraction sum has no rounding slack.
    for v in (0.25, 0.5, 0.5, 4.0):
        child.observe(v)
    assert child.count == 4
    assert child.exact_sum == Fraction(21, 4)
    cumulative = dict(child.cumulative())
    assert cumulative[0.1] == 0
    assert cumulative[1.0] == 3
    assert cumulative[10.0] == 4
    assert cumulative[math.inf] == 4
    assert child.quantile(0.5) <= 1.0
    assert child.mean == pytest.approx(21 / 16)
    with pytest.raises(ValueError, match="quantile"):
        child.quantile(1.5)


def test_histogram_rejects_bad_bounds():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="at least one bucket"):
        reg.histogram("repro_test_empty", "t", buckets=())
    with pytest.raises(ValueError, match="duplicate"):
        reg.histogram("repro_test_dup", "t", buckets=(1.0, 1.0))


def test_label_validation_and_family_conflicts():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="invalid metric name"):
        reg.counter("bad name", "t")
    c = reg.counter("repro_test_events", "t", ("kind",))
    with pytest.raises(ValueError, match="expected labels"):
        c.labels()
    with pytest.raises(ValueError, match="missing label"):
        c.labels(wrong="x")
    with pytest.raises(ValueError, match="unknown labels"):
        c.labels(kind="x", extra="y")
    # Same labels -> same child (get-or-create), however they are passed.
    assert c.labels(kind="x") is c.labels("x")
    with pytest.raises(ValueError, match="already registered as"):
        reg.gauge("repro_test_events", "t", ("kind",))
    with pytest.raises(ValueError, match="already registered with labels"):
        reg.counter("repro_test_events", "t", ("other",))


def test_labelless_family_requires_no_labels():
    reg = MetricsRegistry()
    c = reg.counter("repro_test_plain", "t")
    c.inc(3)
    assert c.exact == Fraction(3)
    labelled = reg.counter("repro_test_kinds", "t", ("kind",))
    with pytest.raises(ValueError, match="requires labels"):
        labelled.inc()


# --- gating --------------------------------------------------------------

def test_collecting_installs_only_when_observability_enabled():
    with flags.override(obs=False):
        with collecting() as reg:
            assert active() is None
            assert reg.collect() == []
    with flags.override(obs=True):
        with collecting(scrape_interval=2.0) as reg:
            assert active() is reg
            assert reg.scrape_interval == 2.0
        assert active() is None


def test_collecting_restores_previous_registry():
    with flags.override(obs=True):
        with collecting() as outer:
            with collecting() as inner:
                assert active() is inner
            assert active() is outer


# --- scraper + store -----------------------------------------------------

def _ticking_env(reg, duration=5):
    env = Environment()

    def workload():
        c = reg.counter("repro_test_ticks", "t")
        for _ in range(duration):
            yield env.timeout(1.0)
            c.inc()
    env.process(workload(), name="workload")
    return env


def test_sim_scraper_samples_on_cadence_and_self_stops():
    reg = MetricsRegistry()
    env = _ticking_env(reg)
    scraper = SimScraper(env, reg, interval=1.0).start()
    env.run()
    # The scraper must not keep the simulation alive past the workload:
    # it bows out at the first wake-up that finds nothing else scheduled,
    # so the overshoot is bounded by one scrape interval.
    assert env.now <= 5.0 + scraper.interval
    series = reg.timeseries.series("repro_test_ticks")
    assert len(series) == 1
    # Cumulative counter samples are monotone non-decreasing.
    values = [value for _, value in series[0].samples]
    assert values == sorted(values)
    # The family is created mid-run, so it can have fewer samples than
    # the scraper took in total — never more.
    assert len(series[0].samples) <= scraper.scrapes
    assert series[0].last == Fraction(5)


def test_sim_scraper_is_deterministic():
    def run_once():
        reg = MetricsRegistry()
        env = _ticking_env(reg)
        SimScraper(env, reg, interval=0.5).start()
        env.run()
        return [(s.key.name, s.key.labels, tuple(s.samples))
                for s in reg.timeseries.all_series()]
    assert run_once() == run_once()


def test_sample_registry_records_histogram_count_and_sum():
    reg = MetricsRegistry()
    h = reg.histogram("repro_test_lat", "t", buckets=(1.0,))
    h.observe(0.5)
    h.observe(2.0)
    store = TimeSeriesStore()
    sample_registry(reg, store, 1.0)
    assert store.last_value("repro_test_lat_count") == 2
    assert store.last_value("repro_test_lat_sum") == Fraction(5, 2)


# --- exporters -----------------------------------------------------------

def test_openmetrics_text_format():
    reg = MetricsRegistry()
    reg.counter("repro_test_events", "event count", ("kind",)) \
        .labels(kind='a\\b"c\n').inc(2)
    reg.gauge("repro_test_depth", "queue depth").set(3)
    h = reg.histogram("repro_test_lat", "latency", buckets=(1.0,))
    h.observe(0.5)
    text = openmetrics_text(reg)
    assert text.endswith("# EOF\n")
    assert "# TYPE repro_test_events counter" in text
    assert "# HELP repro_test_events event count" in text
    assert 'repro_test_events_total{kind="a\\\\b\\"c\\n"} 2' in text
    assert "repro_test_depth 3" in text
    assert 'repro_test_lat_bucket{le="1"} 1' in text
    assert 'repro_test_lat_bucket{le="+Inf"} 1' in text
    assert "repro_test_lat_sum 0.5" in text
    assert "repro_test_lat_count 1" in text


def test_registry_json_roundtrips_through_json():
    reg = MetricsRegistry()
    reg.counter("repro_test_events", "t", ("kind",)).labels(kind="x").inc()
    h = reg.histogram("repro_test_lat", "t", buckets=(1.0,))
    h.observe(0.5)
    blob = json.loads(json.dumps(registry_json(reg)))
    families = {f["name"]: f for f in blob["families"]}
    events = families["repro_test_events"]
    assert events["kind"] == "counter"
    assert events["samples"][0] == {"labels": {"kind": "x"}, "value": 1.0}
    lat = families["repro_test_lat"]["samples"][0]
    assert lat["count"] == 1 and lat["sum"] == 0.5
    assert lat["buckets"][-1]["le"] == "+Inf"


# --- straggler detector --------------------------------------------------

def test_rolling_stats_window_evicts():
    stats = RollingStats(window=3)
    for v in (1.0, 1.0, 1.0, 10.0):
        stats.push(v)
    assert stats.count == 3
    assert stats.mean == pytest.approx(4.0)


def test_straggler_detector_flags_slow_rank_once_per_excursion():
    det = StragglerDetector(window=8, threshold=3.0, min_samples=3)
    alerts = []
    # Three healthy peers, one rank that degrades then recovers.
    for step in range(20):
        for rank in ("0", "1", "2"):
            det.observe(rank, 1.0 + 0.001 * int(rank), time=float(step))
        slow = 5.0 if 8 <= step < 14 else 1.0
        alert = det.observe("3", slow, time=float(step))
        if alert is not None:
            alerts.append(alert)
    assert len(alerts) == 1
    assert alerts[0].rank == "3"
    assert alerts[0].zscore >= 3.0
    assert "straggling" in alerts[0].describe()


def test_straggler_detector_feeds_registry_counter():
    reg = MetricsRegistry()
    det = StragglerDetector(window=4, threshold=2.0, min_samples=2,
                            registry=reg, extra_labels={"strategy": "t"})
    for step in range(6):
        for rank in ("0", "1", "2"):
            det.observe(rank, 1.0, time=float(step))
        det.observe("3", 8.0, time=float(step))
    family = reg.get("repro_straggler_alerts")
    assert family is not None
    total = sum(child.exact for _, child in family.children())
    assert total == len(det.alerts) >= 1


# --- dashboard -----------------------------------------------------------

def _two_strategy_snapshot():
    reg = MetricsRegistry()
    goodput = reg.counter("repro_goodput_seconds", "t",
                          ("strategy", "rank", "bucket"))
    for strategy, productive in (("a", 90), ("b", 70)):
        goodput.labels(strategy=strategy, rank="0",
                       bucket="productive").inc(productive)
        goodput.labels(strategy=strategy, rank="0",
                       bucket="idle").inc(100 - productive)
    reg.counter("repro_failures_injected", "t", ("kind", "target")) \
        .labels(kind="GPU_HARD", target="rank1").inc()
    return snapshot("combined", reg)


def test_filter_snapshot_projects_one_label_value():
    snap = _two_strategy_snapshot()
    only_a = filter_snapshot("a", snap, "strategy", "a")
    assert counter_total(only_a, "repro_goodput_seconds") == pytest.approx(100)
    # Families without the label are dropped from the projection.
    assert counter_total(only_a, "repro_failures_injected") == 0.0


def test_build_dashboard_is_self_contained_html():
    snap = _two_strategy_snapshot()
    html = build_dashboard(
        [filter_snapshot("a", snap, "strategy", "a"),
         filter_snapshot("b", snap, "strategy", "b")],
        title="campaign")
    assert html.lstrip().lower().startswith("<!doctype html>")
    assert "campaign" in html and "<svg" in html
    assert "productive" in html
    # No external fetches: a static artifact must render offline.
    assert "http://" not in html and "https://" not in html
    assert "<script" not in html
