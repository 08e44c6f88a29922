"""Unit tests for the Prometheus-style metrics pipeline.

Covers the registry primitives (label handling, exactness, conflict
detection), the ``collecting``/``active`` gating under ``REPRO_OBS``,
the time-series store, the OpenMetrics and JSON exporters, and the
static dashboard builder.  Families projected from real runs are
covered by ``test_metrics_consistency.py``.
"""

import json
import math
from fractions import Fraction

import pytest

from repro import flags
from repro.obs.metrics import (MetricsRegistry, TimeSeriesStore, active,
                               collecting, openmetrics_text, registry_json,
                               sample_registry)
from repro.obs.metrics.dashboard import (build_dashboard, counter_total,
                                         filter_snapshot, snapshot)


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


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("repro_test_depth", "t")
    g.set(4)
    g.dec(1)
    g.inc(2)
    assert g.value == 5.0
    g.set(9)
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


# --- store ---------------------------------------------------------------

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
