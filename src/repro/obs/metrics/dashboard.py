"""Static-HTML campaign dashboard over metric snapshots.

One snapshot per strategy (or per scenario-grid cell) — the plain-dict
shape :func:`snapshot` produces from a registry, which is also exactly
what ``json.load`` gives back from a saved snapshot file, so dashboards
can be rebuilt offline from artifacts.  The page is a single
self-contained HTML file (inline CSS + SVG, no JavaScript, no external
assets): it renders from ``file://``, inside CI artifact viewers, and in
anything that can display HTML.

Panels:

* summary table — runs, wall clock, goodput split, detection/restart
  means, failures, cache hit-rate (when campaign metrics are present);
* stacked goodput bars — the five ledger buckets per snapshot, scaled to
  each snapshot's total rank-seconds;
* phase histograms — detection and restart latency distributions per
  snapshot, drawn from the exported cumulative buckets.
"""

from __future__ import annotations

import html
import json
import math
from typing import Iterable, Optional

from repro.obs.metrics.export import registry_json, timeseries_json
from repro.obs.metrics.registry import MetricsRegistry

#: Ledger bucket display order and colours (colour-blind-safe palette).
BUCKET_COLORS = (
    ("productive", "#0072b2"),
    ("detection", "#e69f00"),
    ("rework", "#d55e00"),
    ("restart", "#cc79a7"),
    ("idle", "#999999"),
)

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; font-size: 0.85rem; width: 100%; }
th, td { border-bottom: 1px solid #ddd; padding: 0.35rem 0.6rem;
         text-align: right; }
th:first-child, td:first-child { text-align: left; }
thead th { border-bottom: 2px solid #888; }
.bar-label { font-size: 0.8rem; }
.legend span { display: inline-block; margin-right: 1rem;
               font-size: 0.8rem; }
.swatch { display: inline-block; width: 0.8rem; height: 0.8rem;
          border-radius: 2px; vertical-align: -0.1rem;
          margin-right: 0.3rem; }
.note { color: #666; font-size: 0.8rem; }
"""


def snapshot(name: str, registry: MetricsRegistry,
             meta: Optional[dict] = None,
             include_timeseries: bool = True) -> dict:
    """Package one registry (and its sampled series) for the dashboard."""
    data = {"name": name, "meta": dict(meta or {}),
            "metrics": registry_json(registry)}
    store = getattr(registry, "timeseries", None)
    if include_timeseries and store is not None:
        data["timeseries"] = timeseries_json(store)
    return data


# -- snapshot readers (plain dicts, so loaded JSON works too) -----------------


def _families(snap: dict) -> list[dict]:
    return snap.get("metrics", {}).get("families", [])


def _family(snap: dict, name: str) -> Optional[dict]:
    for family in _families(snap):
        if family["name"] == name:
            return family
    return None


def _matches(labels: dict, where: Optional[dict]) -> bool:
    return all(labels.get(k) == v for k, v in (where or {}).items())


def counter_total(snap: dict, name: str,
                  where: Optional[dict] = None) -> float:
    family = _family(snap, name)
    if family is None:
        return 0.0
    return sum(sample["value"] for sample in family["samples"]
               if _matches(sample["labels"], where))


def gauge_value(snap: dict, name: str,
                where: Optional[dict] = None) -> Optional[float]:
    family = _family(snap, name)
    if family is None:
        return None
    for sample in family["samples"]:
        if _matches(sample["labels"], where):
            return sample["value"]
    return None


def histogram_totals(snap: dict, name: str,
                     where: Optional[dict] = None) -> tuple[int, float]:
    """(count, sum) aggregated over matching label sets."""
    family = _family(snap, name)
    if family is None:
        return 0, 0.0
    count, total = 0, 0.0
    for sample in family["samples"]:
        if _matches(sample["labels"], where):
            count += sample["count"]
            total += sample["sum"]
    return count, total


def histogram_buckets(snap: dict, name: str,
                      where: Optional[dict] = None) -> list[tuple[str, int]]:
    """Per-bucket (non-cumulative) counts aggregated over matching samples."""
    family = _family(snap, name)
    if family is None:
        return []
    merged: dict[str, int] = {}
    order: list[str] = []
    for sample in family["samples"]:
        if not _matches(sample["labels"], where):
            continue
        previous = 0
        for bucket in sample["buckets"]:
            le = str(bucket["le"])
            if le not in merged:
                merged[le] = 0
                order.append(le)
            merged[le] += bucket["count"] - previous
            previous = bucket["count"]
    return [(le, merged[le]) for le in order]


def filter_snapshot(name: str, snap: dict, label: str,
                    value: str) -> dict:
    """Project one label value out of a multi-run snapshot.

    Keeps only families carrying *label* and only their samples matching
    *value* — the per-strategy view of a registry that collected several
    strategy runs.  Families without the label (campaign-wide rollups)
    are dropped rather than duplicated into every slice.
    """
    families = []
    for family in _families(snap):
        if label not in family["labelnames"]:
            continue
        samples = [sample for sample in family["samples"]
                   if sample["labels"].get(label) == value]
        if samples:
            families.append({**family, "samples": samples})
    return {"name": name, "meta": {label: value},
            "metrics": {"families": families}}


def goodput_split(snap: dict) -> dict[str, float]:
    """Ledger bucket totals (seconds) summed across ranks/strategies."""
    return {bucket: counter_total(snap, "repro_goodput_seconds",
                                  {"bucket": bucket})
            for bucket, _color in BUCKET_COLORS}


# -- SVG helpers --------------------------------------------------------------


def _stacked_bar(split: dict[str, float], width: int = 560,
                 height: int = 22) -> str:
    total = sum(split.values())
    if total <= 0:
        return ('<svg width="%d" height="%d"><rect width="%d" height="%d" '
                'fill="#eee"/></svg>' % (width, height, width, height))
    parts, x = [], 0.0
    for bucket, color in BUCKET_COLORS:
        w = width * split.get(bucket, 0.0) / total
        if w > 0:
            parts.append(f'<rect x="{x:.1f}" y="0" width="{w:.1f}" '
                         f'height="{height}" fill="{color}">'
                         f'<title>{bucket}: {split[bucket]:.2f} s '
                         f'({100 * split[bucket] / total:.1f}%)</title>'
                         f'</rect>')
            x += w
    return (f'<svg width="{width}" height="{height}" role="img">'
            + "".join(parts) + "</svg>")


def _histogram_svg(buckets: list[tuple[str, int]], width: int = 260,
                   height: int = 64) -> str:
    if not buckets:
        return '<span class="note">no observations</span>'
    peak = max(count for _le, count in buckets) or 1
    bar_w = width / len(buckets)
    parts = []
    for index, (le, count) in enumerate(buckets):
        h = (height - 12) * count / peak
        x = index * bar_w
        parts.append(
            f'<rect x="{x:.1f}" y="{height - h:.1f}" '
            f'width="{max(1.0, bar_w - 2):.1f}" height="{h:.1f}" '
            f'fill="#0072b2"><title>le {le}: {count}</title></rect>')
    return (f'<svg width="{width}" height="{height}" role="img">'
            + "".join(parts) + "</svg>")


def _legend() -> str:
    swatches = "".join(
        f'<span><i class="swatch" style="background:{color}"></i>'
        f'{bucket}</span>' for bucket, color in BUCKET_COLORS)
    return f'<div class="legend">{swatches}</div>'


def _fmt(value: Optional[float], digits: int = 2,
         suffix: str = "") -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "—"
    return f"{value:.{digits}f}{suffix}"


# -- page assembly ------------------------------------------------------------


def _summary_rows(snapshots: list[dict]) -> str:
    rows = []
    for snap in snapshots:
        split = goodput_split(snap)
        total = sum(split.values())
        productive = (100 * split["productive"] / total) if total else None
        det_count, det_sum = histogram_totals(
            snap, "repro_failure_detection_seconds")
        res_count, res_sum = histogram_totals(
            snap, "repro_recovery_restart_seconds")
        failures = counter_total(snap, "repro_failures_injected")
        hit_rate = gauge_value(snap, "repro_campaign_cache_hit_rate")
        hit_pct = 100 * hit_rate if hit_rate is not None else None
        wall = counter_total(snap, "repro_run_wall_seconds")
        runs_ok = counter_total(snap, "repro_runs", {"outcome": "ok"})
        runs_bad = (counter_total(snap, "repro_runs") - runs_ok)
        rows.append(
            "<tr>"
            f"<td>{html.escape(str(snap.get('name', '?')))}</td>"
            f"<td>{int(runs_ok)}/{int(runs_ok + runs_bad)}</td>"
            f"<td>{_fmt(wall, 1)}</td>"
            f"<td>{_fmt(productive, 1, '%')}</td>"
            f"<td>{_fmt(det_sum / det_count if det_count else None, 3)}</td>"
            f"<td>{_fmt(res_sum / res_count if res_count else None, 3)}</td>"
            f"<td>{int(failures)}</td>"
            f"<td>{_fmt(hit_pct, 1, '%')}</td>"
            "</tr>")
    return "".join(rows)


def _goodput_section(snapshots: list[dict]) -> str:
    rows = []
    for snap in snapshots:
        name = html.escape(str(snap.get("name", "?")))
        rows.append(f'<div class="bar-label">{name}</div>'
                    + _stacked_bar(goodput_split(snap)))
    return _legend() + "".join(rows)


def _phase_section(snapshots: list[dict]) -> str:
    rows = []
    for snap in snapshots:
        name = html.escape(str(snap.get("name", "?")))
        detection = _histogram_svg(
            histogram_buckets(snap, "repro_failure_detection_seconds"))
        restart = _histogram_svg(
            histogram_buckets(snap, "repro_recovery_restart_seconds"))
        rows.append(f"<tr><td>{name}</td><td>{detection}</td>"
                    f"<td>{restart}</td></tr>")
    return ("<table><thead><tr><th>snapshot</th>"
            "<th>failure → detection (s)</th>"
            "<th>detection → restart (s)</th></tr></thead>"
            "<tbody>" + "".join(rows) + "</tbody></table>")


def build_dashboard(snapshots: Iterable[dict],
                    title: str = "repro metrics dashboard") -> str:
    snaps = list(snapshots)
    return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_CSS}</style></head><body>
<h1>{html.escape(title)}</h1>
<p class="note">{len(snaps)} snapshot(s); all values in simulated
seconds unless noted. Hover bars for exact numbers.</p>
<h2>Summary</h2>
<table><thead><tr><th>snapshot</th><th>runs ok</th><th>wall·ranks (s)</th>
<th>productive</th><th>detect mean (s)</th><th>restart mean (s)</th>
<th>failures</th><th>cache hits</th></tr></thead>
<tbody>{_summary_rows(snaps)}</tbody></table>
<h2>Goodput split</h2>
{_goodput_section(snaps)}
<h2>Recovery phase latencies</h2>
{_phase_section(snaps)}
</body></html>
"""


def write_dashboard(path: str, snapshots: Iterable[dict],
                    title: str = "repro metrics dashboard") -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(build_dashboard(snapshots, title=title))
    return path


def write_snapshots(path: str, snapshots: Iterable[dict]) -> str:
    """Persist snapshots as JSON (the dashboard's offline input format)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"snapshots": list(snapshots)}, handle, indent=2,
                  sort_keys=True)
    return path


def load_snapshots(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["snapshots"]
