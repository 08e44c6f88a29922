"""OpenMetrics text and JSON exporters for the metrics registry.

``openmetrics_text`` renders the registry snapshot in the OpenMetrics
1.0 text format (``# TYPE`` / ``# HELP`` headers, ``_total`` counter
samples, cumulative ``_bucket{le=...}`` histogram series, terminated by
``# EOF``), so the output loads into any Prometheus-compatible tool.
``registry_json`` / ``timeseries_json`` are the machine-readable forms
the report tool, baseline checker and dashboard consume.

Everything is deterministically ordered (families by name, children by
label tuple) so exports of the same simulated run are byte-identical.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.obs.metrics.registry import (Counter, Gauge, Histogram,
                                        MetricsRegistry)
from repro.obs.metrics.store import TimeSeriesStore


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _labels_text(labelnames: tuple[str, ...], values: tuple[str, ...],
                 extra: Optional[tuple[str, str]] = None) -> str:
    pairs = [f'{name}="{_escape(value)}"'
             for name, value in zip(labelnames, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _number(value) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def openmetrics_text(registry: MetricsRegistry) -> str:
    lines: list[str] = []
    for family in registry.collect():
        lines.append(f"# TYPE {family.name} {family.kind}")
        if family.help:
            lines.append(f"# HELP {family.name} {_escape(family.help)}")
        for labels, child in family.children():
            if isinstance(family, Counter):
                label_text = _labels_text(family.labelnames, labels)
                lines.append(f"{family.name}_total{label_text} "
                             f"{_number(child.value)}")
            elif isinstance(family, Gauge):
                label_text = _labels_text(family.labelnames, labels)
                lines.append(f"{family.name}{label_text} "
                             f"{_number(child.value)}")
            elif isinstance(family, Histogram):
                for bound, cumulative in child.cumulative():
                    le = _labels_text(family.labelnames, labels,
                                      extra=("le", _number(bound)))
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                label_text = _labels_text(family.labelnames, labels)
                lines.append(f"{family.name}_sum{label_text} "
                             f"{_number(child.sum)}")
                lines.append(f"{family.name}_count{label_text} "
                             f"{child.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def registry_json(registry: MetricsRegistry) -> dict:
    """Plain-JSON snapshot: families -> labelled samples (floats)."""
    families = []
    for family in registry.collect():
        samples = []
        for labels, child in family.children():
            entry: dict = {"labels": family.label_dict(labels)}
            if isinstance(family, Counter):
                entry["value"] = child.value
            elif isinstance(family, Gauge):
                entry["value"] = child.value
            elif isinstance(family, Histogram):
                entry["count"] = child.count
                entry["sum"] = child.sum
                entry["mean"] = child.mean
                entry["buckets"] = [
                    {"le": ("+Inf" if math.isinf(bound) else bound),
                     "count": cumulative}
                    for bound, cumulative in child.cumulative()]
            samples.append(entry)
        families.append({"name": family.name, "kind": family.kind,
                         "help": family.help,
                         "labelnames": list(family.labelnames),
                         "samples": samples})
    return {"families": families}


def timeseries_json(store: TimeSeriesStore) -> dict:
    """The sampled series as plain JSON (values become floats)."""
    series = []
    for entry in store.all_series():
        series.append({
            "name": entry.key.name,
            "labels": entry.label_dict(),
            "kind": entry.kind,
            "samples": [[time, float(value)]
                        for time, value in entry.samples],
        })
    return {"series": series}


def write_openmetrics(path: str, registry: MetricsRegistry) -> str:
    text = openmetrics_text(registry)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path
