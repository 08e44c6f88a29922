"""In-memory time series sampled over a run's recorded timeline.

Prometheus pulls metrics on a wall-clock schedule; here samples are
taken *after* the run, while :func:`repro.obs.metrics.bridge.record_trace`
replays the run's trace records in time order: one
:func:`sample_registry` snapshot at each multiple of the registry's
interval, and a closing one at the run's end.  Nothing is scheduled on
the simulation, so collecting never changes a run, samples land at exact
simulated timestamps, and two runs of the same scenario produce
identical series.  The store keeps whatever value objects the registry
holds — counter samples stay exact :class:`fractions.Fraction`, so
series-derived totals reconcile bitwise with the goodput ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from repro.obs.metrics.registry import (Counter, Gauge, Histogram,
                                        MetricsRegistry)

Value = Union[int, float, Fraction]

#: Simulated seconds between samples when the registry does not say.
DEFAULT_SCRAPE_INTERVAL = 1.0


@dataclass(frozen=True)
class SeriesKey:
    name: str
    labels: tuple[str, ...]


@dataclass
class Series:
    """One metric child's samples over simulated time."""

    key: SeriesKey
    labelnames: tuple[str, ...]
    kind: str
    samples: list[tuple[float, Value]] = field(default_factory=list)

    @property
    def last(self) -> Optional[Value]:
        return self.samples[-1][1] if self.samples else None

    def label_dict(self) -> dict[str, str]:
        return dict(zip(self.labelnames, self.key.labels))


class TimeSeriesStore:
    """Append-only map of ``(metric, labels) -> [(sim_time, value), ...]``."""

    def __init__(self) -> None:
        self._series: dict[SeriesKey, Series] = {}

    def append(self, time: float, name: str, labels: tuple[str, ...],
               labelnames: tuple[str, ...], kind: str, value: Value) -> None:
        key = SeriesKey(name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = Series(key, labelnames, kind)
        series.samples.append((time, value))

    def series(self, name: str,
               labels: Optional[tuple[str, ...]] = None) -> list[Series]:
        """All series of *name* (or the one matching *labels* exactly)."""
        out = [s for key, s in sorted(self._series.items(),
                                      key=lambda kv: (kv[0].name, kv[0].labels))
               if key.name == name
               and (labels is None or key.labels == labels)]
        return out

    def last_value(self, name: str,
                   labels: tuple[str, ...] = ()) -> Optional[Value]:
        series = self._series.get(SeriesKey(name, labels))
        return series.last if series is not None else None

    def names(self) -> list[str]:
        return sorted({key.name for key in self._series})

    def all_series(self) -> list[Series]:
        return [self._series[key] for key in
                sorted(self._series, key=lambda k: (k.name, k.labels))]

    def __len__(self) -> int:
        return len(self._series)


def sample_registry(registry: MetricsRegistry, store: TimeSeriesStore,
                    time: float) -> None:
    """Append one sample of *registry* to *store* at simulated *time*.

    Counters keep their exact ``Fraction`` values; gauges are read now;
    histograms land as two series, ``<name>_count`` and ``<name>_sum``
    (the sum exact), which is what the dashboard's rate panels need.
    """
    for family in registry.collect():
        for labels, child in family.children():
            if isinstance(family, Counter):
                store.append(time, family.name, labels, family.labelnames,
                             "counter", child.exact)
            elif isinstance(family, Gauge):
                store.append(time, family.name, labels, family.labelnames,
                             "gauge", child.value)
            elif isinstance(family, Histogram):
                store.append(time, f"{family.name}_count", labels,
                             family.labelnames, "histogram", child.count)
                store.append(time, f"{family.name}_sum", labels,
                             family.labelnames, "histogram", child.exact_sum)
