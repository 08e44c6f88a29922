"""Prometheus-style metric families with exact-arithmetic accumulation.

A :class:`MetricsRegistry` holds named families — :class:`Counter`,
:class:`Gauge`, :class:`Histogram` — each fanning out into children per
label-value tuple, exactly like the Prometheus client model
(``family.labels(rank="0").inc()``).  Two deliberate departures from the
wire-format-first clients:

* **Counters and histogram sums accumulate as exact
  :class:`fractions.Fraction` values** of the float observations, never
  as rounded floats.  The goodput ledger's accounting identity is
  bitwise (``sum(buckets) == wall × ranks`` on Fractions), and the
  ledger↔metrics consistency tests demand the same of any metric
  derived from it — exactness has to survive the registry, not just the
  ledger.
* **Nothing feeds a registry while a simulation runs, and there is no
  ambient registry.**  A caller builds its own registry and projects
  finished runs into it through :mod:`repro.obs.metrics.bridge`
  (``record_run``, ``record_campaign_perf``).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Number = Union[int, float, Fraction]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bounds, in simulated seconds.  Spans sub-10 ms
#: storage commits up to multi-minute restart phases; +Inf is implicit.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                   2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Child:
    """One labelled series of a family."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        self.labels = labels


class CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, labels: tuple[str, ...]):
        super().__init__(labels)
        self._value = Fraction(0)

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += Fraction(amount)

    @property
    def exact(self) -> Fraction:
        return self._value

    @property
    def value(self) -> float:
        return float(self._value)


class GaugeChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, labels: tuple[str, ...]):
        super().__init__(labels)
        self._value = 0.0

    def set(self, value: Number) -> None:
        self._value = float(value)

    def inc(self, amount: Number = 1) -> None:
        self._value += float(amount)

    def dec(self, amount: Number = 1) -> None:
        self._value -= float(amount)

    @property
    def value(self) -> float:
        return self._value


class HistogramChild(_Child):
    __slots__ = ("bounds", "counts", "_sum", "_count")

    def __init__(self, labels: tuple[str, ...], bounds: tuple[float, ...]):
        super().__init__(labels)
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)   # last slot is +Inf
        self._sum = Fraction(0)
        self._count = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self._sum += Fraction(value)
        self._count += 1

    @property
    def exact_sum(self) -> Fraction:
        return self._sum

    @property
    def sum(self) -> float:
        return float(self._sum)

    @property
    def count(self) -> int:
        return self._count

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, +Inf last — the export shape."""
        out = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the covering bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        for bound, running in self.cumulative():
            if running >= rank:
                return bound
        return float("inf")

    @property
    def mean(self) -> float:
        return float(self._sum / self._count) if self._count else 0.0


class MetricFamily:
    """Base family: a name, help text, and children per label tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], _Child] = {}

    def _make_child(self, labels: tuple[str, ...]) -> _Child:
        raise NotImplementedError

    def labels(self, *values, **kv):
        if values and kv:
            raise ValueError("pass label values positionally or by name")
        if kv:
            try:
                values = tuple(str(kv[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"{self.name}: missing label {exc}") from exc
            if len(kv) != len(self.labelnames):
                extra = set(kv) - set(self.labelnames)
                raise ValueError(f"{self.name}: unknown labels {sorted(extra)}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(f"{self.name}: expected labels "
                             f"{self.labelnames}, got {values}")
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._make_child(values)
        return child

    def _solo(self):
        """The label-less child (families declared without labels)."""
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return self.labels()

    def children(self) -> list[tuple[tuple[str, ...], _Child]]:
        """Children in deterministic (sorted label tuple) order."""
        return sorted(self._children.items())

    def label_dict(self, values: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, values))


class Counter(MetricFamily):
    kind = "counter"

    def _make_child(self, labels):
        return CounterChild(labels)

    def inc(self, amount: Number = 1) -> None:
        self._solo().inc(amount)

    @property
    def exact(self) -> Fraction:
        return self._solo().exact

    @property
    def value(self) -> float:
        return self._solo().value


class Gauge(MetricFamily):
    kind = "gauge"

    def _make_child(self, labels):
        return GaugeChild(labels)

    def set(self, value: Number) -> None:
        self._solo().set(value)

    def inc(self, amount: Number = 1) -> None:
        self._solo().inc(amount)

    def dec(self, amount: Number = 1) -> None:
        self._solo().dec(amount)

    @property
    def value(self) -> float:
        return self._solo().value


class Histogram(MetricFamily):
    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate histogram bucket bounds")
        self.bounds = bounds

    def _make_child(self, labels):
        return HistogramChild(labels, self.bounds)

    def observe(self, value: Number) -> None:
        self._solo().observe(value)


class MetricsRegistry:
    """Named metric families with get-or-create accessors.

    ``scrape_interval`` paces sampling: the post-run projection
    (:func:`repro.obs.metrics.bridge.record_trace`) samples the registry
    at each multiple of it in simulated time.
    """

    def __init__(self, scrape_interval: Optional[float] = None):
        self.scrape_interval = scrape_interval
        #: The :class:`~repro.obs.metrics.store.TimeSeriesStore` the first
        #: projected run creates (the sampled series live with the
        #: registry so report/dashboard consumers find them).
        self.timeseries = None
        self._families: dict[str, MetricFamily] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if not isinstance(family, cls):
                raise ValueError(f"{name} already registered as {family.kind}")
            if family.labelnames != tuple(labelnames):
                raise ValueError(f"{name} already registered with labels "
                                 f"{family.labelnames}")
            return family
        family = cls(name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def collect(self) -> list[MetricFamily]:
        """Families in deterministic (sorted name) order."""
        return [self._families[name] for name in sorted(self._families)]
