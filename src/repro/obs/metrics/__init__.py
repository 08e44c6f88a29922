"""Prometheus-style metrics projected from finished runs.

Nothing in the simulator feeds these families while it runs: they are
read off the run's trace, goodput ledger and campaign perf afterwards,
so collecting metrics never changes a run.

Layering (light to heavy):

* :mod:`~repro.obs.metrics.registry` — Counter/Gauge/Histogram families
  in a caller-owned :class:`MetricsRegistry` (there is no ambient one);
* :mod:`~repro.obs.metrics.store` — in-memory time series sampled in
  simulated time;
* :mod:`~repro.obs.metrics.export` — OpenMetrics text and JSON;
* :mod:`~repro.obs.metrics.bridge` — the post-run projections: trace
  records, the goodput ledger's classification and campaign perf into
  the registry (import explicitly: it pulls in the ledger).

Typical use — the caller owns the registry and projects each finished
run into it::

    from repro.obs import metrics
    from repro.obs.metrics import bridge

    reg = metrics.MetricsRegistry(scrape_interval=0.5)
    run = run_strategy("periodic", spec, schedule, iterations)
    bridge.record_run(reg, run, spec.world_size)
    print(metrics.openmetrics_text(reg))
"""

from repro.obs.metrics.registry import (Counter, Gauge, Histogram,
                                        MetricsRegistry)
from repro.obs.metrics.store import (DEFAULT_SCRAPE_INTERVAL, Series,
                                     TimeSeriesStore, sample_registry)
from repro.obs.metrics.export import (openmetrics_text, registry_json,
                                      timeseries_json, write_openmetrics)

__all__ = [
    "Counter",
    "DEFAULT_SCRAPE_INTERVAL",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "TimeSeriesStore",
    "openmetrics_text",
    "registry_json",
    "sample_registry",
    "timeseries_json",
    "write_openmetrics",
]
