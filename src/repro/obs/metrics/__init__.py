"""Prometheus-style metrics projected from finished runs.

Nothing in the simulator feeds these families while it runs: they are
read off the run's trace, goodput ledger and campaign perf afterwards,
so collecting metrics never changes a run.

Layering (light to heavy):

* :mod:`~repro.obs.metrics.registry` — Counter/Gauge/Histogram families,
  the module-level *active registry* and the :func:`collecting` context
  manager (honours :data:`repro.flags.obs`);
* :mod:`~repro.obs.metrics.store` — in-memory time series sampled in
  simulated time;
* :mod:`~repro.obs.metrics.export` — OpenMetrics text and JSON;
* :mod:`~repro.obs.metrics.bridge` — the post-run projections: trace
  records, the goodput ledger's classification and campaign perf into
  the registry (import explicitly: it pulls in the ledger).

Typical use::

    from repro import flags
    from repro.obs import metrics

    with flags.override(obs=True), metrics.collecting() as reg:
        run = run_strategy("periodic", spec, schedule)
    print(metrics.openmetrics_text(reg))
"""

from repro.obs.metrics.registry import (Counter, Gauge, Histogram,
                                        MetricsRegistry, active, collecting,
                                        set_active)
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
    "active",
    "collecting",
    "openmetrics_text",
    "registry_json",
    "sample_registry",
    "set_active",
    "timeseries_json",
    "write_openmetrics",
]
