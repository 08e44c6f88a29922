"""Prometheus-style metrics sampled in simulated time.

Layering (light to heavy):

* :mod:`~repro.obs.metrics.registry` — Counter/Gauge/Histogram families,
  the module-level *active registry* and the :func:`collecting` context
  manager (honours :data:`repro.flags.obs`);
* :mod:`~repro.obs.metrics.store` — in-memory time series plus the
  deterministic :class:`SimScraper` simulation process;
* :mod:`~repro.obs.metrics.instrument` — one helper per instrumentation
  site across the stack (kernel, storage, NCCL, streams, campaign);
* :mod:`~repro.obs.metrics.export` — OpenMetrics text and JSON;
* :mod:`~repro.obs.metrics.bridge` — strategy runs into the registry via
  the goodput ledger's own classification (import explicitly: it pulls
  in the ledger).

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
                                     SimScraper, TimeSeriesStore,
                                     sample_registry)
from repro.obs.metrics.instrument import attach_run_metrics
from repro.obs.metrics.export import (openmetrics_text, registry_json,
                                      timeseries_json, write_openmetrics)

__all__ = [
    "Counter",
    "DEFAULT_SCRAPE_INTERVAL",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "SimScraper",
    "TimeSeriesStore",
    "active",
    "attach_run_metrics",
    "collecting",
    "openmetrics_text",
    "registry_json",
    "sample_registry",
    "set_active",
    "timeseries_json",
    "write_openmetrics",
]
