"""Unified observability: goodput ledger, trace export, flight recorder.

``repro.obs`` turns one timeline — the run's `repro.sim.trace.Tracer`
records: trace events, iteration spans, and the recovery episode and
phase spans `repro.core.telemetry` writes — plus the generation
boundaries of `repro.cluster` into first-class diagnostics:

* :mod:`repro.obs.ledger` — the GoodPut/BadPut ledger: every simulated
  second of every rank classified into productive / detection / rework /
  restart / idle, with a bitwise accounting identity;
* :mod:`repro.obs.chrome` — Chrome trace-event JSON export (Perfetto);
* :mod:`repro.obs.flight` — bounded flight-recorder ring + failing-vs-
  golden timeline diff, dumped by the oracle on invariant failures;
* :mod:`repro.obs.metrics` — Prometheus-style Counter/Gauge/Histogram
  families that a caller projects finished runs into (trace records,
  the goodput ledger, campaign perf), sampled over the recorded
  timeline, with OpenMetrics/JSON export.

Span, storage and collective-launch records are gated on
:data:`repro.flags.obs` (process-global, ``REPRO_OBS=0`` to disable;
scoped with ``flags.override(obs=...)``) *and* the run's tracer being
enabled, so untraced runs pay nothing.  Recovery episodes and the
injector's ``failure`` records are not gated: the ledger reads them
either way.  Nothing here runs inside the simulation: every view is
built after the run.
"""

from repro.obs.ledger import (BUCKETS, GoodputLedger, build_strategy_ledger,
                              merge_buckets)
from repro.obs.chrome import (chrome_trace, chrome_trace_events,
                              write_chrome_trace)
from repro.obs.flight import (DEFAULT_CAPACITY, FlightRecorder,
                              default_capacity, flight_dump, timeline_diff)
from repro.obs import metrics

__all__ = [
    "BUCKETS",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "GoodputLedger",
    "build_strategy_ledger",
    "chrome_trace",
    "chrome_trace_events",
    "default_capacity",
    "flight_dump",
    "merge_buckets",
    "metrics",
    "timeline_diff",
    "write_chrome_trace",
]
