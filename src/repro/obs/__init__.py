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
  golden timeline diff, dumped by the oracle on invariant failures.

The ledger is the time account (badput by source); the Chrome export
shows every record the account and the invariants are built from.

Every record is gated on the run's tracer alone: an enabled tracer
takes spans, failure and storage records, and one with ``ops`` on also
takes the per-op stream and ``collective_launch`` records, so untraced
runs pay nothing.  Nothing here runs inside the simulation: every view
is built after the run.
"""

from repro.obs.ledger import (BUCKETS, GoodputLedger, build_strategy_ledger,
                              merge_buckets)
from repro.obs.chrome import (chrome_trace, chrome_trace_events,
                              write_chrome_trace)
from repro.obs.flight import (DEFAULT_CAPACITY, FlightRecorder,
                              default_capacity, flight_dump, timeline_diff)

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
    "timeline_diff",
    "write_chrome_trace",
]
