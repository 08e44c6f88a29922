"""Chrome trace-event JSON export (Perfetto / chrome://tracing loadable).

Converts a run's :class:`~repro.sim.trace.Tracer` records — point events,
spans (recovery episodes and their phases included), and the
interval-shaped point events the stream executor emits
(``op_done``/``macro_chain`` carry their ``started`` time in the detail)
— into the Trace Event Format:

* intervals become ``"X"`` (complete) events with ``ts``/``dur`` in
  microseconds;
* instants become ``"i"`` events;
* every distinct actor gets its own thread track, named via ``"M"``
  metadata events, so iteration spans, kernel chains, collectives,
  recovery phases and storage commits nest visually by time.

Everything is derived from simulated timestamps — no wall-clock reads —
so two exports of the same run are byte-identical.
"""

from __future__ import annotations

import json
from typing import Any

from repro.sim.trace import Tracer

#: Point-event actions whose detail carries a ``started`` time; exported
#: as intervals rather than instants.
_INTERVAL_ACTIONS = {"op_done": "op", "macro_chain": None,
                     "store_write": "path", "store_read": "path"}

_US = 1e6


def _scrub(detail: dict[str, Any]) -> dict[str, Any]:
    """JSON-safe copy of a detail dict (drop non-serialisable values)."""
    out = {}
    for key, value in sorted(detail.items()):
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """The ``traceEvents`` list for one run."""
    tids: dict[str, int] = {}
    events: list[dict] = []

    def tid_of(actor: str) -> int:
        if actor not in tids:
            tids[actor] = len(tids) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": tids[actor], "args": {"name": actor}})
        return tids[actor]

    for span in tracer.spans:
        events.append({
            "ph": "X", "pid": 1, "tid": tid_of(span.actor),
            "name": span.name, "cat": "span",
            "ts": span.start * _US, "dur": span.duration * _US,
            "args": _scrub(span.detail),
        })

    for event in tracer.events:
        detail = event.detail
        if event.action in _INTERVAL_ACTIONS and "started" in detail:
            name_key = _INTERVAL_ACTIONS[event.action]
            name = str(detail.get(name_key, event.action)) if name_key \
                else event.action
            events.append({
                "ph": "X", "pid": 1, "tid": tid_of(event.actor),
                "name": name, "cat": event.action,
                "ts": detail["started"] * _US,
                "dur": (event.time - detail["started"]) * _US,
                "args": _scrub(detail),
            })
        else:
            events.append({
                "ph": "i", "pid": 1, "tid": tid_of(event.actor),
                "name": event.action, "cat": "event", "s": "t",
                "ts": event.time * _US,
                "args": _scrub(detail),
            })

    # Deterministic order: metadata first, then by timestamp (stable).
    meta = [e for e in events if e["ph"] == "M"]
    rest = [e for e in events if e["ph"] != "M"]
    rest.sort(key=lambda e: (e["ts"], e["tid"], e["name"]))
    return meta + rest


def chrome_trace(tracer: Tracer, label: str = "repro") -> dict:
    """A complete Chrome trace-event JSON object for one run."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "format": "repro.obs.chrome"},
    }


def write_chrome_trace(path, tracer: Tracer, label: str = "repro") -> dict:
    """Serialise :func:`chrome_trace` to *path*; returns the object."""
    trace = chrome_trace(tracer, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return trace
