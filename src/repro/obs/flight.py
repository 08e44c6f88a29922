"""Flight recorder: bounded ring of recent trace records, dumped on failure.

When an oracle invariant trips, the verdict alone ("losses diverge at
iteration 11") rarely explains *why*.  The flight recorder keeps the last
N records of a run's timeline — trace events and spans merged in time
order — and renders them next to the golden run's timeline as a unified
diff, so a replay reproducer ships with the moment the two runs parted.

The ring is a plain ``collections.deque(maxlen=...)``: capturing a long
run costs O(len) formatting once, at dump time, never during simulation.

The default window is 120 records; set ``REPRO_FLIGHT_RECORDS`` to grow
it when a divergence needs more history.  :func:`repro.flags.flight_records`
reads the variable per capture, not at import, so a test harness can
vary it without reloading modules; values that are not positive
integers fall back to the default.
"""

from __future__ import annotations

import difflib
from collections import deque
from typing import Iterable, Optional

from repro import flags
from repro.sim.trace import Tracer

DEFAULT_CAPACITY = 120


def default_capacity() -> int:
    """Ring size from ``REPRO_FLIGHT_RECORDS``, else :data:`DEFAULT_CAPACITY`."""
    return flags.flight_records(DEFAULT_CAPACITY)


def _timeline(tracer: Tracer) -> list[str]:
    """One line per record, merged events + spans in time order."""
    entries: list[tuple[float, int, str]] = []
    for index, event in enumerate(tracer.events):
        entries.append((event.time, index, str(event)))
    base = len(entries)
    # Outer spans first when a nested span starts at the same instant
    # (a recovery episode and its first phase).
    spans = sorted(tracer.spans, key=lambda span: (span.start, span.depth))
    for index, span in enumerate(spans):
        entries.append((span.start, base + index, str(span)))
    entries.sort(key=lambda e: (e[0], e[1]))
    return [line for _, _, line in entries]


class FlightRecorder:
    """Bounded ring buffer over a run's merged timeline."""

    def __init__(self, capacity: Optional[int] = None):
        if capacity is None:
            capacity = default_capacity()
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[str] = deque(maxlen=capacity)

    def extend(self, lines: Iterable[str]) -> None:
        self._ring.extend(lines)

    def capture(self, tracer: Tracer) -> None:
        """Replace the ring contents with *tracer*'s timeline tail."""
        self._ring.clear()
        self._ring.extend(_timeline(tracer))

    @property
    def lines(self) -> list[str]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def dump(self, title: str = "flight recorder") -> str:
        head = f"=== {title} (last {len(self._ring)} records) ==="
        return "\n".join([head, *self._ring])


def timeline_diff(failing: Tracer, golden: Tracer,
                  capacity: Optional[int] = None,
                  context: int = 3) -> str:
    """Unified diff between a failing run's timeline tail and the golden's.

    Both timelines are windowed to the flight-recorder capacity before
    diffing, so the output stays bounded no matter how long the run was.
    """
    if capacity is None:
        capacity = default_capacity()
    failing_lines = _timeline(failing)[-capacity:]
    golden_lines = _timeline(golden)[-capacity:]
    diff = list(difflib.unified_diff(golden_lines, failing_lines,
                                     fromfile="golden", tofile="failing",
                                     n=context, lineterm=""))
    if not diff:
        return "(timelines identical within the flight-recorder window)"
    return "\n".join(diff)


def flight_dump(failing: Tracer, golden: Optional[Tracer] = None,
                capacity: Optional[int] = None) -> str:
    """The full dump the oracle attaches to a failing verdict."""
    recorder = FlightRecorder(capacity)
    recorder.capture(failing)
    sections = [recorder.dump("flight recorder: failing run")]
    if golden is not None:
        sections.append("=== timeline diff (golden vs failing) ===")
        sections.append(timeline_diff(failing, golden, capacity=capacity))
    return "\n".join(sections)
